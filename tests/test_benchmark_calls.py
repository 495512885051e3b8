"""The functions the benchmark in ``perfbench/`` calls and wraps keep their
names and signatures: a rename there passes every other test here and then
fails each benchmark run. Reads ``perfbench/`` and changes nothing in it."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_uninstalls():
    targets = [(module, name) for module, _, names in tracing._TARGETS for name in names]
    originals = [getattr(module, name) for module, name in targets]
    panels = tracing.momentum.FilonPanels
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, n) is not f for (m, n), f in zip(targets, originals))
        assert tracing.momentum.FilonPanels is not panels
    finally:
        tracer.uninstall()
    assert all(getattr(m, n) is f for (m, n), f in zip(targets, originals))
    assert tracing.momentum.FilonPanels is panels


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
def test_one_traced_job_per_kind_passes_its_check(tmp_path, workload):
    # each kind's first entry of the seed-1 deck, run under the tracer's
    # wrappers as a traced benchmark job runs it; the preparation runs the
    # shooting oracle and, for tail_scan, the two closed forms
    run, check = workloads.RUNNERS[workload]
    prepare = workloads.Preparer(workload, tmp_path)
    firsts = {}
    for e in workloads.make_deck(workload, 1):
        firsts.setdefault(e["config"]["kind"], e)
    tracer = tracing.Tracer()
    for kind, e in firsts.items():
        prepare(e)
        out, _ = tracer.run_job(run, e, tracer.span)
        assert check(e, out) is None, (kind, e["config"])
    if workload == "tail_scan":
        assert all(firsts[kind]["phi_closed"] is not None
                   for kind in ("delta_sum", "infinite_well"))
    assert prepare.oracle_max_diff <= 1e-8


def test_known_defect_probes_do_not_fail(tmp_path):
    # each probe is "ok" or a defect the benchmark knows; the cli_solve probe
    # reads solve.json's norm_check
    outcomes = workloads.probe_known_defects(tmp_path)
    assert outcomes
    assert not [(tag, o) for tag, o in outcomes.items() if o.startswith("failed")]
