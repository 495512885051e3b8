"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    res = _run("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", "0")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric():
    res = _run("--workload", "verify_sweep", "--seed", "3", "--seconds", "0.3", "--trace", "1")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.calls"] >= 2 and values["momentum.transform.calls"] >= 1
    assert values["trace.overhead_ratio"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "tail_scan", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.describe(workloads.make_deck(workload, 7))
    assert first == workloads.describe(workloads.make_deck(workload, 7))
    assert first != workloads.describe(workloads.make_deck(workload, 8))


def _prepared_tail_entry(tmp_path, kind):
    deck = workloads.make_deck("tail_scan", 5)
    entry = next(e for e in deck if e["config"]["kind"] == kind)
    workloads.Preparer("tail_scan", tmp_path)(entry)
    return entry


@pytest.mark.parametrize("kind", ["bouncer", "delta_sum", "step_sum"])
def test_scaled_phi_fails_its_reference_check(tmp_path, kind):
    entry = _prepared_tail_entry(tmp_path, kind)
    out, points = workloads.run_tail(entry)
    assert points == entry["p"].size
    assert workloads.check_tail(entry, out) is None
    out["phi"] = out["phi"] * (1.0 + 1e-6)
    reason, known = workloads.check_tail(entry, out)
    assert reason.startswith("phi vs") and not known


def test_wrong_energy_fails_and_is_not_a_known_defect(tmp_path):
    deck = workloads.make_deck("solve_sweep", 5)
    entry = next(e for e in deck if e["config"]["kind"] == "bouncer")
    workloads.Preparer("solve_sweep", tmp_path)(entry)
    out, _ = workloads.run_solve(entry)
    assert workloads.check_solve(entry, out) is None
    out["state"].energy *= 1.0 + 1e-8
    assert workloads.check_solve(entry, out) == ("energy", False)


def test_no_solve_sweep_job_fails(tmp_path):
    run, check = workloads.RUNNERS["solve_sweep"]
    prepare = workloads.Preparer("solve_sweep", tmp_path)
    for entry in workloads.make_deck("solve_sweep", 3):
        prepare(entry)
        assert check(entry, run(entry)[0]) is None, entry["config"]


def test_known_defect_probes_are_right_or_known(tmp_path):
    outcomes = workloads.probe_known_defects(tmp_path)
    assert len(outcomes) == len(workloads.KNOWN_DEFECT_PROBES)
    assert not [tag for tag, o in outcomes.items() if o.startswith("failed")]


def test_references_agree_with_closed_forms():
    # two equal deltas g at distance d: the even level solves kappa = g (1 + e^{-kappa d})
    cfg = {"kind": "delta_sum", "deltas": [[1.0, 0.0], [1.0, 3.0]]}
    kappa = math.sqrt(-2.0 * ref.reference_energy(cfg, 1, None))
    assert kappa == pytest.approx(1.0 + math.exp(-3.0 * kappa), rel=1e-14)
    assert ref.level_count(cfg) == 2
    assert ref.level_count({"kind": "delta_sum", "deltas": [[0.4, 0.0], [0.4, 1.0]]}) == 1
    # the Sturm count on a finite well matches its even-level condition k tan(k w/2) = kappa
    well = {"kind": "finite_well", "depth": 10.0, "a": -1.0, "b": 1.0}
    e1 = ref.reference_energy(well, 1, None)
    k, kap = math.sqrt(2.0 * (e1 + 10.0)), math.sqrt(-2.0 * e1)
    assert k * math.tan(k) == pytest.approx(kap, rel=1e-10)
    # delta + step holds one level whatever n asks for
    hybrid = {"kind": "hybrid_delta_step", "g": 1.0, "step_height": -0.3, "a": 2.0}
    assert ref.reference_energy(hybrid, 2, None) is None


def test_gauss_legendre_phi_matches_the_single_delta_closed_form():
    k0 = 1.0
    p = np.array([0.0, 1.0, 3.0, 10.0])
    phi = ref.phi_gauss(lambda x: math.sqrt(k0) * np.exp(-k0 * np.abs(x)),
                        (-42.0, 42.0), (0.0,), math.inf, p)
    closed = math.sqrt(2.0 / math.pi) * k0 ** 1.5 / (p ** 2 + k0 ** 2)
    assert ref.phi_matches(phi, closed)
