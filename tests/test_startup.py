"""What a fresh ``momtail`` process imports: no kind and no command loads scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str):
    """Run ``code`` in a new interpreter with src/ on the path; return its last
    stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


SCIPY_LOADED = ("import json, sys; "
                "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")


def test_cli_import_loads_no_scipy_optimizer_integrator_or_interpolant():
    loaded = run_fresh("import momtail.cli\n" + SCIPY_LOADED)
    for package in ("scipy.optimize", "scipy.integrate", "scipy.interpolate"):
        assert not any(m == package or m.startswith(package + ".") for m in loaded), package


def test_box_and_delta_run_without_scipy():
    loaded = run_fresh("""
import numpy as np
import momtail.cli
from momtail import asymptotics, eigensolve, momentum, potentials
for spec in (potentials.InfiniteWell(length=1.0), potentials.DeltaSum(deltas=((1.0, 0.0),))):
    state = eigensolve.solve(spec, 1)
    momentum.phi_quadrature(state, np.linspace(-50.0, 50.0, 1001))
    momentum.FilonPanels(state).norm
    asymptotics.predict_tail(state, potentials.discontinuities(spec))
""" + SCIPY_LOADED)
    assert loaded == []


def test_every_kind_runs_without_scipy(tmp_path):
    # each of the 8 kinds solves, builds its panels, transforms on the CLI's
    # default grid and predicts its tail, and both figures run through the
    # CLI: the Airy kinds take the scalar and array paths of specfun.airy,
    # and no kind loads scipy
    loaded = run_fresh(f"""
import numpy as np
import momtail.cli
from momtail import asymptotics, eigensolve, momentum, potentials
for spec, n, parity in (
        (potentials.InfiniteWell(length=1.0), 1, None),
        (potentials.DeltaSum(deltas=((1.0, 0.0), (1.0, 3.0))), 1, None),
        (potentials.FiniteWell(depth=10.0, a=-1.0, b=1.0), 1, None),
        (potentials.StepSum(steps=((0.0, -5.0), (1.0, 2.0), (2.0, 3.0))), 1, None),
        (potentials.HybridDeltaStep(g=1.0, step_height=1.0, a=1.0), 1, None),
        (potentials.Bouncer(force=0.5), 3, None),
        (potentials.SymmetricLinear(force=0.5), 3, "even"),
        (potentials.SymmetricLinear(force=0.5), 3, "odd"),
        (potentials.AsymmetricLinear(force_right=0.5, force_left=2.0), 3, None)):
    state = eigensolve.solve(spec, n, parity)
    momentum.FilonPanels(state).norm
    momentum.phi_quadrature(state, np.linspace(-50.0, 50.0, 1001))
    prediction = asymptotics.predict_tail(state, potentials.discontinuities(spec))
    prediction.series(np.geomspace(10.0, 1000.0, 81))
for number in ("1", "2"):
    momtail.cli.main.main(["figure", number, "--out", {str(tmp_path)!r}], standalone_mode=False)
""" + SCIPY_LOADED)
    assert loaded == []
    assert {path.name for path in tmp_path.iterdir()} == {"figure1.csv", "figure2.csv"}


def test_shooting_oracle_survives_a_patch_round_trip():
    # perfbench/tracing.py wraps eigensolve.shooting_oracle by getattr and
    # setattr, and puts the original back the same way
    names = run_fresh("""
import json, sys
from momtail import eigensolve
imported_early = "momtail.oracle" in sys.modules
original = getattr(eigensolve, "shooting_oracle")
setattr(eigensolve, "shooting_oracle", lambda *args: None)
patched = eigensolve.shooting_oracle
setattr(eigensolve, "shooting_oracle", original)
from momtail.oracle import shooting_oracle
print(json.dumps([imported_early, original is shooting_oracle, patched is not original,
                  eigensolve.shooting_oracle is original]))
""")
    assert names == [False, True, True, True]
