"""What a fresh ``momtail`` process imports: only the scipy its run needs."""

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


def test_airy_kinds_solve_and_predict_with_scipy_special_alone():
    # a bouncer and an asymmetric linear solve, then the predicted tail, load
    # the scipy modules that importing scipy.special loads and no others
    loaded = run_fresh("""
import numpy as np
from momtail import asymptotics, eigensolve, potentials
for spec in (potentials.Bouncer(force=0.5),
             potentials.AsymmetricLinear(force_right=0.5, force_left=2.0)):
    state = eigensolve.solve(spec, 3)
    prediction = asymptotics.predict_tail(state, potentials.discontinuities(spec))
    prediction.series(np.geomspace(10.0, 1000.0, 81))
""" + SCIPY_LOADED)
    special = run_fresh("import scipy.special\n" + SCIPY_LOADED)
    assert "scipy.special" in loaded
    assert set(loaded) <= set(special)


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
