"""One fresh process's set-up: import the CLI, solve one Airy state, report.

The first solve builds specfun's lazy Airy ladders on both sides of zero,
so the time to "ready" is what a user pays before the first result.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import momtail.cli  # noqa: E402,F401
from momtail import eigensolve, potentials  # noqa: E402

eigensolve.solve(potentials.AsymmetricLinear(force_right=1.0, force_left=0.5), 1)
print("ready", flush=True)
