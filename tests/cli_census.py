"""A census of the CLI's failures: random configs through every config command.

Draws 3,000 configs from ``random.Random(30)``, kinds uniform over all 8, with
parameters across hundreds of decades, and runs each through ``solve``,
``transform``, ``predict`` and ``verify`` in-process with click's test
runner. A command may exit 0, 1 or 2; any other ending is an exception the
CLI does not report, which a user sees as a traceback. Prints each such site,
as (command, error, file:line) with its count, and the total. Run from the
repository root::

    PYTHONPATH=src python tests/cli_census.py [count]

pytest does not collect it: warnings stay at Python's defaults, not the
suite's ``error::RuntimeWarning``.
"""

import json
import random
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

from click.testing import CliRunner

from momtail.cli import main

COMMANDS = ("solve", "transform", "predict", "verify")
SEED, COUNT = 30, 3000


def _config(rng: random.Random) -> dict:
    """One config: forces and box lengths 10^U(-150, 150); strengths, depths,
    widths and step heights 10^U(-20, 20); mass and hbar, each present with
    probability 1/2, 10^U(-150, 150); n from 1 to 3."""
    def wide():
        return 10.0 ** rng.uniform(-150, 150)

    def narrow():
        return 10.0 ** rng.uniform(-20, 20)

    kind = rng.choice(["delta_sum", "infinite_well", "finite_well", "step_sum",
                       "hybrid_delta_step", "bouncer", "symmetric_linear",
                       "asymmetric_linear"])
    parity = None
    if kind == "delta_sum":
        x = rng.uniform(-10, 10)
        deltas = []
        for _ in range(rng.randint(1, 3)):
            deltas.append([narrow(), x])
            x += narrow()
        potential = {"deltas": deltas}
    elif kind == "infinite_well":
        potential = {"length": wide()}
    elif kind == "finite_well":
        a = rng.uniform(-10, 10)
        potential = {"depth": narrow(), "a": a, "b": a + narrow()}
    elif kind == "step_sum":
        x = rng.uniform(-10, 10)
        steps = [[x, -narrow()]]
        for _ in range(rng.randint(1, 2)):
            x += narrow()
            steps.append([x, rng.choice([-1, 1]) * narrow()])
        potential = {"steps": steps}
    elif kind == "hybrid_delta_step":
        potential = {"g": narrow(), "step_height": rng.choice([-1, 1]) * narrow(),
                     "a": narrow()}
    elif kind == "asymmetric_linear":
        potential = {"force_right": wide(), "force_left": wide()}
    else:
        potential = {"force": wide()}
        if kind == "symmetric_linear":
            parity = rng.choice(["even", "odd"])
    for unit in ("mass", "hbar"):
        if rng.random() < 0.5:
            potential[unit] = wide()
    return {"potential": {"kind": kind, **potential}, "n": rng.randint(1, 3), "parity": parity}


def census(count: int = COUNT) -> Counter:
    """(command, error, file:line) -> runs that ended in that unreported exception."""
    rng = random.Random(SEED)
    runner = CliRunner()
    sites = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        for _ in range(count):
            cfg.write_text(json.dumps(_config(rng)))
            for command in COMMANDS:
                res = runner.invoke(main, [command, "--config", str(cfg), "--out", tmp])
                if res.exception is None or isinstance(res.exception, SystemExit):
                    continue
                frame = traceback.extract_tb(res.exc_info[2])[-1]
                sites[command, type(res.exception).__name__,
                      f"{Path(frame.filename).name}:{frame.lineno}"] += 1
    return sites


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else COUNT
    sites = census(count)
    for (command, error, where), runs in sorted(sites.items()):
        print(f"{command:9s} {error:20s} {where:24s} {runs}")
    print(f"{sum(sites.values())} of {count * len(COMMANDS)} runs ended in a traceback, "
          f"at {len(sites)} sites")
