"""A census of the CLI's failures: random configs through every config command.

Draws 3,000 configs from ``random.Random(30)``, kinds uniform over all 8, with
parameters across hundreds of decades, and runs each through ``solve``,
``transform``, ``predict`` and ``verify`` in-process with click's test
runner. A command may exit 0, 1 or 2; any other ending is an exception the
CLI does not report, which a user sees as a traceback. Prints each such site,
as (command, error, file:line) with its count, and the total. For each
command it also prints the count of each exit code, the five most common
exit-2 reports (the first ``PREFIX`` characters of the run's last line of
output, which follows any warning printed first), and how many of the files
it wrote hold a NaN or an infinity, which no JSON reader takes.

Exit codes cannot show a silent wrong energy, so each config is also solved
(``eigensolve.solve``) with every length scaled by L = 2^20 and by 2^-20:
positions and the box length times L, delta strengths over L, step heights
and depths over L^2, forces over L^3, at the same mass and hbar. Level n
must come back as E / L^2; a power of two keeps the scaled potential exact
in floats. Prints the number of levels off by more than 1e-12, relative, and
the worst configs. A scale the solve refuses is no wrong answer and is not
counted. Run from the repository root::

    PYTHONPATH=src python tests/cli_census.py [count]

pytest does not collect it: warnings stay at Python's defaults, not the
suite's ``error::RuntimeWarning``.
"""

import csv
import json
import math
import random
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

from click.testing import CliRunner

from momtail import eigensolve, potentials
from momtail.cli import main

# each config command -> the file it writes
COMMANDS = {"solve": "solve.json", "transform": "transform.csv", "predict": "predict.csv",
            "verify": "verify.json"}
SEED, COUNT = 30, 3000
SCALES, SCALE_TOL, WORST = (2.0 ** 20, 2.0 ** -20), 1e-12, 8
PREFIX, TOP = 56, 5


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


def _scaled(potential: dict, L: float) -> dict:
    """``potential`` with every length times L, so that its levels are E / L^2."""
    d = dict(potential)
    kind = d["kind"]
    if kind == "delta_sum":
        d["deltas"] = [[g / L, x * L] for g, x in d["deltas"]]
    elif kind == "infinite_well":
        d["length"] *= L
    elif kind == "finite_well":
        d.update(depth=d["depth"] / L ** 2, a=d["a"] * L, b=d["b"] * L)
    elif kind == "step_sum":
        d["steps"] = [[x * L, h / L ** 2] for x, h in d["steps"]]
    elif kind == "hybrid_delta_step":
        d.update(g=d["g"] / L, step_height=d["step_height"] / L ** 2, a=d["a"] * L)
    elif kind == "asymmetric_linear":
        d.update(force_right=d["force_right"] / L ** 3, force_left=d["force_left"] / L ** 3)
    else:
        d["force"] /= L ** 3
    return d


def _energy(potential: dict, config: dict):
    """Level n of ``potential`` at the config's n and parity, or None where refused."""
    try:
        return eigensolve.solve(potentials.from_dict(potential), config["n"],
                                config["parity"]).energy
    except Exception:
        return None


def covariance_misses(config: dict) -> list:
    """(relative miss, L) for each scale L whose level is not E / L^2 within SCALE_TOL."""
    energy = _energy(config["potential"], config)
    misses = []
    for L in SCALES if energy else ():
        scaled = _energy(_scaled(config["potential"], L), config)
        if scaled is not None:
            miss = abs(scaled * L * L - energy) / abs(energy)
            if not miss <= SCALE_TOL:
                misses.append((miss, L))
    return misses


def _not_finite(path: Path) -> bool:
    """``path`` holds a NaN or an infinity: a JSON constant or a CSV field."""
    text = path.read_text()
    if path.suffix == ".json":
        found = []
        json.loads(text, parse_constant=found.append)
        return bool(found)
    return not all(math.isfinite(float(v)) for row in list(csv.reader(text.splitlines()))[1:]
                   for v in row)


def census(count: int = COUNT) -> tuple[Counter, list, Counter, Counter, Counter]:
    """(command, error, file:line) -> runs that ended in that unreported exception;
    (relative miss, L, config) for each level that does not scale as E / L^2;
    (command, exit code) -> runs; (command, exit-2 report start) -> runs; and
    command -> the files it wrote that hold a NaN or an infinity."""
    rng = random.Random(SEED)
    runner = CliRunner()
    sites, misses, exits, reports, not_finite = Counter(), [], Counter(), Counter(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        for _ in range(count):
            config = _config(rng)
            misses += [(miss, L, config) for miss, L in covariance_misses(config)]
            cfg.write_text(json.dumps(config))
            for command, written in COMMANDS.items():
                out = Path(tmp) / written
                out.unlink(missing_ok=True)
                res = runner.invoke(main, [command, "--config", str(cfg), "--out", tmp])
                if res.exception is None or isinstance(res.exception, SystemExit):
                    exits[command, res.exit_code] += 1
                    if res.exit_code == 2:
                        reports[command, res.output.rstrip("\n").rsplit("\n", 1)[-1][:PREFIX]] += 1
                    not_finite[command] += out.exists() and _not_finite(out)
                    continue
                frame = traceback.extract_tb(res.exc_info[2])[-1]
                sites[command, type(res.exception).__name__,
                      f"{Path(frame.filename).name}:{frame.lineno}"] += 1
    return sites, misses, exits, reports, not_finite


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else COUNT
    sites, misses, exits, reports, not_finite = census(count)
    for (command, error, where), runs in sorted(sites.items()):
        print(f"{command:9s} {error:20s} {where:24s} {runs}")
    print(f"{sum(sites.values())} of {count * len(COMMANDS)} runs ended in a traceback, "
          f"at {len(sites)} sites")
    for command in COMMANDS:
        codes = ", ".join(f"{code}: {exits[command, code]}" for code in (0, 1, 2))
        print(f"{command:9s} exits {codes}; {not_finite[command]} written files "
              f"hold NaN or Infinity")
        ours = Counter({report: runs for (c, report), runs in reports.items() if c == command})
        for report, runs in ours.most_common(TOP):
            print(f"  {runs:5d}  {report}")
    for miss, L, config in sorted(misses, key=lambda m: -m[0])[:WORST]:
        print(f"L = 2^{round(math.log2(L)):+d} {miss:9.2e} {json.dumps(config)}")
    print(f"{len(misses)} of {count * len(SCALES)} scaled solves missed E / L^2 by more "
          f"than {SCALE_TOL:g}, relative")
