"""Every CLI output over the benchmark's decks, recorded, and two records compared.

Records: the distinct (config, n, parity, grid) entries of the ``tail_scan``,
``verify_sweep`` and ``solve_sweep`` decks of seeds 1-4
(``perfbench/workloads.make_deck``; 1,115 of them) each run through
``solve``, ``transform``, ``predict`` and ``verify`` in-process with click's
test runner, plus ``figure 1`` and ``figure 2`` for the entries the decks tag
as figures. An entry without a grid takes the CLI's default; a log grid of
a whole number of points per decade is passed as one, any other grid runs
on the default too. Each run's exit code goes into ``runs.json`` and the
files it writes into one folder per entry. Nothing under ``perfbench/`` is
changed. Run from the repository root, with ``momtail`` taken from the
checkout under test::

    PYTHONPATH=src python tests/deck_outputs.py --out DIR

``--compare A B`` prints the exit codes that differ between two records;
per file name, how many files are byte-identical; per potential kind, how
many ``transform.csv`` files moved and the largest |delta phi| / max|phi|,
and the largest relative move of ``verify.json``'s ``max_rel_deviation``;
every report whose ``max_rel_deviation`` moved by more than 1e-12,
relative, or whose verdict, ``p_scale`` or window changed::

    python tests/deck_outputs.py --compare A B

pytest does not collect it.
"""

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

COMMANDS = {"solve": "solve.json", "transform": "transform.csv", "predict": "predict.csv",
            "verify": "verify.json"}
WORKLOADS, SEEDS = ("tail_scan", "verify_sweep", "solve_sweep"), (1, 2, 3, 4)
REPORT_TOL = 1e-12


def _run_config(entry: dict) -> dict:
    """The CLI config of a deck entry."""
    cfg = {"potential": entry["config"], "n": entry["n"]}
    if entry["parity"] is not None:
        cfg["parity"] = entry["parity"]
    grid = entry["grid"]
    if isinstance(grid, (list, tuple)):
        kind, lo, hi, count = grid
        if kind == "linear":
            cfg["grid"] = {"kind": "linear", "min": lo, "max": hi, "count": count}
        else:
            per_decade = (count - 1) / math.log10(hi / lo)
            if per_decade == round(per_decade):
                cfg["grid"] = {"kind": "log", "min": lo, "max": hi,
                               "per_decade": round(per_decade)}
    return cfg


def _entries() -> list[dict]:
    from workloads import make_deck
    distinct = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for e in make_deck(workload, seed):
                key = json.dumps([e["config"], e["n"], e["parity"], e["grid"]], sort_keys=True)
                distinct.setdefault(key, e)
    return list(distinct.values())


def record(out: Path) -> None:
    import momtail
    from momtail.cli import main
    runner, runs, figures = CliRunner(), [], set()
    for i, entry in enumerate(_entries()):
        folder = out / f"{i:04d}"
        folder.mkdir(parents=True)
        cfg = folder / "config.json"
        cfg.write_text(json.dumps(_run_config(entry)))
        codes = {}
        for command in COMMANDS:
            codes[command] = runner.invoke(
                main, [command, "--config", str(cfg), "--out", str(folder)]).exit_code
        runs.append({"folder": folder.name, "kind": entry["config"]["kind"], "codes": codes})
        if entry["tag"].startswith("figure"):
            figures.add(entry["tag"].split()[1])
    for number in sorted(figures):
        folder = out / f"figure{number}"
        folder.mkdir()
        code = runner.invoke(main, ["figure", number, "--out", str(folder)]).exit_code
        runs.append({"folder": folder.name, "kind": "figure", "codes": {f"figure {number}": code}})
    (out / "runs.json").write_text(json.dumps({"momtail": momtail.__file__, "runs": runs},
                                              indent=1))
    print(f"recorded {len(runs)} runs of {momtail.__file__} in {out}")


def _phi(path: Path) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1] + 1j * table[:, 2]


def compare(a: Path, b: Path) -> None:
    runs_a, runs_b = (json.loads((d / "runs.json").read_text())["runs"] for d in (a, b))
    if [r["folder"] for r in runs_a] != [r["folder"] for r in runs_b]:
        sys.exit("the two records hold different entries")
    moved_codes = [(ra["folder"], command, code, rb["codes"].get(command))
                   for ra, rb in zip(runs_a, runs_b) for command, code in ra["codes"].items()
                   if rb["codes"].get(command) != code]
    print(f"{len(moved_codes)} exit codes differ")
    for folder, command, code_a, code_b in moved_codes:
        print(f"  {folder} {command}: {code_a} -> {code_b}")

    same, total = defaultdict(int), defaultdict(int)
    phi_moves = defaultdict(lambda: [0, 0, 0.0])        # kind -> moved, files, largest
    dev_moves = defaultdict(float)
    reports, dev_moved, dev_total = [], 0, 0
    for run in runs_a:
        for path_a in sorted((a / run["folder"]).iterdir()):
            path_b = b / run["folder"] / path_a.name
            if path_a.name == "config.json" or not path_b.exists():
                continue
            identical = path_a.read_bytes() == path_b.read_bytes()
            total[path_a.name] += 1
            same[path_a.name] += identical
            if path_a.name == "transform.csv":
                phi_a, phi_b = _phi(path_a), _phi(path_b)
                move = float(np.max(np.abs(phi_b - phi_a)) / np.max(np.abs(phi_a)))
                counts = phi_moves[run["kind"]]
                counts[0] += not identical
                counts[1] += 1
                counts[2] = max(counts[2], move)
            elif path_a.name == "verify.json":
                ja, jb = (json.loads(p.read_text()) for p in (path_a, path_b))
                dev_a = ja["comparison"]["max_rel_deviation"]
                dev_b = jb["comparison"]["max_rel_deviation"]
                move = abs(dev_b - dev_a) / abs(dev_a) if dev_a else float(dev_b != dev_a)
                dev_moves[run["kind"]] = max(dev_moves[run["kind"]], move)
                dev_moved += move > 0.0
                dev_total += 1
                fields_a, fields_b = ({"pass": j["pass"], "p_scale": j["p_scale"],
                                       "window": j["comparison"]["window"]} for j in (ja, jb))
                changed = [key for key in fields_a if fields_a[key] != fields_b[key]]
                if move > REPORT_TOL or changed:
                    reports.append((run["folder"], run["kind"], ja["n"], dev_a, dev_b, move,
                                    changed))
    print("byte-identical files, per name:")
    for name in sorted(total):
        print(f"  {name:14s} {same[name]} of {total[name]}")
    print("transform.csv per kind: moved of files, largest |delta phi| / max|phi|;"
          " verify.json: largest relative move of max_rel_deviation")
    for kind in sorted(set(phi_moves) | set(dev_moves)):
        moved, files, largest = phi_moves.get(kind, (0, 0, 0.0))
        print(f"  {kind:18s} {moved:4d} of {files:4d}  {largest:9.2e}   {dev_moves[kind]:9.2e}")
    print(f"max_rel_deviation moved in {dev_moved} of {dev_total} verify reports; "
          f"{len(reports)} moved by more than {REPORT_TOL:g} or changed a field")
    for folder, kind, n, dev_a, dev_b, move, changed in reports:
        print(f"  {folder} {kind} n={n}: {dev_a!r} -> {dev_b!r} ({move:.2e})"
              + (f", changed {', '.join(changed)}" if changed else ""))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="record into this new folder")
    group.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    if args.out:
        record(args.out)
    else:
        compare(*args.compare)
