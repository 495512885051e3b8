"""momtail benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload tail_scan --seed 1 --seconds 25 --trace 0

Run from the root of a momtail checkout; the program is imported from
``src/``. The workload's inputs are generated from the seed, every job's
output is checked against an independent reference (outside the timed
region), and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from
a traced run, whose spans are written to ``.perfbench_out/``.

Jobs run one at a time in this process, with no threads; MOMTAIL_THREADS is
removed from the environment so the default code path is measured. All
timing is in-process wall time (time.perf_counter): there is no
system-wide tracing and no cache dropping.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5      # fresh processes timed per run; setup_s is their median


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click", "mpmath")},
        "MOMTAIL_THREADS": os.environ.get("MOMTAIL_THREADS", "unset"),
        "timing": "in-process perf_counter only; no system-wide tracing, no cache dropping",
    }


def measure_setup(runs: int) -> float:
    """Median seconds from spawning a fresh interpreter to its first result."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def run_loop(workloads, workload, deck, prepare, speed, seconds, tracer=None):
    """Deal the deck until ``seconds`` of job time are used and the current
    block is complete, preparing each entry's references (untimed) the first
    time it is dealt. Whole blocks keep a run's mix of jobs the same
    wherever its time runs out.

    Returns per-job records (seconds, points, failure or None) and, when
    traced, the summed untraced and traced job times of the paired runs.
    """
    run, check = workloads.RUNNERS[workload]
    block = len(deck) // workloads.BLOCKS[workload]
    records, used, i = [], 0.0, 0
    paired = [0.0, 0.0]
    while used < seconds or i % block:
        e = deck[i % len(deck)]
        prepare(e)
        sides = (False, True) if i % 2 == 0 else (True, False)
        for traced in (sides if tracer else (False,)):
            if workload == "verify_sweep":
                workloads.clear_outputs(e)
            start = time.perf_counter()
            if traced:
                out, points = tracer.run_job(run, e, tracer.span)
            else:
                out, points = run(e)
            dt = time.perf_counter() - start
            used += dt
            if tracer:
                paired[traced] += dt
            speed.after_job(dt)
            records.append((dt, points, check(e, out)))
        i += 1
    return records, paired


def end_to_end(records, setup_s, job_scales, setup_scale) -> dict:
    """End-to-end metrics, with each job's time multiplied by its host-speed
    scale and the set-up time by the run's."""
    times = [scale * r[0] for scale, r in zip(job_scales, records)]
    busy = sum(times)
    failed = sum(r[2] is not None for r in records)
    return {
        "setup_s": (setup_scale * setup_s, "s"),
        "jobs_per_s": (len(times) / busy, "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "phi_points_per_s": (sum(r[1] for r in records) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - failed / len(records), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "momtail" / "__init__.py").is_file():
        print(f"perfbench: no momtail sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("MOMTAIL_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import calibrate
    speed = calibrate.HostSpeed()
    setup_s = None if args.trace else measure_setup(SETUP_RUNS)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        deck = workloads.make_deck(args.workload, args.seed)
        prepare = workloads.Preparer(args.workload, work)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        records, paired = run_loop(workloads, args.workload, deck, prepare, speed,
                                   args.seconds, tracer)
        defects = workloads.probe_known_defects(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r[2] for r in records if r[2] is not None]
    unknown = sorted({reason for reason, known in failures if not known})
    correct = (not unknown and prepare.oracle_max_diff <= 1e-8
               and not any(o.startswith("failed") for o in defects.values()))
    info = {"machine": machine_facts(), "workload": args.workload, "seed": args.seed,
            "deck": len(deck), "oracle_checks": prepare.oracle_checks,
            "oracle_max_diff": prepare.oracle_max_diff,
            "failures": {reason: sum(1 for f in failures if f[0] == reason)
                         for reason in sorted({f[0] for f in failures})},
            "unknown_failures": unknown, "known_defects": defects,
            "host_scale": speed.scale,
            "host_probes": len(speed.samples)}
    if tracer:
        values = tracer.metrics(paired[False], paired[True], speed.scale)
        values["known_defects.present"] = (
            float(sum(o.startswith("known") for o in defects.values())), "count")
        correct = correct and tracer.closure_error() <= 1e-9 * max(tracer.job_wall, 1.0)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
    else:
        values = end_to_end(records, setup_s, speed.job_scales(), speed.scale)
        unscaled = end_to_end(records, setup_s, [1.0] * len(records), 1.0)
        info["unscaled"] = {name: v for name, (v, _) in unscaled.items()}
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
