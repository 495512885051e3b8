"""In-memory spans around momtail's public functions, for the traced run.

``Tracer.install`` replaces the public functions of each module with
wrappers that open a span, and ``uninstall`` puts the originals back, so an
untraced job runs the program exactly as shipped. Callers inside momtail
reach each other through module attributes (``eig.solve``, ``mom.FilonPanels``
...), so the wrappers see those calls too. Code that bound a function at
import time (``eigensolve._ai`` holds ``specfun.airy_ai`` inside
``np.vectorize``) is not seen: its cost lands in the caller's self time.

A span's self time is its duration minus its children's. Every job runs
under a root span, whose self time is the time no layer claims, so the
self times of all layers plus that unattributed time add up to the job's
wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from momtail import (asymptotics, eigensolve, momentum, potentials, specfun,
                     tailfit)
from momtail.errors import NoBoundState, NoSuchState

LAYERS = ("potentials", "eigensolve", "specfun", "momentum", "asymptotics",
          "tailfit", "cli")

# module -> public functions wrapped with a span named "<layer>.<function>"
_TARGETS = (
    (potentials, "potentials", ("discontinuities", "evaluate", "to_dict",
                                "from_dict", "to_json", "from_json")),
    (eigensolve, "eigensolve", ("solve", "shooting_oracle")),
    (specfun, "specfun", ("airy_ai", "airy_ai_prime", "airy_zero",
                          "airy_prime_zero")),
    (momentum, "momentum", ("phi_quadrature", "phi_closed_delta",
                            "phi_closed_well", "moment", "parseval_norm",
                            "classical_momentum_density")),
    (asymptotics, "asymptotics", ("predict_tail", "expansion_terms")),
    (tailfit, "tailfit", ("compare", "fit_power_law")),
)
# scalar Airy calls run thousands of times per solve: timed and counted,
# but not kept as individual spans
_UNKEPT = ("specfun",)


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    if last == "ns_per_panel_point":
        return "ns"
    if last in ("share", "accept_ratio", "overhead_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Spans of the traced jobs of one run, with per-name and per-layer totals."""

    def __init__(self):
        self.spans: list[tuple] = []     # (job, span, parent, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.refused = 0
        self.job_wall = 0.0
        self._stack: list[list] = []     # [span id, name, start, child time]
        self._next_id = 0
        self._job = -1
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def leave(self) -> float:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        layer = name.split(".", 1)[0]
        self.self_time[layer] += dur - child
        if parent is None or parent[1].split(".", 1)[0] != layer:
            self.layer_busy[layer] += dur    # outermost span of its layer
        self.calls[name] += 1
        self.busy[name] += dur
        if layer not in _UNKEPT:
            self.spans.append((self._job, sid, parent[0] if parent else 0,
                               name, start, end))
        return dur

    def run_job(self, fn, *args):
        """Run one job under a root span with the wrappers installed."""
        self._job += 1
        self.install()
        self.enter("job")
        try:
            return fn(*args)
        finally:
            self.job_wall += self.leave()
            self.uninstall()

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            except (NoSuchState, NoBoundState):
                if name == "eigensolve.solve":
                    tracer.refused += 1
                raise
            finally:
                tracer.leave()
        return traced

    def _panels_class(self, base):
        tracer = self

        class TracedPanels(base):
            def __init__(self, state, *args, **kwargs):
                psi = state.psi

                def counted_psi(x):
                    return tracer.span("eigensolve.psi", psi, x)

                state.psi = counted_psi
                tracer.enter("momentum.build")
                try:
                    super().__init__(state, *args, **kwargs)
                finally:
                    tracer.leave()
                    state.psi = psi
                tracer.counts["build.panels"] += len(self.centers)
                tracer.counts["build.halfwidths"] += np.unique(self.halfwidths).size

            def transform(self, p, hbar=1.0):
                size = np.asarray(p).size
                tracer.counts["transform.points"] += size
                tracer.counts["transform.panel_points"] += size * len(self.centers)
                return tracer.span("momentum.transform", super().transform, p, hbar)

        return TracedPanels

    def install(self) -> None:
        self._saved = []
        for module, layer, names in _TARGETS:
            for fname in names:
                fn = getattr(module, fname)
                self._saved.append((module, fname, fn))
                setattr(module, fname, self._wrap(f"{layer}.{fname}", fn))
        base = momentum.FilonPanels
        self._saved.append((momentum, "FilonPanels", base))
        momentum.FilonPanels = self._panels_class(base)

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._saved):
            setattr(module, fname, fn)
        self._saved = []

    # -- results -----------------------------------------------------------

    def metrics(self, untraced_s: float, traced_s: float,
                scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced jobs: name -> (value, unit), with
        every time multiplied by the host-speed ``scale``."""
        calls, busy = self.calls, self.busy
        build_calls = calls["momentum.build"]
        panel_points = self.counts["transform.panel_points"]
        psi_calls = calls["eigensolve.psi"]
        solve_ms = [1e3 * (end - start) for (_, _, _, name, start, end)
                    in self.spans if name == "eigensolve.solve"]
        layer_calls = defaultdict(int)
        for name, count in calls.items():
            layer_calls[name.split(".", 1)[0]] += count
        out = {
            "momentum.transform.calls": calls["momentum.transform"],
            "momentum.transform.busy_s": busy["momentum.transform"],
            "momentum.transform.points": self.counts["transform.points"],
            "momentum.transform.panel_points": panel_points,
            "momentum.transform.ns_per_panel_point":
                1e9 * busy["momentum.transform"] / panel_points if panel_points else 0.0,
            "momentum.transform.share":
                busy["momentum.transform"] / self.job_wall if self.job_wall else 0.0,
            "momentum.build.calls": build_calls,
            "momentum.build.busy_s": busy["momentum.build"],
            "momentum.build.panels": self.counts["build.panels"] / build_calls if build_calls else 0.0,
            "momentum.build.halfwidths":
                self.counts["build.halfwidths"] / build_calls if build_calls else 0.0,
            "momentum.build.psi_calls": psi_calls / build_calls if build_calls else 0.0,
            "momentum.build.psi_s": busy["eigensolve.psi"],
            "momentum.build.accept_ratio":
                self.counts["build.panels"] / psi_calls if psi_calls else 0.0,
            "eigensolve.solve.calls": calls["eigensolve.solve"],
            "eigensolve.solve.busy_s": busy["eigensolve.solve"],
            "eigensolve.solve.p50_ms": float(np.percentile(solve_ms, 50)) if solve_ms else 0.0,
            "eigensolve.solve.p90_ms": float(np.percentile(solve_ms, 90)) if solve_ms else 0.0,
            "eigensolve.solve.refused": self.refused,
            "cli.calls": calls["cli.main"],
            "cli.busy_s": busy["cli.main"],
            "asymptotics.predict_tail.calls": calls["asymptotics.predict_tail"],
            "asymptotics.predict_tail.busy_s": busy["asymptotics.predict_tail"],
            "tailfit.compare.calls": calls["tailfit.compare"],
            "tailfit.compare.busy_s": busy["tailfit.compare"],
            "potentials.calls": layer_calls["potentials"],
            "potentials.busy_s": self.layer_busy["potentials"],
            "specfun.calls": layer_calls["specfun"],
            "specfun.busy_s": self.layer_busy["specfun"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        out["trace.unattributed_s"] = self.self_time["job"]
        out["trace.job_s"] = self.job_wall
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
        units = {name: _unit(name) for name in out}
        return {name: (float(value) * (scale if units[name] in ("s", "ms", "ns") else 1.0),
                       units[name]) for name, value in out.items()}

    def closure_error(self) -> float:
        """|sum of self times (layers and unattributed) - traced job wall time|."""
        return abs(sum(self.self_time.values()) - self.job_wall)

    def write(self, path) -> None:
        """Write the kept spans as JSON: one [job, span, parent, name, start, end] each."""
        with open(path, "w") as fh:
            json.dump({"fields": ["job", "span", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
