"""Command-line driver: solve -> transform -> predict -> verify, plus figure data.

Configs are JSON, data files are CSV with 17-significant-digit formatting, and
reports are JSON with sorted keys; identical inputs produce byte-identical
outputs. ``solve`` reports ``norm_check``, the integral of psi^2 by the
adaptive Gauss-Legendre rule ``momentum.norm_check`` on psi samples alone, and
``norm_check_error``, that rule's summed 16-versus-32-node gap. Exit codes:
0 success, 1 verification or quadrature failure (``transform`` and ``verify``
when the Filon panels cannot resolve psi, ``solve`` when the norm check
cannot), 2 usage/config errors.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import asymptotics as asy
from . import eigensolve as eig
from . import momentum as mom
from . import potentials as pot
from . import tailfit
from .errors import (DivergentMoment, NoBoundState, NoSuchState,
                     QuadratureBudgetExceeded)

_FIT_LO_MULT = 10.0     # verification fit window starts at 10 * p_scale
_FIT_HI = 1e3
_EXPONENT_TOL = 0.1
_ENVELOPE_TOL = 0.05


@dataclass
class RunConfig:
    """One CLI run: a potential, a state selector, and a p-grid policy."""
    spec: pot.PotentialSpec
    n: int = 1
    parity: str | None = None
    grid_policy: dict = field(default_factory=lambda: {
        "kind": "linear", "min": -50.0, "max": 50.0, "count": 1001})

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if "potential" not in raw:
            raise ValueError("config must contain a 'potential' object")
        cfg = cls(spec=pot.from_dict(raw["potential"]))
        if "n" in raw:
            cfg.n = int(raw["n"])
        if "parity" in raw:
            cfg.parity = raw["parity"]
        if "grid" in raw:
            cfg.grid_policy = dict(raw["grid"])
        _validate_grid_policy(cfg.grid_policy)
        return cfg

    def grid(self) -> np.ndarray:
        return _build_grid(self.grid_policy)


def _validate_grid_policy(policy: dict) -> None:
    kind = policy.get("kind")
    if kind == "linear":
        if int(policy["count"]) < 2:
            raise ValueError("linear grid needs count >= 2")
        if not policy["min"] < policy["max"]:
            raise ValueError("grid needs min < max")
    elif kind == "log":
        if not 0 < policy["min"] < policy["max"]:
            raise ValueError("log grid needs 0 < min < max")
        if policy.get("per_decade", 40) < 1:
            raise ValueError("log grid needs per_decade >= 1")
    else:
        raise ValueError(f"unknown grid kind {kind!r}")


def _build_grid(policy: dict) -> np.ndarray:
    if policy["kind"] == "linear":
        return np.linspace(float(policy["min"]), float(policy["max"]),
                           int(policy["count"]))
    decades = math.log10(policy["max"] / policy["min"])
    count = max(2, int(math.ceil(decades * policy.get("per_decade", 40))) + 1)
    return np.geomspace(float(policy["min"]), float(policy["max"]), count)


def _parse_grid_flag(text: str) -> dict:
    """--grid linear:min:max:count or log:min:max:per_decade."""
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("linear", "log"):
        raise ValueError("grid spec must be linear:min:max:count or "
                         "log:min:max:per_decade")
    kind, a, b, c = parts
    if kind == "linear":
        return {"kind": "linear", "min": float(a), "max": float(b), "count": int(c)}
    return {"kind": "log", "min": float(a), "max": float(b), "per_decade": int(c)}


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    """click.echo to the current sys.stdout, or sys.stderr.

    Left to pick the stream, click caches a wrapper per stream object, and
    for a text stream the wrapper is the stream itself, so its weak-keyed
    cache never lets go: a process that runs the CLI in-process with a
    fresh stream per call (a test runner, a benchmark) would keep every
    call's stream and all the text written to it.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _state_report(cfg: RunConfig, state: eig.BoundState) -> dict:
    norm, norm_error = mom.norm_check(state)
    table = {}
    for a, side in state.derivative_table.items():
        table[f"{a:.17g}"] = {"value": side.value,
                              "left": list(side.left), "right": list(side.right)}
    return {"potential": pot.to_dict(cfg.spec), "n": state.n,
            "parity": state.parity, "energy": state.energy,
            "norm_check": norm, "norm_check_error": norm_error,
            "support": list(state.support),
            "derivative_table": table}


@click.group()
def main() -> None:
    """Bound states, momentum-space wavefunctions, and their power-law tails."""


def _load_config(config: str, grid: str | None, n: int | None,
                 parity: str | None) -> RunConfig:
    try:
        cfg = RunConfig.from_file(config)
        if grid is not None:
            cfg.grid_policy = _parse_grid_flag(grid)
            _validate_grid_policy(cfg.grid_policy)
        if n is not None:
            cfg.n = n
        if parity is not None:
            cfg.parity = parity
        return cfg
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _echo(f"config error: {exc}", err=True)
        sys.exit(2)


_shared = [
    click.option("--config", required=True, type=click.Path(), help="JSON run config"),
    click.option("--out", default=".", type=click.Path(), help="output directory"),
    click.option("--grid", default=None, help="override grid: linear:min:max:count "
                 "or log:min:max:per_decade"),
    click.option("--n", default=None, type=int, help="state index override"),
    click.option("--parity", default=None, type=click.Choice(["even", "odd"]),
                 help="parity override"),
]


def _with_shared(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


@main.command()
@_with_shared
def solve(config, out, grid, n, parity) -> None:
    """Solve the configured bound state and report energy + derivative table."""
    cfg = _load_config(config, grid, n, parity)
    try:
        state = eig.solve(cfg.spec, cfg.n, cfg.parity)
    except (NoSuchState, NoBoundState, ValueError) as exc:
        _echo(f"solve error: {exc}", err=True)
        sys.exit(2)
    try:
        report = _json_dumps(_state_report(cfg, state))
    except QuadratureBudgetExceeded as exc:
        _echo(f"quadrature error: {exc}", err=True)
        sys.exit(1)
    _write_text(Path(out) / "solve.json", report)
    _echo(report, nl=False)


@main.command()
@_with_shared
def transform(config, out, grid, n, parity) -> None:
    """Momentum-space wavefunction on the configured grid, as CSV."""
    cfg = _load_config(config, grid, n, parity)
    try:
        state = eig.solve(cfg.spec, cfg.n, cfg.parity)
    except (NoSuchState, NoBoundState, ValueError) as exc:
        _echo(f"solve error: {exc}", err=True)
        sys.exit(2)
    try:
        samples = mom.phi_quadrature(state, cfg.grid())
    except QuadratureBudgetExceeded as exc:
        _echo(f"quadrature error: {exc}", err=True)
        sys.exit(1)
    text = samples.to_csv()
    try:
        dens = mom.classical_momentum_density(cfg.spec, cfg.n, samples.grid,
                                              cfg.parity)
    except (NoSuchState, ValueError):
        dens = None
    if dens is not None:
        lines = text.splitlines()
        lines[0] += ",classical_density"
        for i, d in enumerate(dens):
            lines[i + 1] += f",{d:.17g}"
        text = "\n".join(lines) + "\n"
    path = Path(out) / "transform.csv"
    _write_text(path, text)
    _echo(f"wrote {path} ({samples.grid.size} samples, "
          f"provenance {samples.provenance})")


@main.command()
@_with_shared
def predict(config, out, grid, n, parity) -> None:
    """Predicted large-|p| expansion terms for the configured state."""
    cfg = _load_config(config, grid, n, parity)
    try:
        state = eig.solve(cfg.spec, cfg.n, cfg.parity)
        prediction = asy.predict_tail(state, pot.discontinuities(cfg.spec))
    except (NoSuchState, NoBoundState, ValueError) as exc:
        _echo(f"solve error: {exc}", err=True)
        sys.exit(2)
    path = Path(out) / "predict.csv"
    _write_text(path, asy.prediction_to_csv(prediction))
    _echo(asy.summary(prediction))
    _echo(f"wrote {path}")


@main.command()
@_with_shared
def verify(config, out, grid, n, parity) -> None:
    """Quadrature vs prediction: fit the tail and score the envelope; exit 1 on failure."""
    cfg = _load_config(config, grid, n, parity)
    try:
        state = eig.solve(cfg.spec, cfg.n, cfg.parity)
        prediction = asy.predict_tail(state, pot.discontinuities(cfg.spec))
    except (NoSuchState, NoBoundState, ValueError) as exc:
        _echo(f"solve error: {exc}", err=True)
        sys.exit(2)

    # momentum scale separating structure from tail: sqrt(2m|E - V_floor|)
    scale = math.sqrt(2.0 * state.mass * abs(state.energy - cfg.spec.v_floor))
    window = (_FIT_LO_MULT * scale, max(_FIT_HI, 20.0 * _FIT_LO_MULT * scale))
    count = max(2, int(math.ceil(math.log10(window[1] / window[0]) * 40)) + 1)
    tail_grid = np.geomspace(window[0], window[1], count)
    try:
        samples = mom.phi_quadrature(state, tail_grid)
    except QuadratureBudgetExceeded as exc:
        _echo(f"quadrature error: {exc}", err=True)
        sys.exit(1)

    comparison = tailfit.compare(prediction, samples, component="abs",
                                 window=window)
    env_ok = comparison.max_rel_deviation <= _ENVELOPE_TOL
    exp_ok = (comparison.exponent_deviation is None
              or abs(comparison.exponent_deviation) <= _EXPONENT_TOL)
    passed = env_ok and exp_ok
    report = {
        "potential": pot.to_dict(cfg.spec),
        "n": cfg.n, "parity": cfg.parity,
        "energy": state.energy,
        "p_scale": scale,
        "predicted_exponent": prediction.leading_exponent,
        "leading_terms": [{"location": t.location, "order": t.order,
                           "jump": t.jump, "coefficient_abs": abs(t.coefficient)}
                          for t in prediction.leading_terms()],
        "comparison": comparison.to_dict(),
        "checks": {"envelope_within_tolerance": env_ok,
                   "exponent_within_tolerance": exp_ok,
                   "envelope_tolerance": _ENVELOPE_TOL,
                   "exponent_tolerance": _EXPONENT_TOL},
        "pass": passed,
    }
    text = _json_dumps(report)
    _write_text(Path(out) / "verify.json", text)
    _echo(text, nl=False)
    if not passed:
        sys.exit(1)


@main.command()
@click.argument("number", type=click.Choice(["1", "2"]))
@click.option("--out", default=".", type=click.Path(), help="output directory")
def figure(number, out) -> None:
    """Plot-ready CSV data for the two reference figures."""
    if number == "1":
        spec = pot.Bouncer(force=0.5)    # rho = 1 units
        state = eig.solve(spec, 10)
        qn = math.sqrt(2.0 * spec.mass * state.energy)
        grid = np.linspace(-2.0 * qn, 2.0 * qn, 1201)
        samples = mom.phi_quadrature(state, grid)
        dens = mom.classical_momentum_density(spec, 10, grid)
        lines = ["p,abs_phi2,phi_re2,phi_im2,classical_density"]
        for p, a2, re, im, d in zip(grid, samples.abs_phi2, samples.phi_re,
                                    samples.phi_im, dens):
            lines.append(f"{p:.17g},{a2:.17g},{re * re:.17g},{im * im:.17g},{d:.17g}")
        path = Path(out) / "figure1.csv"
        _write_text(path, "\n".join(lines) + "\n")
    else:
        spec = pot.SymmetricLinear(force=0.5)
        even = eig.solve(spec, 11, parity="even")
        odd = eig.solve(spec, 11, parity="odd")
        grid = np.geomspace(1.0, 300.0, 241)
        s_even = mom.phi_quadrature(even, grid)
        s_odd = mom.phi_quadrature(odd, grid)
        pred_even = asy.predict_tail(even, pot.discontinuities(spec))
        pred_odd = asy.predict_tail(odd, pot.discontinuities(spec))
        tgt_even = float(pred_even.leading_envelope(np.array([1.0]))[0])
        tgt_odd = float(pred_odd.leading_envelope(np.array([1.0]))[0])
        lines = ["p,p4_abs_phi_even,p5_abs_phi_odd,even_asymptote,odd_asymptote"]
        for p, ae, ao in zip(grid, np.sqrt(s_even.abs_phi2), np.sqrt(s_odd.abs_phi2)):
            lines.append(f"{p:.17g},{p ** 4 * ae:.17g},{p ** 5 * ao:.17g},"
                         f"{tgt_even:.17g},{tgt_odd:.17g}")
        path = Path(out) / "figure2.csv"
        _write_text(path, "\n".join(lines) + "\n")
    _echo(f"wrote {path}")


if __name__ == "__main__":
    main()
