"""Command-line driver: solve -> transform -> predict -> verify, plus figure data.

A config is a JSON object: ``potential`` (``{"kind": ..., <its parameters>}``
with optional ``mass`` and ``hbar``, as ``potentials.from_dict`` reads it),
``n`` (an integer, default 1), ``parity`` ("even", "odd" or null) and
``grid``, the momenta of ``transform``: ``{"kind": "linear", "min", "max",
"count"}`` (default -50 to 50, 1001 points; a grid with min = -max is
mirrored about 0 to the bit) or ``{"kind": "log", "min", "max",
"per_decade"}`` (per_decade default 40). ``--n``, ``--parity`` and ``--grid``
override them; ``--grid`` (linear:min:max:count or log:min:max:per_decade)
is read as that object, each number an int where its text is a whole one.

Data files are CSV with 17-significant-digit formatting, and reports are JSON
with sorted keys; identical inputs produce byte-identical outputs. A report
holds no NaN or infinity, which JSON has no number for: such a value is a
``solve error`` that names the file and the key, and no file is written.
``solve`` reports ``norm_check`` and ``norm_check_error``: the integral of
psi^2 from the state's Filon panels and its truncation bound
(``momentum.FilonPanels``' ``norm`` and ``norm_error``), and the derivative
table of each break, orders 0..5 up to the last one that is a float.
``predict`` writes the terms of every order whose derivatives and
coefficients are floats (``asymptotics.expansion_terms``).

Exit codes: 0 success; 1 a failed verification or a quadrature failure
(the Filon panels cannot resolve psi); 2 a usage error, a ``config error``
(an unreadable config, a field it does not read or of the wrong type, grid
bounds that are not finite with min < max, a grid too large to allocate, a
potential parameter that is not finite, a mass or hbar <= 0, an output path
that cannot be written) or a ``solve error`` (a state, parity or prediction
the config cannot have, psi and psi' both zero at a break, jumps whose two
routes disagree, a failed root polish, a unit of the spec's image or an
image parameter that is no positive normal float, a solve whose arithmetic
overflows, a level whose energy in the user's units is no normal float, an
image's level whose decay rate is subnormal or whose V - E keeps no digit,
a leading order or a two-route order past the orders that are floats, a
report value that is NaN or infinite, or a verify momentum scale of 0 or
inf). One ordered map, ``_FAILURES``, decides each failure's report and code
around each whole command; an error it does not name is a bug, and propagates.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import asymptotics as asy
from . import eigensolve as eig
from . import momentum as mom
from . import potentials as pot
from . import tailfit
from .errors import (InconsistentJumps, NoConvergence, NoSuchState, QuadratureBudgetExceeded,
                     UnsupportedCase)

_FIT_LO_MULT = 10.0     # verification fit window starts at 10 * p_scale
_FIT_HI = 1e3
_EXPONENT_TOL = 0.1
_ENVELOPE_TOL = 0.05
_DEFAULT_GRID = {"kind": "linear", "min": -50.0, "max": 50.0, "count": 1001}
_CONFIG_FIELDS = {"potential", "n", "parity", "grid"}

# each failure a command reports: (its errors, report prefix, exit code); the first match wins
_FAILURES = (
    ((QuadratureBudgetExceeded,), "quadrature error", 1),
    ((OSError, MemoryError), "config error", 2),    # an unwritable output, a huge grid
    # NoSuchState and NoBoundState are ValueErrors; an extreme parameter can overflow
    ((NoConvergence, UnsupportedCase, InconsistentJumps, ValueError, ArithmeticError),
     "solve error", 2),
)
_CONFIG_FAILURES = (((OSError, KeyError, TypeError, ValueError, OverflowError, MemoryError),
                     "config error", 2),)    # reading a config and building its grid


@dataclass
class RunConfig:
    """One CLI run: a potential, a state selector and the momentum grid."""
    spec: pot.PotentialSpec
    n: int
    parity: str | None
    grid: partial    # checked on loading, built on call: solve and verify use no grid


@contextmanager
def _reporting(failures):
    """Report an error ``failures`` names in one line and exit with its code; else re-raise."""
    try:
        yield
    except Exception as exc:
        for types, prefix, code in failures:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                sys.exit(code)
        raise


def _linspace(lo: float, hi: float, count: int) -> np.ndarray:
    """``np.linspace(lo, hi, count)``; where lo = -hi, its lower half is the
    mirror of its upper half about an exact 0 (the centre of an odd count), so
    that p and -p are one |p| to the bit, as the transform's folding reads."""
    grid = np.linspace(lo, hi, count)
    if lo == -hi:
        half = count // 2
        grid[:half] = -grid[::-1][:half]
        grid[half:count - half] = 0.0
    return grid


def _grid(kind: str, lo: float, hi: float, count: int) -> partial:
    """The builder of a linear grid of ``count`` points from ``lo`` to ``hi``,
    or of a log grid of ``count`` points per decade."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("grid needs finite min < max")
    if kind == "linear":
        if type(count) is not int or count < 2:
            raise ValueError(f"linear grid needs an integer count >= 2, not {count!r}")
        if math.isinf(hi - lo):
            raise ValueError(f"linear grid from {lo!r} to {hi!r} spans more than a float "
                             f"holds (max - min overflows)")
        return partial(_linspace, float(lo), float(hi), count)
    if kind != "log":
        raise ValueError(f"unknown grid kind {kind!r}")
    if lo <= 0:
        raise ValueError("log grid needs 0 < min < max")
    if count < 1:
        raise ValueError("log grid needs per_decade >= 1")
    if math.isinf(hi / lo):
        raise ValueError(f"log grid from {lo!r} to {hi!r} spans more decades than a "
                         f"float ratio holds (max/min overflows)")
    points = max(2, int(math.ceil(math.log10(hi / lo) * count)) + 1)
    return partial(np.geomspace, float(lo), float(hi), points)


def _flag_number(text: str) -> int | float:
    """A number of the ``--grid`` flag: an int where the text is a whole one, else
    a float, as a config's JSON gives them."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _load_config(config: str, grid: str | None, n: int | None, parity: str | None) -> RunConfig:
    """The run the ``config`` file describes, with the flags' overrides.

    A ``--grid`` flag becomes the {kind, min, max, count | per_decade} object
    a config holds, and either is checked here, the same way."""
    with _reporting(_CONFIG_FAILURES):
        with open(config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or "potential" not in raw:
            raise ValueError("config must contain a 'potential' object")
        if set(raw) - _CONFIG_FIELDS:
            raise ValueError(f"unexpected config fields: {sorted(set(raw) - _CONFIG_FIELDS)}")
        spec = pot.from_dict(raw["potential"])
        n = raw.get("n", 1) if n is None else n
        parity = raw.get("parity") if parity is None else parity
        if type(n) is not int or parity not in (None, "even", "odd"):
            raise ValueError(f"n must be an integer and parity even, odd or null: got "
                             f"n = {n!r}, parity = {parity!r}")
        if grid is None:
            policy = dict(raw.get("grid", _DEFAULT_GRID))
        else:
            kind, *fields = grid.split(":")
            if len(fields) != 3:
                raise ValueError("--grid must be linear:min:max:count or log:min:max:per_decade")
            names = ("min", "max", "count" if kind == "linear" else "per_decade")
            policy = {"kind": kind, **dict(zip(names, map(_flag_number, fields)))}
        kind = policy.pop("kind", None)
        lo, hi = (pot._number(name, policy.pop(name)) for name in ("min", "max"))
        count = (policy.pop("count") if kind == "linear"
                 else pot._number("per_decade", policy.pop("per_decade", 40)))
        if policy:
            raise ValueError(f"unexpected grid fields: {sorted(policy)}")
        return RunConfig(spec, n, parity, _grid(kind, lo, hi, count))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path: Path, header: str, *columns) -> None:
    """One row per index of the ``columns``, each value to 17 significant digits."""
    rows = (",".join(f"{v:.17g}" for v in row) for row in zip(*columns))
    _write_text(path, "\n".join([header, *rows]) + "\n")


def _not_finite(value, key: str = ""):
    """(key, value) of the first float in ``value`` (nested dicts and lists)
    that is NaN or infinite, keys joined by dots; None if there is none."""
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else k, v) for k, v in sorted(value.items()))
    elif isinstance(value, list):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return None if not isinstance(value, float) or math.isfinite(value) else (key, value)
    return next(filter(None, (_not_finite(v, k) for k, v in items)), None)


def _write_report(path: Path, report: dict) -> None:
    """Write ``report`` as JSON with sorted keys, and print it. Raises
    ``ValueError`` naming the file and the key where a value is NaN or
    infinite, which JSON has no number for, and then writes nothing."""
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        key, value = _not_finite(report)
        raise ValueError(f"{path.name} would hold {key} = {value!r}, which JSON has no "
                         f"number for") from None
    _write_text(path, text)
    print(text, end="")


@click.group()
def main() -> None:
    """Bound states, momentum-space wavefunctions, and their power-law tails."""


def _config_command(fn):
    """Register ``fn(cfg, out)`` as a command of ``main`` on the shared options,
    called with the loaded RunConfig and the output directory."""
    @click.option("--config", required=True, type=click.Path(), help="JSON run config")
    @click.option("--out", default=".", type=click.Path(path_type=Path), help="output directory")
    @click.option("--grid", default=None, help="override grid: linear:min:max:count "
                  "or log:min:max:per_decade")
    @click.option("--n", default=None, type=int, help="state index override")
    @click.option("--parity", default=None, type=click.Choice(["even", "odd"]),
                  help="parity override")
    @_reporting(_FAILURES)
    def command(config, out, grid, n, parity):
        fn(_load_config(config, grid, n, parity), out)
    return main.command(fn.__name__, help=fn.__doc__)(command)


@_config_command
def solve(cfg: RunConfig, out: Path) -> None:
    """Solve the configured bound state and report energy + derivative table."""
    state = eig.solve(cfg.spec, cfg.n, cfg.parity)
    panels = mom.FilonPanels(state)
    table = {}
    for a, side in state.derivative_table.items():
        table[f"{a:.17g}"] = {"value": side.value,
                              "left": list(side.left), "right": list(side.right)}
    _write_report(out / "solve.json", {
        "potential": pot.to_dict(cfg.spec), "n": state.n,
        "parity": state.parity, "energy": state.energy,
        "norm_check": panels.norm, "norm_check_error": panels.norm_error,
        "support": list(state.support),
        "derivative_table": table})


@_config_command
def transform(cfg: RunConfig, out: Path) -> None:
    """Momentum-space wavefunction on the configured grid, as CSV."""
    with _reporting(_CONFIG_FAILURES):
        grid = cfg.grid()
    state = eig.solve(cfg.spec, cfg.n, cfg.parity)
    samples = mom.phi_quadrature(state, grid)
    header = "p,phi_re,phi_im,abs_phi2"
    columns = [samples.grid, samples.phi_re, samples.phi_im, samples.abs_phi2]
    try:
        columns.append(mom.classical_momentum_density(cfg.spec, cfg.n, samples.grid, cfg.parity))
        header += ",classical_density"
    except NoSuchState:
        pass
    path = out / "transform.csv"
    _write_csv(path, header, *columns)
    print(f"wrote {path} ({samples.grid.size} samples)")


@_config_command
def predict(cfg: RunConfig, out: Path) -> None:
    """Predicted large-|p| expansion terms for the configured state."""
    state = eig.solve(cfg.spec, cfg.n, cfg.parity)
    prediction = asy.predict_tail(state, pot.discontinuities(cfg.spec))
    rows = [(t.order, t.location, t.jump, t.coefficient.real, t.coefficient.imag)
            for t in sorted(prediction.terms, key=lambda t: (t.order, t.location))]
    path = out / "predict.csv"
    _write_csv(path, "order,location,jump,coefficient_re,coefficient_im", *zip(*rows))
    print(asy.summary(prediction))
    print(f"wrote {path}")


@_config_command
def verify(cfg: RunConfig, out: Path) -> None:
    """Quadrature vs prediction: fit the tail and score the envelope; exit 1 on failure."""
    state = eig.solve(cfg.spec, cfg.n, cfg.parity)
    prediction = asy.predict_tail(state, pot.discontinuities(cfg.spec))

    # momentum scale separating structure from tail: sqrt(2m|E - V_floor|)
    scale = state.momentum_scale(cfg.spec.image_floor)
    if not 0.0 < scale < math.inf:
        raise ArithmeticError(f"the momentum scale sqrt(2m|E - V_floor|) is {scale!r}: "
                              f"no tail window starts at a multiple of it")
    window = (_FIT_LO_MULT * scale, max(_FIT_HI, 20.0 * _FIT_LO_MULT * scale))
    samples = mom.phi_quadrature(state, _grid("log", *window, 40)())

    comparison = tailfit.compare(prediction, samples, window=window)
    env_ok = comparison.max_rel_deviation <= _ENVELOPE_TOL
    exp_ok = (comparison.exponent_deviation is None
              or abs(comparison.exponent_deviation) <= _EXPONENT_TOL)
    passed = env_ok and exp_ok
    _write_report(out / "verify.json", {
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
    })
    if not passed:
        sys.exit(1)


@main.command()
@click.argument("number", type=click.Choice(["1", "2"]))
@click.option("--out", default=".", type=click.Path(path_type=Path), help="output directory")
@_reporting(_FAILURES)
def figure(number, out) -> None:
    """Plot-ready CSV data for the two reference figures."""
    if number == "1":
        spec = pot.Bouncer(force=0.5)    # rho = 1 units
        state = eig.solve(spec, 10)
        qn = state.momentum_scale(0.0)
        grid = _linspace(-2.0 * qn, 2.0 * qn, 1201)
        samples = mom.phi_quadrature(state, grid)
        path = out / "figure1.csv"
        _write_csv(path, "p,abs_phi2,phi_re2,phi_im2,classical_density", grid,
                   samples.abs_phi2, samples.phi_re ** 2, samples.phi_im ** 2,
                   mom.classical_momentum_density(spec, 10, grid))
    else:
        spec = pot.SymmetricLinear(force=0.5)
        grid = np.geomspace(1.0, 300.0, 241)
        scaled, asymptotes = [], []
        for parity, power in (("even", 4), ("odd", 5)):
            state = eig.solve(spec, 11, parity=parity)
            abs_phi = np.sqrt(mom.phi_quadrature(state, grid).abs_phi2)
            # scalar powers: an array power may round differently
            scaled.append([p ** power * a for p, a in zip(grid, abs_phi)])
            prediction = asy.predict_tail(state, pot.discontinuities(spec))
            asymptotes.append(np.full(grid.size, prediction.leading_envelope(np.array([1.0]))[0]))
        path = out / "figure2.csv"
        _write_csv(path, "p,p4_abs_phi_even,p5_abs_phi_odd,even_asymptote,odd_asymptote",
                   grid, *scaled, *asymptotes)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
