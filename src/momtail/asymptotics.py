"""Large-|p| expansion of the momentum-space wavefunction from discontinuity data.

Each non-smooth point a of psi contributes a series of terms

    T_n(p) = (-i)^n [psi^(n-1)(a+) - psi^(n-1)(a-)] e^{-ipa/hbar} (hbar/p)^n,

and phi(p) = (1/sqrt(2 pi hbar)) * sum_n T_n(p), summed over all locations.
Order-1 terms vanish identically because psi is continuous.

The terms are formed in the state's image (``potentials.Units``), where
hbar = 1, and carried to the user's units at the spec's own location a: the
coefficient times (hbar/L)^(n - 1/2) and the jump times L^-(n - 1/2). Two
independent routes give the lowest nonvanishing jump at each location. One
reads the image's derivative table, which the solver derives from its (psi,
psi'(a-), psi'(a+)) at each break and its ODE psi'' = (V - E) psi on each
piece (``eigensolve``). The other applies the jump condition psi^(k+2)(a+)
- psi^(k+2)(a-) = [V^(k)(a+) - V^(k)(a-)] psi(a) to the image of the spec's
ledger record, with the (k+1)-enhanced psi'(a) variant when psi(a) = 0.
``predict_tail`` cross-checks the two and refuses to emit a prediction when
they disagree. The lowest nonvanishing jump fixes the tail, so
``expansion_terms`` keeps each order whose terms are floats in the user's
units, and ``predict_tail`` refuses only where the tail lies past them. A
constant-V spec's pieces are read off the same ledger, but the table is
not: the solver builds it from ``matching`` and ``ode``, so the check still
catches a region's V or a cusp put at the wrong break, and it guards the
ODE from which ``momentum.FilonPanels`` expands psi.

``TailPrediction.series`` and ``leading_envelope`` sum the image's terms at
p' = pL/hbar by location and by order: the phase e^{-ip'a/L} is formed once
per location and the real power (1/p')^n once per order, and the sum of
phase x power x coefficient runs elementwise over p x locations x orders.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eigensolve import BoundState
from .errors import InconsistentJumps, UnsupportedCase
from .potentials import DiscontinuityRecord, Units, check_units

_REL_ZERO = 1e-9    # below this (relative to the one-sided values) a jump is "zero"
_JUMP_CHECK_TOL = 1e-8  # the two routes' jumps may differ by this share of the larger


class TailTerm(NamedTuple):
    """One term, ``coefficient`` e^{-ipa/hbar} p^-order at a = ``location``, and
    ``image``, its image's (-i)^order jump' / sqrt(2 pi) (0j for a zero jump')."""
    location: float
    order: int            # power of (hbar/p)
    jump: float
    coefficient: complex
    image: complex


@dataclass
class TailPrediction:
    """All expansion terms up to the expansion's depth, plus the leading-order
    envelope, and the ``units`` their sums are carried back by."""
    terms: list[TailTerm]
    leading_exponent: int
    units: Units

    def leading_terms(self) -> list[TailTerm]:
        return [t for t in self.terms if t.order == self.leading_exponent and t.image]

    def series(self, p, max_order: int | None = None):
        """Sum of all (or all up-to-max_order) term contributions at p."""
        top = math.inf if max_order is None else max_order
        return _sum_terms([t for t in self.terms if t.image and t.order <= top], p, self.units)

    def leading_envelope(self, p):
        """|sum of leading-order contributions|, phases included, vectorized."""
        return np.abs(_sum_terms(self.leading_terms(), p, self.units))


def _sum_terms(terms: list[TailTerm], p, units: Units):
    """Sum over the terms of image coefficient x e^{-ip'a/L} x p'^-order at each
    p' = p / ``units.momentum``, times sqrt(L/hbar), over an array of p x
    location x order. Where the least |p'|, s, is so small that (1/s)^order
    may overflow, each coefficient is divided by s^order, one factor at a
    time, and each power is (s/p')^order: no power overflows unless its term does."""
    p = np.asarray(p, dtype=float) / units.momentum
    if not terms:
        return np.zeros(p.shape, dtype=complex)
    locations = sorted({t.location for t in terms})
    orders = sorted({t.order for t in terms})
    s = float(np.abs(p).min(initial=1.0))
    s = s if 0.0 < s < 2.0 ** (-1000.0 / orders[-1]) else 1.0
    coef = np.zeros((len(locations), len(orders)), dtype=complex)
    for t in terms:
        coef[locations.index(t.location), orders.index(t.order)] += t.image
    for j, order in enumerate(orders if s < 1.0 else ()):
        for _ in range(order):
            coef[:, j] /= s
    phase = np.exp(-1j * np.multiply.outer(p, [a / units.length for a in locations]))
    powers = np.power.outer(s / p, orders)
    total = (phase[..., :, None] * powers[..., None, :] * coef).sum(axis=(-2, -1))
    return total * math.sqrt(1.0 / units.momentum)


_TURNS, _ROOT_2PI = [(-1j) ** n for n in range(8)], math.sqrt(2.0 * math.pi)   # (-i)^n


def _terms(location: float, jumps: list[float], units: Units) -> list[TailTerm]:
    """The terms of orders 1, 2, ... at ``location`` whose image's jumps are ``jumps``."""
    images = [turn * jump / _ROOT_2PI if jump else 0j for turn, jump in zip(_TURNS[1:], jumps)]
    return list(map(TailTerm, [location] * len(jumps), range(1, len(jumps) + 1),
                    units.derivatives(jumps), units.coefficients(images), images))


def expansion_terms(state: BoundState, records: list[DiscontinuityRecord]) -> list[TailTerm]:
    """All T_n terms at every discontinuity location, from the state's image.
    The one place that sets the depth: n = 1 up to the shallowest image table
    of the records' locations, short of the first n with a term whose
    coefficient or jump is no float in the user's units."""
    sides = [state.image_side(rec.location) for rec in records]
    depth = min((len(side.right) for side in sides), default=0)
    terms: list[TailTerm] = []
    for rec, side in zip(records, sides):
        # a jump that overflows stays one, whatever its scale
        jumps = [0.0 if abs(r - l) <= _REL_ZERO * (abs(r) + abs(l)) < math.inf else r - l
                 for r, l in zip(side.right[:depth], side.left[:depth])]
        terms += _terms(rec.location, jumps, state.units)
    cut = min((t.order for t in terms
               if not (cmath.isfinite(t.coefficient) and math.isfinite(t.jump))),
              default=depth + 1)
    return [t for t in terms if t.order < cut]


def jump_from_potential(record: DiscontinuityRecord,
                        state: BoundState) -> tuple[int, float]:
    """Predicted lowest nonvanishing psi-derivative jump from potential data alone.

    Returns (k, jump): the jump is in the image's psi^(k). Uses only the
    image of the V-jump and psi(a) (or psi'(a) when psi(a) = 0); never reads
    the one-sided derivative differences, so it is an independent route.
    """
    if record.is_wall:
        raise UnsupportedCase("walls have one-sided data only; no jump-condition route")
    side = state.image_side(record.location)
    image = state.units.image(record)
    # delta: psi'(a+) - psi'(a-) = c psi(a), c the image's delta coefficient
    if record.order == -1:
        return 1, image.jump * side.value
    # psi(a) counts as zero below 1e-10 of |psi'(a)| / sqrt(|b|), the change of
    # psi over the length on which psi'' = b psi acts, b the larger of the two
    # pieces beside a: scale-free, so a psi(a) ~ 1e-33 deep in a tail, whose
    # psi' is as small, keeps its jump
    i = state.breaks.index(record.location)
    b = max(abs(b0 + b1 * image.location) for b0, b1 in state.image.ode[i:i + 2])
    slope = max(abs(side.right[1]), abs(side.left[1]))
    if abs(side.value) * math.sqrt(b) > 1e-10 * slope:
        return record.order + 2, image.jump * side.value
    psi_prime = side.right[1]
    if psi_prime == 0.0:
        raise UnsupportedCase("psi and psi' both vanish at the discontinuity")
    return record.order + 3, (record.order + 1) * image.jump * psi_prime


def predict_tail(state: BoundState, records: list[DiscontinuityRecord],
                 mass: float | None = None, hbar: float | None = None) -> TailPrediction:
    """Expansion terms plus the leading exponent, with the two-route cross-check.

    Units are the state's; an explicit ``mass`` or ``hbar`` must equal them.
    Raises ``OverflowError`` where the order the two-route check reads lies
    past the table, or, with no nonzero term below it, past ``expansion_terms``.
    """
    check_units(state, mass, hbar)
    terms = expansion_terms(state, records)
    nonzero = [t.order for t in terms if t.image]
    depth = max((t.order for t in terms), default=0)
    for rec in records:
        if rec.is_wall:
            continue
        order, predicted = jump_from_potential(rec, state)
        side = state.image_side(rec.location)
        # where no term below it is nonzero, the checked order leads the tail
        limit = len(side.right) if nonzero else depth
        if order >= limit:
            raise OverflowError(f"psi's order-{order} derivative at the break x = {rec.location!r} "
                                f"lies past orders 0 to {limit - 1}, past which a derivative or "
                                f"a coefficient is no float: the jump condition reads it")
        tabulated = side.right[order] - side.left[order]
        # relative to the one-sided values the jump is read from, so that a
        # jump far below 1, deep in a tail, is checked too
        tol = _JUMP_CHECK_TOL * max(abs(predicted), abs(tabulated),
                                    abs(side.right[order]), abs(side.left[order]))
        if abs(predicted - tabulated) > tol:
            raise InconsistentJumps(
                f"at x={rec.location}: potential route gives {predicted!r} for the "
                f"order-{order} jump, derivative table gives {tabulated!r}")
    if not nonzero:
        raise UnsupportedCase(f"no nonvanishing jump up to order {depth} of the expansion")
    return TailPrediction(terms=terms, leading_exponent=min(nonzero), units=state.units)


def summary(prediction: TailPrediction) -> str:
    lines = [f"leading exponent: {prediction.leading_exponent} "
             f"(|phi| ~ p^-{prediction.leading_exponent})"]
    for t in prediction.leading_terms():
        lines.append(f"  x = {t.location:g}: jump {t.jump:.6g}, "
                     f"|coefficient| {abs(t.coefficient):.6g}")
    return "\n".join(lines)
