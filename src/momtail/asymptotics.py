"""Large-|p| expansion of the momentum-space wavefunction from discontinuity data.

Each non-smooth point a of psi contributes a series of terms

    T_n(p) = (-i)^n [psi^(n-1)(a+) - psi^(n-1)(a-)] e^{-ipa/hbar} (hbar/p)^n,

and phi(p) = (1/sqrt(2 pi hbar)) * sum_n T_n(p), summed over all locations.
Order-1 terms vanish identically because psi is continuous.

Two independent routes give the lowest nonvanishing jump at each location.
One reads the state's derivative table, which the state derives from the
solver's (psi, psi'(a-), psi'(a+)) at each break and its ODE
psi'' = (2m/hbar^2)(V - E) psi on each piece (``eigensolve``). The other
applies the jump condition
psi^(k+2)(a+) - psi^(k+2)(a-) = (2m/hbar^2) [V^(k)(a+) - V^(k)(a-)] psi(a)
to the spec's ledger (``potentials``), with the (k+1)-enhanced psi'(a) variant
when psi(a) = 0. ``predict_tail`` cross-checks the two and refuses to emit a
prediction when they disagree. The lowest nonvanishing jump fixes the tail,
so ``expansion_terms`` keeps each order that is a float, and ``predict_tail``
refuses only where the tail lies past them. A constant-V spec's pieces are
read off the same ledger, but the table is not: the solver builds it from
``matching`` and ``ode``, so the check still catches a region's V or a cusp
put at the wrong break, and it guards the ODE from which
``momentum.FilonPanels`` expands psi.

``TailPrediction.series`` and ``leading_envelope`` group the terms by
location and by order: the phase e^{-ipa/hbar} is formed once per location
and the real power (1/p)^n once per order, and the sum of phase x power x
coefficient runs elementwise over p x locations x orders, with no matrix
product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import BoundState
from .errors import InconsistentJumps, UnsupportedCase
from .potentials import DiscontinuityRecord, check_units

_REL_ZERO = 1e-9    # below this (relative to the one-sided values) a jump is "zero"
_JUMP_CHECK_TOL = 1e-8  # the two routes' jumps may differ by this share of the larger


@dataclass(frozen=True)
class TailTerm:
    """One term of the large-|p| expansion, anchored at one discontinuity."""
    location: float
    order: int            # power of (hbar/p)
    jump: float           # psi^(order-1)(a+) - psi^(order-1)(a-)
    hbar: float
    coefficient: complex = field(init=False)

    def __post_init__(self):
        """The complex prefactor of e^{-ipa/hbar} p^{-order}, formed once.

        The jump is multiplied by hbar one order at a time, where hbar ** order
        can overflow first, and divided by sqrt(2 pi hbar) before the
        products grow (hbar >= 1) or after they shrink (hbar < 1): so no
        partial product exceeds both the jump and the coefficient, which
        may still be no float. A zero jump of either sign gives 0j that way.
        """
        value = 0j
        if self.jump:
            value = (-1j) ** self.order * self.jump
            root = math.sqrt(2.0 * math.pi * self.hbar)
            if self.hbar >= 1.0:
                value /= root
            for _ in range(self.order):
                value *= self.hbar
            if self.hbar < 1.0:
                value /= root
        object.__setattr__(self, "coefficient", value)


@dataclass
class TailPrediction:
    """All expansion terms up to the expansion's depth, plus the leading-order envelope."""
    terms: list[TailTerm]
    leading_exponent: int

    def leading_terms(self) -> list[TailTerm]:
        return [t for t in self.terms if t.order == self.leading_exponent and t.jump != 0.0]

    def series(self, p, max_order: int | None = None):
        """Sum of all (or all up-to-max_order) term contributions at p."""
        top = math.inf if max_order is None else max_order
        return _sum_terms([t for t in self.terms if t.jump != 0.0 and t.order <= top], p)

    def leading_envelope(self, p):
        """|sum of leading-order contributions|, phases included, vectorized."""
        return np.abs(_sum_terms(self.leading_terms(), p))


def _sum_terms(terms: list[TailTerm], p):
    """Sum of the terms' coefficient e^{-ipa/hbar} p^-order at each p.

    The terms at one location a share one phase e^{-ipa/hbar}, and the terms
    of one order one real power of 1/p: the sum runs over an array of
    p x location x order, the phases times the powers times the coefficients.
    """
    p = np.asarray(p, dtype=float)
    if not terms:
        return np.zeros(p.shape, dtype=complex)
    locations = sorted({t.location for t in terms})
    orders = sorted({t.order for t in terms})
    coef = np.zeros((len(locations), len(orders)), dtype=complex)
    for t in terms:
        coef[locations.index(t.location), orders.index(t.order)] += t.coefficient
    phase = np.exp(-1j * (np.multiply.outer(p, locations) / terms[0].hbar))
    powers = np.power.outer(1.0 / p, orders)
    return (phase[..., :, None] * powers[..., None, :] * coef).sum(axis=(-2, -1))


def expansion_terms(state: BoundState, records: list[DiscontinuityRecord]) -> list[TailTerm]:
    """All T_n terms at every discontinuity location, in the state's hbar. The
    one place that sets the depth: n = 1 up to the shallowest table of the
    records' locations, short of the first n with a coefficient that is no float."""
    sides = [state.derivative_table[rec.location] for rec in records]
    depth = min((len(side.right) for side in sides), default=0)
    terms: list[TailTerm] = []
    for rec, side in zip(records, sides):
        for n in range(1, depth + 1):
            raw = side.right[n - 1] - side.left[n - 1]
            scale = abs(side.right[n - 1]) + abs(side.left[n - 1])
            # a jump that overflows stays one, whatever its scale
            jump = 0.0 if abs(raw) <= _REL_ZERO * scale < math.inf else raw
            terms.append(TailTerm(rec.location, n, jump, state.hbar))
    cut = min((t.order for t in terms if not cmath.isfinite(t.coefficient)), default=depth + 1)
    return [t for t in terms if t.order < cut]


def jump_from_potential(record: DiscontinuityRecord,
                        state: BoundState) -> tuple[int, float]:
    """Predicted lowest nonvanishing psi-derivative jump from potential data alone.

    Returns (k, jump): the jump is in psi^(k). Uses only the V-jump and psi(a)
    (or psi'(a) when psi(a) = 0), in the state's mass and hbar; never reads
    the one-sided derivative differences, so it is an independent route.
    """
    if record.is_wall:
        raise UnsupportedCase("walls have one-sided data only; no jump-condition route")
    side = state.derivative_table[record.location]
    m, hbar = state.mass, state.hbar
    if record.order == -1:
        # delta: psi'(a+) - psi'(a-) = (2m/hbar^2) * c * psi(a), c the delta coefficient
        return 1, 2.0 * m / hbar ** 2 * record.jump * side.value
    # psi(a) counts as zero below 1e-10 of |psi'(a)| / sqrt(|b|), the change of
    # psi over the length on which psi'' = b psi acts, b the larger of the two
    # pieces beside a: scale-free, so a psi(a) ~ 1e-33 deep in a tail, whose
    # psi' is as small, keeps its jump
    i = state.breaks.index(record.location)
    b = max(abs(b0 + b1 * record.location) for b0, b1 in state.ode[i:i + 2])
    slope = max(abs(side.right[1]), abs(side.left[1]))
    if abs(side.value) * math.sqrt(b) > 1e-10 * slope:
        return record.order + 2, 2.0 * m / hbar ** 2 * record.jump * side.value
    psi_prime = side.right[1]
    if psi_prime == 0.0:
        raise UnsupportedCase("psi and psi' both vanish at the discontinuity")
    return record.order + 3, (record.order + 1) * 2.0 * m / hbar ** 2 * record.jump * psi_prime


def predict_tail(state: BoundState, records: list[DiscontinuityRecord],
                 mass: float | None = None, hbar: float | None = None) -> TailPrediction:
    """Expansion terms plus the leading exponent, with the two-route cross-check.

    Units are the state's; an explicit ``mass`` or ``hbar`` must equal them.
    Raises ``OverflowError`` where the order the two-route check reads lies
    past the table, or, with no nonzero term below it, past ``expansion_terms``.
    """
    check_units(state, mass, hbar)
    terms = expansion_terms(state, records)
    nonzero = [t.order for t in terms if t.jump != 0.0]
    depth = max((t.order for t in terms), default=0)
    for rec in records:
        if rec.is_wall:
            continue
        order, predicted = jump_from_potential(rec, state)
        side = state.derivative_table[rec.location]
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
    return TailPrediction(terms=terms, leading_exponent=min(nonzero))


def summary(prediction: TailPrediction) -> str:
    lines = [f"leading exponent: {prediction.leading_exponent} "
             f"(|phi| ~ p^-{prediction.leading_exponent})"]
    for t in prediction.leading_terms():
        lines.append(f"  x = {t.location:g}: jump {t.jump:.6g}, "
                     f"|coefficient| {abs(t.coefficient):.6g}")
    return "\n".join(lines)
