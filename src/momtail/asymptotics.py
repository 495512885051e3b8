"""Large-|p| expansion of the momentum-space wavefunction from discontinuity data.

Each non-smooth point a of psi contributes a series of terms

    T_n(p) = (-i)^n [psi^(n-1)(a+) - psi^(n-1)(a-)] e^{-ipa/hbar} (hbar/p)^n,

and phi(p) = (1/sqrt(2 pi hbar)) * sum_n T_n(p), summed over all locations.
Order-1 terms vanish identically because psi is continuous.

The terms are formed in the state's image (``potentials.Units``), where
hbar = 1, as one row per location: the image's jumps of orders n = 1, 2, ...
at that location and their coefficients (-i)^n jump' / sqrt(2 pi), formed
once. ``TailPrediction`` holds these rows as a (locations x orders) table,
and carries a term to the user's units only where a caller reads
``terms``: the coefficient times (hbar/L)^(n - 1/2) and the jump times
L^-(n - 1/2), at the spec's own location a. Two independent routes give
the lowest nonvanishing jump at each location. One reads the image's
derivative table, which the solver derives from its (psi, psi'(a-),
psi'(a+)) at each break and its ODE psi'' = (V - E) psi on each piece
(``eigensolve``). The other applies the jump condition psi^(k+2)(a+) -
psi^(k+2)(a-) = [V^(k)(a+) - V^(k)(a-)] psi(a) to the image of the spec's
ledger record, with the (k+1)-enhanced psi'(a) variant when psi(a) = 0.
``predict_tail`` cross-checks the two and refuses to emit a prediction when
they disagree. The lowest nonvanishing jump fixes the tail, so the rows keep
each order whose jumps and coefficients are floats in the user's units,
tested in the same pass that forms them, and ``predict_tail`` refuses only
where the tail lies past them. A constant-V spec's pieces are read off the
same ledger, but the table is not: the solver builds it from ``matching``
and ``ode``, so the check still catches a region's V or a cusp put at the
wrong break, and it guards the ODE from which ``momentum.FilonPanels``
expands psi.

``TailPrediction.series`` sums the table at p' = pL/hbar: the phase
e^{-ip'a/L} is formed once per location, each order's coefficients are
summed over the locations with their phases, one matrix product, and the
orders by Horner's rule in 1/p', from the deepest down, so that no power
of 1/p' is formed and a point's sum overflows only where its own terms do.
``leading_envelope`` is the modulus of the series cut at the leading order.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .eigensolve import BoundState, SideDerivatives
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
    """The expansion as a table of the image's terms, one row per location:
    ``images[i, n - 1]``, (-i)^n jump' / sqrt(2 pi) at ``locations[i]``, and
    ``jumps[i][n - 1]``, its jump' of psi^(n-1), for the orders n = 1 ..
    ``depth``; ``orders``, those with a nonzero image, the least of which
    leads; and the ``units`` that carry them to the user's. ``terms``, the
    user-unit ``TailTerm``s, location by location and order by order, are
    formed on first read."""
    locations: tuple[float, ...]
    jumps: list[list[float]]
    images: np.ndarray
    orders: list[int]
    units: Units

    @property
    def depth(self) -> int:
        return self.images.shape[1]

    @property
    def leading_exponent(self) -> int:
        return self.orders[0]

    @cached_property
    def terms(self) -> list[TailTerm]:
        return _user_terms(self.locations, self.jumps, self.units)

    def leading_terms(self) -> list[TailTerm]:
        return [t for t in self.terms if t.order == self.leading_exponent and t.image]

    def series(self, p, max_order: int | None = None):
        """Sum of all (or all up-to-max_order) term contributions at p: at
        each p' = p / ``units.momentum``, the phases' sums over the locations
        of each order's coefficients (phase @ coefficients), summed over the
        orders by Horner's rule in 1/p'."""
        units = self.units
        p = np.asarray(p, dtype=float) / units.momentum
        phase = np.exp(np.multiply.outer(p, [-1j * (a / units.length) for a in self.locations]))
        sums = phase @ self.images[:, :self.depth if max_order is None else max(max_order, 0)]
        total = np.zeros(p.shape, dtype=complex)
        for n in range(sums.shape[-1] - 1, -1, -1):
            total = (total + sums[..., n]) / p
        return total * math.sqrt(1.0 / units.momentum)

    def leading_envelope(self, p):
        """|sum of leading-order contributions|, phases included, vectorized."""
        return np.abs(self.series(p, self.leading_exponent))


_ROOT_2PI = math.sqrt(2.0 * math.pi)


def _images(jumps: list[float]) -> list[complex]:
    """(-i)^n jump' / sqrt(2 pi) of the image's jumps of orders n = 1, 2, ..."""
    return [(-1j) ** n * jump / _ROOT_2PI if jump else 0j for n, jump in enumerate(jumps, 1)]


def _terms(location: float, jumps: list[float], units: Units) -> list[TailTerm]:
    """The terms of orders 1, 2, ... at ``location`` whose image's jumps are ``jumps``."""
    images = _images(jumps)
    return list(map(TailTerm, [location] * len(jumps), range(1, len(jumps) + 1),
                    units.derivatives(jumps), units.coefficients(images), images))


def _user_terms(locations, jump_rows, units: Units) -> list[TailTerm]:
    """Every row's terms, location by location and order by order."""
    return [t for a, jumps in zip(locations, jump_rows) for t in _terms(a, jumps, units)]


def _image_rows(sides: list[SideDerivatives], units: Units) -> tuple[list, list]:
    """The image's rows at the locations whose one-sided derivatives are
    ``sides``: each one's jumps and (-i)^n jump' / sqrt(2 pi). The one place
    that sets the depth: n = 1 up to the shallowest of the tables, short of
    the first n at which a location's jump or coefficient is no float in the
    user's units (``Units.derivatives`` and ``coefficients``)."""
    depth = min((len(side.right) for side in sides), default=0)
    jump_rows, image_rows = [], []
    for side in sides:
        # a jump that overflows stays one, whatever its scale
        jumps = [0.0 if abs(r - l) <= _REL_ZERO * (abs(r) + abs(l)) < math.inf else r - l
                 for r, l in zip(side.right[:depth], side.left[:depth])]
        images = _images(jumps)
        finite = list(map(operator.and_, map(math.isfinite, units.derivatives(jumps)),
                          map(cmath.isfinite, units.coefficients(images))))
        if not all(finite):
            depth = finite.index(False)
        jump_rows.append(jumps)
        image_rows.append(images)
    return [row[:depth] for row in jump_rows], [row[:depth] for row in image_rows]


def _sides(state: BoundState, records: list[DiscontinuityRecord]
           ) -> list[tuple[int, SideDerivatives]]:
    """Each record's break index in ``state`` and the image's one-sided
    derivatives there."""
    at = {a: i for i, a in enumerate(state.breaks)}
    table, breaks = state.image.derivative_table, state.image.breaks
    return [(at[rec.location], table[breaks[at[rec.location]]]) for rec in records]


def expansion_terms(state: BoundState, records: list[DiscontinuityRecord]) -> list[TailTerm]:
    """All T_n terms at every discontinuity location, from the state's image,
    to the depth ``_image_rows`` sets."""
    jumps, _ = _image_rows([side for _, side in _sides(state, records)], state.units)
    return _user_terms([rec.location for rec in records], jumps, state.units)


def jump_from_potential(record: DiscontinuityRecord,
                        state: BoundState) -> tuple[int, float]:
    """Predicted lowest nonvanishing psi-derivative jump from potential data alone.

    Returns (k, jump): the jump is in the image's psi^(k). Uses only the
    image of the V-jump and psi(a) (or psi'(a) when psi(a) = 0); never reads
    the one-sided derivative differences, so it is an independent route.
    """
    if record.is_wall:
        raise UnsupportedCase("walls have one-sided data only; no jump-condition route")
    return _jump_condition(record, state, *_sides(state, [record])[0])


def _jump_condition(record: DiscontinuityRecord, state: BoundState, i: int,
                    side: SideDerivatives) -> tuple[int, float]:
    """``jump_from_potential`` of a record that is no wall, at the state's
    break i, whose image's one-sided derivatives are ``side``."""
    image = state.units.image(record)
    # delta: psi'(a+) - psi'(a-) = c psi(a), c the image's delta coefficient
    if record.order == -1:
        return 1, image.jump * side.value
    # psi(a) counts as zero below 1e-10 of |psi'(a)| / sqrt(|b|), the change of
    # psi over the length on which psi'' = b psi acts, b the larger of the two
    # pieces beside a: scale-free, so a psi(a) ~ 1e-33 deep in a tail, whose
    # psi' is as small, keeps its jump
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
    """The expansion's rows plus the leading exponent, with the two-route
    cross-check. ``records`` are the ledger's, one per location, in order.

    Units are the state's; an explicit ``mass`` or ``hbar`` must equal them.
    Raises ``OverflowError`` where the order the two-route check reads lies
    past the table, or, with no nonzero term below it, past the expansion.
    """
    check_units(state.units, mass, hbar)
    sides = _sides(state, records)
    jumps, images = _image_rows([side for _, side in sides], state.units)
    depth = len(images[0]) if images else 0
    orders = [n for n, column in enumerate(zip(*images), 1) if any(column)]
    for rec, (i, side) in zip(records, sides):
        if rec.is_wall:
            continue
        order, predicted = _jump_condition(rec, state, i, side)
        # where no term below it is nonzero, the checked order leads the tail
        limit = len(side.right) if orders else depth
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
    if not orders:
        raise UnsupportedCase(f"no nonvanishing jump up to order {depth} of the expansion")
    return TailPrediction(tuple(rec.location for rec in records), jumps,
                          np.array(images, dtype=complex), orders, state.units)


def summary(prediction: TailPrediction) -> str:
    lines = [f"leading exponent: {prediction.leading_exponent} "
             f"(|phi| ~ p^-{prediction.leading_exponent})"]
    for t in prediction.leading_terms():
        lines.append(f"  x = {t.location:g}: jump {t.jump:.6g}, "
                     f"|coefficient| {abs(t.coefficient):.6g}")
    return "\n".join(lines)
