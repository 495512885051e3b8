"""Normalized bound states for the cataloged potentials.

``solve`` dispatches on the spec's family: a ``potentials.Piecewise`` kind
to ``solve_piecewise`` on the pieces of its image, a ``potentials.Linear``
kind to ``solve_linear`` on its image's force ratio, and the box to
``solve_infinite_well``; a new kind of either family needs no change here.
Every solver works on the spec's dimensionless image, where m = 1/2 and
hbar = 1, so psi'' = (V - E) psi, and reads no mass or hbar: the spec's
``units`` (``potentials.Units``) carry its level back at the edge.
States are numbered n = 1, 2, ... in order of increasing energy, the
symmetric linear potential's within each parity. Every solver takes (spec,
n, parity) and first reads the level through ``spec.level_index(n,
parity)``, which alone refuses a request that names no level (NoSuchState).

Every solver returns a ``BoundState``: the image's ``Level``, carrying
``psi_and_slope``, (psi, psi') at an array of points from one evaluation,
and ``ode``, the coefficients of psi'' = (b0 + b1 x) psi on each piece of V,
and the ``units`` that give its energy, psi, support, breaks, osc_scale and
derivative table in the user's units. At each break a of V a solver gives
only (psi(a), psi'(a-), psi'(a+)); the level derives its one-sided
derivative table (orders 0..5, up to the last that is a float on both sides)
from those and ``ode``, by the Taylor recurrence ``specfun.ode_taylor``, the
same recurrence from which ``momentum.FilonPanels`` expands psi on its panels.
The state's breaks are the ledger's locations themselves, so the table of a
record is ``derivative_table[record.location]``. Numerical differentiation is
reserved for tests, so that tail predictions never inherit finite-difference noise.

Where a level is the root of a defect inside a bracket, ``_brentq``, a
step-for-step port of scipy's ``brentq`` (Brent 1973, ch. 4), polishes it, so a
run loads no ``scipy.optimize``. It alone decides that a level is done: its
bracket is narrower than ``_RTOL`` = 8.9e-16 of the level, in any units, which
needs a level that is a normal float and no bracket end at 0 where the defect
is least. ``shooting_oracle``, an independent ODE-shooting eigensolver for
cross-validation only, lives in ``momtail.oracle`` with the scipy integrators
it needs; it is imported on first access to ``eigensolve.shooting_oracle`` (a
module ``__getattr__``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import index, mul
from typing import Callable

import numpy as np

from . import potentials as pot
from . import specfun
from .errors import NoBoundState, NoConvergence, NoSuchState
from .potentials import _TABLE_ORDER

# support truncation: exp(-42) ~ 5.7e-19
_DECAY_CUT = 42.0
_FACTORIALS = tuple(math.factorial(k) for k in range(_TABLE_ORDER + 1))
# largest |exponent| of the scale solve_piecewise puts back on its defect: e^700 ~
# 1e304 keeps a defect of order 1 finite, and the positive factor keeps its sign
_MAX_EXP = 700.0
# _brentq's relative stop (scipy's least rtol, 4 eps rounded up); _XTOL only keeps xtol > 0
_RTOL, _XTOL, _MAXITER = 8.9e-16, math.ulp(0.0), 200


@dataclass(frozen=True)
class SideDerivatives:
    """One-sided derivatives psi^(j)(a-) / psi^(j)(a+), j = 0.._TABLE_ORDER while both
    are floats."""
    value: float
    left: tuple[float, ...]
    right: tuple[float, ...]


def _table(value: float, left: tuple, right: tuple) -> SideDerivatives:
    """The one-sided derivatives up to the last order that is a float on both sides."""
    depth = None if all(map(math.isfinite, left + right)) else next(
        j for j, pair in enumerate(zip(left, right)) if not all(map(math.isfinite, pair)))
    return SideDerivatives(float(value), left[:depth], right[:depth])


@dataclass
class Level:
    """A level of a spec's image, where m = 1/2 and hbar = 1 (``potentials.Units``).
    A linear kind's level and the oracle's have no ``regions``."""
    energy: float
    # (psi, psi') at an array of points, from one evaluation
    psi_and_slope: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    support: tuple[float, float]    # numeric support, |psi| < ~1e-18 outside
    # boundaries of the pieces of V, ascending: psi can kink only there; they
    # need not lie inside the support (the box's walls are its ends)
    breaks: tuple[float, ...] = ()
    # the ODE psi'' = (b0 + b1 x) psi, b0 + b1 x = V(x) - E, as (b0, b1) for
    # each of the len(breaks) + 1 regions between consecutive breaks, region
    # i ending at breaks[i]; (0, 0) where psi vanishes (V = inf)
    ode: tuple[tuple[float, float], ...] = ()
    # (psi(a), psi'(a-), psi'(a+)) at each break a
    matching: tuple[tuple[float, float, float], ...] = ()
    osc_scale: float = math.inf     # shortest oscillation wavelength of psi
    # psi in closed form where V is constant between the breaks (``_closed_form``)
    regions: tuple[tuple[float, float, float, float, float], ...] = ()
    # psi^(0.._TABLE_ORDER), while floats, on each side of each break, from matching and ode
    derivative_table: dict[float, SideDerivatives] = field(init=False, repr=False)

    def __post_init__(self):
        # an overflow inside a solve can leave an infinite level or a NaN psi
        if not all(map(math.isfinite, (self.energy, *(v for row in self.matching for v in row)))):
            raise ArithmeticError(f"the solve gave a state whose energy or psi is not finite: "
                                  f"energy {self.energy!r}, matching {self.matching!r}")
        self.derivative_table = {}
        # the left side of break i lies in region i, its right side in region i + 1
        for a, (value, slope_l, slope_r), (l0, l1), (r0, r1) in zip(
                self.breaks, self.matching, self.ode, self.ode[1:]):
            left = specfun.ode_taylor(value, slope_l, l0 + l1 * a, l1, _TABLE_ORDER)
            right = specfun.ode_taylor(value, slope_r, r0 + r1 * a, r1, _TABLE_ORDER)
            self.derivative_table[float(a)] = _table(value, tuple(map(mul, _FACTORIALS, left)),
                                                     tuple(map(mul, _FACTORIALS, right)))


@dataclass
class BoundState:
    """Level n of a spec in the spec's units: the level ``image`` of its image,
    carried back by ``units``. ``breaks`` are the spec's own locations of the
    image's breaks. ``energy``, ``support`` (origin + length x at each end x),
    ``osc_scale``, ``derivative_table`` (keyed by ``breaks``, each order up to
    the last that is a float on both sides), ``psi_and_slope`` and ``psi`` are
    the image's in the user's units. Raises ``ArithmeticError``
    where the energy is not a normal float: past the range, or below it,
    where its digits are lost."""
    image: Level
    units: pot.Units
    n: int
    parity: str                     # 'even' | 'odd' | 'none'
    breaks: tuple[float, ...] = ()
    energy: float = field(init=False)
    support: tuple[float, float] = field(init=False)
    osc_scale: float = field(init=False)

    def __post_init__(self):
        units, image = self.units, self.image
        self.energy = image.energy * units.energy
        if not pot._normal(abs(self.energy)):
            raise ArithmeticError(
                f"the level's energy {self.energy!r} is not a normal float: the image's "
                f"{image.energy!r} in units of hbar^2/2mL^2 = {units.energy!r}")
        self.support = tuple(units.origin + units.length * x for x in image.support)
        self.osc_scale = units.length * image.osc_scale

    @cached_property
    def derivative_table(self) -> dict[float, SideDerivatives]:
        """The image's table in the user's units, formed on first read."""
        return {a: _table(self.units.derivatives([side.value])[0],
                          *(tuple(self.units.derivatives(values))
                            for values in (side.left, side.right)))
                for a, side in zip(self.breaks,
                                   map(self.image.derivative_table.get, self.image.breaks))}

    def momentum_scale(self, image_floor: float) -> float:
        """sqrt(2m |E - V_floor|), formed in the image as (hbar/L) sqrt(|E' -
        ``image_floor``|), the floor V_floor' given in the image."""
        return self.units.momentum * math.sqrt(abs(self.image.energy - image_floor))

    def psi_and_slope(self, x):
        """(psi, psi') at an array of points, from one evaluation of the image's."""
        units = self.units
        psi, slope = self.image.psi_and_slope((np.asarray(x, dtype=float) - units.origin)
                                              / units.length)
        root = math.sqrt(units.length)
        return psi / root, slope / (root * units.length)

    def psi(self, x):
        """psi at an array of points."""
        return self.psi_and_slope(x)[0]


def _advance(P: float, Q: float, beta: float, w: float):
    """Carry (psi, psi') across width w of psi'' = beta psi.

    Returns the new (psi, psi') divided by a positive factor, the log of that
    factor, and the number of zeros of psi in (0, w]. Where beta = r^2 > 0,
    the growing and decaying parts (P +- Q/r)/2 are advanced apart, because
    their sum through tanh(r w) would round a far level's e^(-2 r w) away,
    and the factor is e^(r w) or e^(-r w), whichever part leads at the far
    end. As r w -> 0 the parts are huge and near opposite, so the new psi is
    P plus one part times 1 - e^(-2 r w), which tends to P + Q w; psi has at
    most one zero, in (0, w] where it changes sign. w may be infinite (the last region).
    Raises ``ArithmeticError`` where an overflow upstream leaves them no float.
    """
    if beta > 0.0:
        r = math.sqrt(beta)
        up, down = 0.5 * (P + Q / r), 0.5 * (P - Q / r)
        t, c = math.exp(-2.0 * r * w), -math.expm1(-2.0 * r * w)
        if abs(up) > abs(down) * t:
            new, slope, growth = up * c + P * t, r * (up - down * t), r * w
        else:
            if up and not t:        # neither part leads only where one is no float
                raise ArithmeticError(f"psi's growing and decaying parts {up!r}, {down!r} "
                                      f"left the float range at decay rate {r!r}")
            lead = up / t if up else 0.0
            new, slope, growth = P + lead * c, r * (lead - down), -r * w
        return new, slope, growth, int(P > 0.0 >= new or P < 0.0 <= new)
    if beta < 0.0:
        k = math.sqrt(-beta)
        phase = math.atan2(k * P, Q)        # psi = R sin(k s + phase)
        if math.isnan(phase):
            raise ArithmeticError(f"psi's phase is NaN from {P!r}, {Q!r} at wave number {k!r}")
        zeros = math.floor((k * w + phase) / math.pi) - math.floor(phase / math.pi)
        c, s = math.cos(k * w), math.sin(k * w)
        return P * c + Q * s / k, Q * c - P * k * s, 0.0, zeros
    return P + Q * w, Q, 0.0, int(Q != 0.0 and 0.0 < -P / Q <= w)


def _sweep(xs, vs, cusps, energy: float):
    """March the solution that decays at -infinity from left to right.

    Returns the number of its zeros, which by the Sturm oscillation theorem
    is the number of levels below ``energy``; the matching defect
    psi'(a+) + kappa psi(a) at the last boundary, which vanishes at a level
    and has the sign (-1)^zeros; and (psi, psi'(a-), psi'(a+), log scale) at
    each boundary a. At each boundary (psi, psi') is divided by max(|psi|,
    |psi'|) to stay in range, so the solution itself is e^(log scale) times
    the row, and the defect is divided by e^(log scale) of the last row.
    That divisor is not smooth in ``energy``: where the level lives away
    from the last boundary it leaves the defect a sign function of E at
    float resolution, so a root finder polishes the defect times e^(log
    scale) instead (``solve_piecewise``).
    """
    P, Q = 1.0, math.sqrt(vs[0] - energy)
    log_scale, zeros, rows = 0.0, 0, []
    for i, x in enumerate(xs):
        Qp = Q + cusps[i] * P
        rows.append((P, Q, Qp, log_scale))
        if i + 1 == len(xs):
            break
        P, Q, growth, z = _advance(P, Qp, vs[i + 1] - energy, xs[i + 1] - x)
        s = max(abs(P), abs(Q))
        P, Q, log_scale, zeros = P / s, Q / s, log_scale + growth + math.log(s), zeros + z
    zeros += _advance(P, Qp, vs[-1] - energy, math.inf)[3]
    return zeros, Qp + math.sqrt(vs[-1] - energy) * P, rows


def _sin_cubic(y: float) -> float:
    """(y - sin y) / y^3, by its Taylor series below y = 1, where the difference
    cancels; above, as (1 - sin y / y) / y / y, which forms no y^3 to overflow."""
    if y >= 1.0:
        return (1.0 - math.sin(y) / y) / y / y
    return sum((-y * y) ** j / math.factorial(2 * j + 3) for j in range(8))


def _brentq(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f between a and b, given fa and fb, the values that stand for
    f(a) and f(b) and differ in sign.

    A step-for-step port of scipy's ``brentq`` iteration (Brent 1973, ch. 4):
    an inverse quadratic or secant step where it falls well inside the
    bracket, a bisection otherwise. Its one stop, a bracket narrower than
    ``_RTOL`` |x| (x the end where |f| is least), is relative at every scale,
    so it returns the float scipy would with xtol ``_XTOL``, rtol ``_RTOL``
    and maxiter ``_MAXITER`` on f with the values fa and fb at its ends. It
    needs a root that is a normal float, and no end at 0 where |f| is least:
    there its steps vanish. It never evaluates f at a or b; an end whose
    value is 0 is returned as the root. Raises ``NoConvergence`` where a
    value is NaN, where fa and fb share a sign, or after ``_MAXITER`` iterations.
    """
    def checked(x, value):
        if math.isnan(value):
            raise NoConvergence(f"the root polish met a NaN at {x!r}")
        return value

    xpre, xcur, fpre, fcur = a, b, checked(a, fa), checked(b, fb)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoConvergence("the root polish needs a sign change in its bracket")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                # where this product underflows to 0, scipy's C division
                # gives inf or NaN and the step below bisects; inf does here
                denom = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = checked(xcur, f(xcur))
    raise NoConvergence(f"the root polish did not converge in {_MAXITER} iterations")


def solve_piecewise(spec: pot.Piecewise, n: int = 1, parity: str | None = None) -> BoundState:
    """n-th level of a piecewise-constant V with attractive delta cusps.

    ``spec.image_pieces`` gives the boundaries, the region potentials and
    the delta coefficients (-g) of the spec's image, where psi'' = (V - E)
    psi. Levels lie between the asymptote min(V_left, V_right) and min(V) -
    (sum g)^2 / 4. Bisecting the Sturm count of ``_sweep`` isolates level n, and
    ``_brentq`` finds the root of its defect with the sweep's scale put
    back: the defect times e^(s - ref), s the log scale ``_sweep`` divided
    out at the last boundary and ref its mean over the bracket's two ends,
    with s - ref clamped to +-``_MAX_EXP``. The factor is positive, so the
    signs that the count and the bracket read are the defect's own; but the
    product is the unscaled defect, analytic in E, where the divided one is
    a sign function whenever the level lives away from the last boundary,
    and Brent would bisect. The bisection goes on until the ends' s lie within
    2 ``_MAX_EXP``, where a weak level beside a strong delta leaves it decades wide,
    and until the bracket has left a top that is 0. The count, not the defect's
    rounding, signs the ends' values: (-1)^(n-1) at lo, where a 0 is level n,
    and (-1)^n at hi, where a 0 is level n + 1 and stands as the least float.
    Raises ``ArithmeticError`` where the bracket lies below the least normal float.
    """
    n = spec.level_index(n, parity)
    units, pieces = spec.units, spec.image_pieces
    xs, vs, cusps = pieces
    top = min(vs[0], vs[-1])
    bottom = min(vs) - sum(cusps) ** 2 / 4.0
    if not bottom < top:
        raise NoSuchState("no admissible bound-state energy window")
    sweeps = {}

    def sweep(E):
        """(count, defect, log scale divided out, rows) of ``_sweep`` at E, once per E."""
        if E not in sweeps:
            count, d, rows = _sweep(xs, vs, cusps, E)
            sweeps[E] = count, d, rows[-1][3], rows
        return sweeps[E]

    levels = sweep(top)[0]
    if levels == 0:
        raise NoBoundState("no level below the asymptote")
    if levels < n:
        raise NoSuchState(f"holds only {levels} bound states, needed {n}")
    # the bracket must leave a top of 0, an end at which _brentq's steps vanish
    lo, hi, below_lo, below_hi = bottom, top, 0, levels
    while (((below_lo, below_hi) != (n - 1, n) or hi == top == 0.0
            or abs(sweep(lo)[2] - sweep(hi)[2]) > 2.0 * _MAX_EXP)
           and lo < 0.5 * (lo + hi) < hi):
        mid = 0.5 * (lo + hi)
        below = sweep(mid)[0]
        if below >= n:
            hi, below_hi = mid, below
        else:
            lo, below_lo = mid, below
    if not pot._normal(max(abs(lo), abs(hi))):
        raise ArithmeticError(f"level {n} of the image lies below the least normal float, in "
                              f"({lo!r}, {hi!r}): the image's region potentials are {vs!r}, at "
                              f"the unit energy {units.energy!r}")

    (d_lo, s_lo), (d_hi, s_hi) = sweep(lo)[1:3], sweep(hi)[1:3]
    ref = 0.5 * (s_lo + s_hi)

    def rescaled(d, s):
        """d times e^(s - ref), the exponent clamped short of overflow."""
        return d * math.exp(min(max(s - ref, -_MAX_EXP), _MAX_EXP))

    # the defect's sign is (-1)^(levels below): n - 1 lie below lo and n below hi, where
    # a 0 is level n + 1 rounded onto hi (a far delta's own level, which bisection can hit)
    fa = math.copysign(rescaled(d_lo, s_lo), (-1.0) ** (n - 1))
    fb = math.copysign(rescaled(d_hi, s_hi) or math.ulp(0.0), (-1.0) ** n)
    energy = _brentq(lambda E: rescaled(*sweep(E)[1:3]), lo, hi, fa, fb)
    parity = _mirror_parity(pieces, n)
    return BoundState(_piecewise_state(pieces, energy, sweep(energy)[3], parity != "none"), units,
                      n, parity, tuple(float(r.location) for r in spec.ledger()))


def _mirror_parity(pieces, n: int) -> str:
    """Where the pieces are their own mirror image (equal widths, potentials
    and cusps read backwards), level n is even for odd n and odd for even
    n; otherwise its parity is "none"."""
    xs, vs, cusps = pieces
    widths = [b - a for a, b in zip(xs, xs[1:])]
    if widths == widths[::-1] and vs == vs[::-1] and cusps == cusps[::-1]:
        return "even" if n % 2 else "odd"
    return "none"


def _piecewise_state(pieces, energy: float, left, mirror: bool) -> Level:
    """The normalised level of ``solve_piecewise`` at its ``energy``, on the
    image's ``pieces`` (boundaries, region potentials, delta coefficients),
    from ``left``, the rows of ``_sweep`` at ``energy``; ``mirror`` where the
    pieces are their own mirror image.

    psi is built from both ends: the solutions that decay at -infinity and at
    +infinity are joined at the boundary where their product, which near a
    level is proportional to psi^2 (the diagonal of the Green's function), is
    largest, so the rounding of the energy leaves the smallest kink. Each
    region becomes one of the level's ``regions`` (``_closed_form``), its
    coefficients from psi and psi' at both ends where E < V, from psi(a) and
    psi'(a+) where E >= V; it is normalised in closed form, and psi > 0 as
    x -> -infinity. Mirror-symmetric pieces sweep alike from both ends.
    """
    xs, vs, cusps = pieces
    flipped = ([-x for x in xs[::-1]], vs[::-1], cusps[::-1])
    mirrored = left if mirror else _sweep(*flipped, energy)[2]
    right = [(P, -Qp, -Qm, log_scale) for P, Qm, Qp, log_scale in mirrored[::-1]]

    def weight(i):
        """log |psi_L psi_R| at boundary i, which near a level is log psi^2 + const."""
        product = left[i][0] * right[i][0]
        return math.log(abs(product)) + left[i][3] + right[i][3] if product else -math.inf

    j = max(range(len(xs)), key=weight)
    # two mirror levels that share one float: where each sweep decays from its
    # own end, the rows grow away from the joint by the whole tunnelling
    # exponent, and psi joined there has no square in the floats
    gap = max([left[i][3] - left[j][3] for i in range(j)]
              + [right[i][3] - right[j][3] for i in range(j, len(xs))])
    if mirror and gap > 0.5 * math.log(np.finfo(float).max):
        raise ArithmeticError(
            f"the image's level {energy!r} is a mirror pair's, both levels one float, on pieces "
            f"that are their own mirror image (boundaries {xs!r}, potentials {vs!r}, cusps "
            f"{cusps!r}): psi joined at x = {xs[j]!r} grows away from it by a log scale of "
            f"{gap:.6g}, and leaves the floats")

    def at_joint(side, i):
        """(psi, psi'(a-), psi'(a+)) of side[i], scaled to psi = 1 at the joint."""
        factor = math.exp(side[i][3] - side[j][3]) / side[j][0]
        return [factor * v for v in side[i][:3]]

    rows = [at_joint(left, i) for i in range(j)] + [at_joint(right, i) for i in range(j, len(xs))]
    rows[j][1] = left[j][1] / left[j][0]
    P, Qm, Qp = zip(*rows)

    betas = [v - energy for v in vs]
    if not min(betas[0], betas[-1]) >= np.finfo(float).tiny:    # a subnormal has lost digits
        raise ArithmeticError(f"the image's level {energy!r} decays at a subnormal V' - E': "
                              f"{betas[0]!r} on the left, {betas[-1]!r} on the right")
    # the polish fixes the level to _RTOL of itself, so within that of a V, V - E has no digit
    lost = [v for beta, v in zip(betas[1:-1], vs[1:-1]) if abs(beta) <= _RTOL * abs(v)]
    if lost:
        raise ArithmeticError(f"the image's level {energy!r} lies within its polish's rounding "
                              f"of the V' = {lost[0]!r} of a region: V' - E' there has no digit")
    kap_l, kap_r = math.sqrt(betas[0]), math.sqrt(betas[-1])
    regions = [(-math.inf, xs[0], betas[0], 0.0, P[0])]
    norm2 = P[0] ** 2 / (2.0 * kap_l) + P[-1] ** 2 / (2.0 * kap_r)
    for i in range(1, len(xs)):
        a, b, beta = xs[i - 1], xs[i], betas[i]
        w = b - a
        if beta > 0.0:
            r = math.sqrt(beta)
            D, U = 0.5 * (P[i - 1] - Qp[i - 1] / r), 0.5 * (P[i] + Qm[i] / r)
            norm2 += ((D * D + U * U) * -math.expm1(-2.0 * r * w) / (2.0 * r)
                      + 2.0 * D * U * w * math.exp(-r * w))
            regions.append((a, b, beta, D, U))
        else:
            k = math.sqrt(-beta)
            A, B = P[i - 1], Qp[i - 1]
            S = math.sin(k * w) / k if k else w
            norm2 += (A * A * (w + S * math.cos(k * w)) / 2.0 + A * B * S * S
                      + B * B * 2.0 * w * (w * (w * _sin_cubic(2.0 * k * w))))
            regions.append((a, b, beta, A, B))
    regions.append((xs[-1], math.inf, betas[-1], P[-1], 0.0))
    scale = math.copysign(1.0 / math.sqrt(norm2), left[j][0])   # psi > 0 as x -> -inf
    regions = tuple((a, b, beta, scale * c1, scale * c2) for a, b, beta, c1, c2 in regions)
    osc = [2.0 * math.pi / math.sqrt(-b) for b in betas[1:-1] if b < 0]
    return Level(energy, partial(_closed_form, regions),
                 support=(xs[0] - _DECAY_CUT / kap_l, xs[-1] + _DECAY_CUT / kap_r),
                 breaks=tuple(float(x) for x in xs), ode=tuple((b, 0.0) for b in betas),
                 matching=tuple(tuple(scale * v for v in row) for row in rows),
                 osc_scale=min(osc) if osc else math.inf, regions=regions)


def _closed_form(regions, x) -> tuple[np.ndarray, np.ndarray]:
    """(psi, psi') at an array of points from a ``Level``'s ``regions``.

    Each region (a, b, beta, c1, c2) holds psi'' = beta psi on (a, b), with a
    the b of the region before it. Where beta = r^2 > 0, psi = c1 e^(-r(x -
    a)) + c2 e^(r(x - b)), so neither term exceeds the region's scale; else,
    with beta = -k^2, psi = c1 cos k(x - a) + c2 sin k(x - a)/k. A point at a
    boundary takes the region to its left; outside the regions psi and psi' are 0.
    """
    x = np.asarray(x, dtype=float)
    edges = np.array([regions[0][0], *(r[1] for r in regions)])
    region = np.searchsorted(edges, x) - 1
    out = np.zeros((2,) + x.shape)
    for i in np.unique(region):
        if not 0 <= i < len(regions):
            continue
        a, b, beta, c1, c2 = regions[i]
        sel = region == i
        s = x[sel] - a
        if beta > 0.0:
            r = math.sqrt(beta)
            down, up = c1 * np.exp(-r * s), c2 * np.exp(r * (x[sel] - b))
            out[:, sel] = down + up, r * (up - down)
        else:
            # beta < 0: a level at a region's V is refused before its regions form
            k = math.sqrt(-beta)
            cos, sin = np.cos(k * s), np.sin(k * s)
            out[:, sel] = c1 * cos + c2 * (1.0 / k) * sin, c2 * cos - c1 * k * sin
    return tuple(out)


def solve_infinite_well(spec: pot.InfiniteWell, n: int, parity: str | None = None) -> BoundState:
    """Particle in a box on (0, L), n = 1, 2, ...: in the image, the box on (0,
    1), whose one region holds psi = sqrt(2) sin(k x), k = n pi."""
    n = spec.level_index(n, parity)
    k = n * math.pi
    amp = math.sqrt(2.0)
    regions = ((0.0, 1.0, -k * k, 0.0, amp * k),)
    parity = "even" if n % 2 == 1 else "odd"   # about the well center
    level = Level(k ** 2, partial(_closed_form, regions), support=(0.0, 1.0), breaks=(0.0, 1.0),
                  ode=((0.0, 0.0), (-k * k, 0.0), (0.0, 0.0)),
                  matching=((0.0, 0.0, amp * k), (0.0, amp * k * (-1.0) ** n, 0.0)),
                  osc_scale=2.0 / n, regions=regions)
    return BoundState(level, spec.units, n, parity, (0.0, spec.length))


# walls of the two bouncer ladders closer than this (relative) are one wall
_SHARED_WALL = 1e-12


def solve_linear(spec: pot.Linear, n: int = 1, parity: str | None = None) -> BoundState:
    """A state of V = F z (z > 0), Fbar |z| (z < 0), with (F, Fbar) = ``spec.forces``.

    In the image the right-hand force is 1 and its Airy length and energy
    are 1; the left-hand force is r = Fbar / F (``spec.force_ratio``), with
    the Airy length rho = r^(-1/3) and the energy e0 = r rho. psi = c_r
    Ai(z + u_r) for z >= 0 and c_l Ai(-z / rho + u_l) below, with u_r = -E
    and u_l = -E / e0, and E is level k = ``spec.level_index(n, parity)``.
    Beside a wall (Fbar = WALL) or at equal forces E is
    ``pot.airy_level(k, wall)``. Otherwise a Dirichlet wall at 0, a rank-one
    change of the resolvent, cuts the line into two bouncers whose merged
    levels w_1 <= w_2 <= ... interlace the full-line ones, w_(k-1) <= E <=
    w_k (Reed & Simon IV, XIII.15; w_0 = 0), and E is the only root of the
    matching determinant there. The determinant vanishes at a wall only
    when both ladders share it (within ``_SHARED_WALL``), and such a wall is
    a level: if w_(k-1) and w_k are shared, E is that wall; otherwise a
    bracket end shared with its outer neighbour moves inward by
    ``_SHARED_WALL``, off the wall. Only the two ends can be walls, and each
    end's value is formed once for ``_brentq``: at a wall, one side's Ai
    vanishes, and its rounding, times the other side's 1/rho, could set the
    determinant's sign, so it is formed with that Ai at 0. The solve
    reads only w_(k-2) .. w_(k+1), from ``specfun.merged_zero_window``, which
    polishes at most eight zeta: the four walls of each ladder that can hold
    them, placed by their asymptotic starts. A kink leaves psi' continuous, so
    the state reports one psi'(0); psi(0) = 0 exactly where E is a zero of
    Ai, and psi'(0) = 0 where it is one of Ai'. psi(0) > 0, or psi'(0) > 0
    where psi(0) = 0.
    """
    k = spec.level_index(n, parity)
    ratio = spec.force_ratio
    wall = ratio == pot.WALL
    rho_l = 1.0 if wall else ratio ** (-1.0 / 3.0)
    e0_l = ratio * rho_l
    if wall or ratio == 1.0:
        level = pot.airy_level(k, wall)
        energy, u_r, u_l = level, -level, -level
    else:
        def defect(E, wall=False):
            """Matching determinant at z = 0, from one Airy call per side; at a
            ``wall`` end, with the Ai of the side nearer its zero, relative to |u|, at 0."""
            (ai_r, aip_r), (ai_l, aip_l) = specfun.airy(-E), specfun.airy(-E / e0_l)
            if wall:
                if abs(ai_r * aip_l) * max(1.0, E / e0_l) < abs(ai_l * aip_r) * max(1.0, E):
                    ai_r = 0.0
                else:
                    ai_l = 0.0
            return aip_r * ai_l + ai_r * aip_l / rho_l

        # walls k - 3 .. k (from 0) of the merged ladder, 0.0 below the first
        lowest, lo, hi, above = specfun.merged_zero_window(k, 1.0, e0_l)

        def shared(low, high):
            """Two neighbouring walls coincide."""
            return high - low <= _SHARED_WALL * high

        if k > 1 and shared(lo, hi):
            energy = hi
        else:
            lo_wall, hi_wall = lo > 0.0, True
            if k > 2 and shared(lowest, lo):
                lo, lo_wall = lo * (1.0 + _SHARED_WALL), False
            if shared(hi, above):
                hi, hi_wall = hi * (1.0 - _SHARED_WALL), False
            energy = _brentq(defect, lo, hi, defect(lo, lo_wall), defect(hi, hi_wall))
        u_r, u_l = -energy, -energy / e0_l

    air, apr = specfun.airy(u_r)
    ail, apl = specfun.airy(u_l)
    # Match at 0 by continuity of psi or of psi', whichever is better
    # conditioned. With Ai ~ sin(phase) and Ai' ~ sqrt|u| cos(phase), psi(0)
    # carries the match when sin^2 of the two phases sums to at least 1; at a
    # shared wall psi(0) = 0 is pure rounding and only psi' can match.
    def sin2(a, ap, u):
        t = a * a * max(-u, 1.0)
        return t / (t + ap * ap)

    if wall:
        c_r, c_l = 1.0, 0.0
    elif sin2(air, apr, u_r) + sin2(ail, apl, u_l) >= 1.0:
        c_r, c_l = (1.0, air / ail) if abs(ail) >= abs(air) else (ail / air, 1.0)
    else:
        # psi'(0+) = c_r Ai'(u_r) equals psi'(0-) = -c_l Ai'(u_l) / rho_l
        c_r, c_l = apl / rho_l, -apr
    # psi(0) and psi'(0) are the means of the two sides, which differ by the
    # residual of the match; at equal forces, where one of them vanishes, the
    # two sides cancel exactly
    value = 0.0 if wall else 0.5 * (c_r * air + c_l * ail)
    slope = c_r * apr if wall else 0.5 * (c_r * apr - c_l * apl / rho_l)
    # integral of Ai^2 from b to infinity = Ai'(b)^2 - b Ai(b)^2
    norm2 = (c_r * c_r * (apr * apr - u_r * air * air)
             + c_l * c_l * rho_l * (apl * apl - u_l * ail * ail))
    scale = math.copysign(1.0 / math.sqrt(norm2), value if value else slope)
    c_r, c_l, value, slope = scale * c_r, scale * c_l, scale * value, scale * slope

    def psi_and_slope(z):
        z = np.asarray(z, dtype=float)
        right = z >= 0.0
        ai, aip = specfun.airy(np.where(right, z + u_r, -z / rho_l + u_l))
        return np.where(right, c_r, c_l) * ai, np.where(right, c_r, -c_l / rho_l) * aip

    parity = ("even" if k % 2 else "odd") if ratio == 1.0 else "none"
    # a wall's left side copies the right one's scales, so it leaves osc_scale as is
    level = Level(energy, psi_and_slope,
                  support=(0.0 if wall else -rho_l * (18.0 - u_l), 18.0 - u_r), breaks=(0.0,),
                  ode=((0.0, 0.0) if wall else (u_l / rho_l ** 2, -1.0 / rho_l ** 3), (u_r, 1.0)),
                  matching=((value, 0.0 if wall else slope, slope),),
                  osc_scale=min(2.0 * math.pi / math.sqrt(-u_r),
                                2.0 * math.pi * rho_l / math.sqrt(-u_l)))
    return BoundState(level, spec.units, index(n), parity, (0.0,))


# spec family -> its solver(spec, n, parity)
_SOLVERS = {
    pot.InfiniteWell: solve_infinite_well,
    pot.Piecewise: solve_piecewise,
    pot.Linear: solve_linear,
}


def __getattr__(name: str):
    """``shooting_oracle`` resolves to ``momtail.oracle``'s on first access (PEP 562)."""
    if name == "shooting_oracle":
        from .oracle import shooting_oracle
        return shooting_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def solve(spec: pot.PotentialSpec, n: int = 1, parity: str | None = None) -> BoundState:
    """Dispatch to the solver for the given potential's family, which checks
    the request through ``spec.level_index(n, parity)``."""
    for family, solver in _SOLVERS.items():
        if isinstance(spec, family):
            return solver(spec, n, parity)
    raise NoSuchState(f"no solver for {type(spec).__name__!r}, which is no potential family")
