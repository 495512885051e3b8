"""Normalized bound states for the cataloged potentials.

``solve`` dispatches on the spec's family: a ``potentials.Piecewise`` kind
to ``solve_piecewise`` on the pieces of its ledger, a ``potentials.Linear``
kind to ``solve_linear`` on its ``forces``, and the box to
``solve_infinite_well``; a new kind of either family needs no change here.
States are numbered n = 1, 2, ... in order of increasing energy, the
symmetric linear potential's within each parity. Every solver takes (spec,
n, parity) and first reads the level through ``spec.level_index(n,
parity)``, which alone refuses a request that names no level (NoSuchState).

Every solver returns a ``BoundState`` carrying ``psi_and_slope``, (psi, psi')
at an array of points from one evaluation, and ``ode``, the coefficients of
psi'' = (b0 + b1 x) psi on each piece of V. At each break a of V a solver
gives only (psi(a), psi'(a-), psi'(a+)); the state derives its one-sided
derivative table (orders 0..5, up to the last that is a float on both sides)
from those and ``ode``, by the Taylor recurrence ``specfun.ode_taylor``, the
same recurrence from which ``momentum.FilonPanels`` expands psi on its panels.
The breaks are the ledger's locations themselves, so the table of a record is
``derivative_table[record.location]``. Numerical differentiation is reserved
for tests, so that tail predictions never inherit finite-difference noise.

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
from operator import index, mul
from typing import Callable

import numpy as np

from . import potentials as pot
from . import specfun
from .errors import NoBoundState, NoConvergence, NoSuchState

# support truncation: exp(-42) ~ 5.7e-19
_DECAY_CUT = 42.0
# highest derivative order in a derivative table, and so the deepest order of
# the predicted tail series: _TABLE_ORDER + 1
_TABLE_ORDER = 5
_FACTORIALS = tuple(math.factorial(k) for k in range(_TABLE_ORDER + 1))
# largest |exponent| of the scale solve_piecewise puts back on its defect: e^700 ~
# 1e304 keeps a defect of order 1 finite, and the positive factor keeps its sign
_MAX_EXP = 700.0
# _brentq's relative stop (scipy's least rtol, 4 eps rounded up); _XTOL only keeps xtol > 0
_RTOL, _XTOL, _MAXITER = 8.9e-16, math.ulp(0.0), 200


@dataclass(frozen=True)
class SideDerivatives:
    """One-sided derivatives psi^(j)(a-) / psi^(j)(a+), j = 0..5 while both are floats."""
    value: float
    left: tuple[float, ...]
    right: tuple[float, ...]


@dataclass
class BoundState:
    energy: float
    n: int
    parity: str                     # 'even' | 'odd' | 'none'
    # (psi, psi') at an array of points, from one evaluation
    psi_and_slope: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    support: tuple[float, float]    # numeric support, |psi| < ~1e-18 outside
    mass: float                     # the spec's units, which the transform,
    hbar: float                     # the prediction and the moments read
    # boundaries of the pieces of V, ascending: psi can kink only there; they
    # need not lie inside the support (the box's walls are its ends)
    breaks: tuple[float, ...] = ()
    # the ODE psi'' = (b0 + b1 x) psi, b0 + b1 x = (2m/hbar^2)(V(x) - E), as
    # (b0, b1) for each of the len(breaks) + 1 regions between consecutive
    # breaks, region i ending at breaks[i]; (0, 0) where psi vanishes (V = inf)
    ode: tuple[tuple[float, float], ...] = ()
    # (psi(a), psi'(a-), psi'(a+)) at each break a
    matching: tuple[tuple[float, float, float], ...] = ()
    osc_scale: float = math.inf     # shortest oscillation wavelength of psi
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
            left, right = tuple(map(mul, _FACTORIALS, left)), tuple(map(mul, _FACTORIALS, right))
            depth = None if all(map(math.isfinite, left + right)) else next(
                j for j, pair in enumerate(zip(left, right)) if not all(map(math.isfinite, pair)))
            self.derivative_table[float(a)] = SideDerivatives(float(value), left[:depth],
                                                              right[:depth])

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


def _sweep(xs, vs, cusps, energy: float, coef: float):
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
    P, Q = 1.0, math.sqrt(coef * (vs[0] - energy))
    log_scale, zeros, rows = 0.0, 0, []
    for i, x in enumerate(xs):
        Qp = Q + coef * cusps[i] * P
        rows.append((P, Q, Qp, log_scale))
        if i + 1 == len(xs):
            break
        P, Q, growth, z = _advance(P, Qp, coef * (vs[i + 1] - energy), xs[i + 1] - x)
        s = max(abs(P), abs(Q))
        P, Q, log_scale, zeros = P / s, Q / s, log_scale + growth + math.log(s), zeros + z
    zeros += _advance(P, Qp, coef * (vs[-1] - energy), math.inf)[3]
    return zeros, Qp + math.sqrt(coef * (vs[-1] - energy)) * P, rows


def _sin_cubic(y: float) -> float:
    """(y - sin y) / y^3, by its Taylor series below y = 1, where the difference cancels."""
    if y >= 1.0:
        return (y - math.sin(y)) / y ** 3
    return sum((-y * y) ** j / math.factorial(2 * j + 3) for j in range(8))


def _brentq(f, a: float, b: float, fa: float | None = None, fb: float | None = None) -> float:
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    A step-for-step port of scipy's ``brentq`` iteration (Brent 1973, ch. 4):
    an inverse quadratic or secant step where it falls well inside the
    bracket, a bisection otherwise. Its one stop, a bracket narrower than
    ``_RTOL`` |x| (x the end where |f| is least), is relative at every scale,
    so it returns the float scipy would with xtol ``_XTOL``, rtol ``_RTOL``
    and maxiter ``_MAXITER``. It needs a root that is a normal float, and no
    end at 0 where |f| is least: there its steps vanish. ``fa`` and ``fb``,
    where given, are f(a) and f(b), which it then does not evaluate. An end
    where f is 0 is returned as the root. Raises ``NoConvergence`` where f is
    NaN, where f(a) and f(b) share a sign, or after ``_MAXITER`` iterations.
    """
    def checked(x, value=None):
        value = f(x) if value is None else value
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
        fcur = checked(xcur)
    raise NoConvergence(f"the root polish did not converge in {_MAXITER} iterations")


def solve_piecewise(spec: pot.Piecewise, n: int = 1, parity: str | None = None) -> BoundState:
    """n-th level of a piecewise-constant V with attractive delta cusps.

    ``spec.pieces()`` gives the boundaries, the region potentials and the
    delta coefficients (-g), all read off the spec's ledger. Levels lie
    between the asymptote min(V_left, V_right) and min(V) - m (sum g)^2 /
    2 hbar^2. Bisecting the Sturm count of ``_sweep`` isolates level n, and
    ``_brentq`` finds the root of its defect with the sweep's scale put
    back: the defect times e^(s - ref), s the log scale ``_sweep`` divided
    out at the last boundary and ref its mean over the bracket's two ends,
    with s - ref clamped to +-``_MAX_EXP``. The factor is positive, so the
    signs that the count and the bracket read are the defect's own; but the
    product is the unscaled defect, analytic in E, where the divided one is
    a sign function whenever the level lives away from the last boundary,
    and Brent would bisect. The bisection goes on until the ends' s lie within
    2 ``_MAX_EXP``, where a weak level beside a strong delta leaves it decades wide.
    """
    n = spec.level_index(n, parity)
    xs, vs, cusps = pieces = spec.pieces()
    m, hbar = spec.mass, spec.hbar
    coef = 2.0 * m / hbar ** 2
    top = min(vs[0], vs[-1])
    bottom = min(vs) - m * sum(cusps) ** 2 / (2.0 * hbar ** 2)
    if not bottom < top:
        raise NoSuchState("no admissible bound-state energy window")
    sweeps = {}

    def sweep(E):
        """(count, defect, log scale divided out, rows) of ``_sweep`` at E, once per E."""
        if E not in sweeps:
            count, d, rows = _sweep(xs, vs, cusps, E, coef)
            sweeps[E] = count, d, rows[-1][3], rows
        return sweeps[E]

    levels, at_top = sweep(top)[:2]
    if levels == 0:
        raise NoBoundState("no level below the asymptote")
    if levels < n:
        raise NoSuchState(f"holds only {levels} bound states, needed {n}")
    # a defect of exactly 0 at top is a zero-energy resonance, which is no
    # level: the bracket must leave top, or _brentq returns it as the root
    resonant = at_top == 0.0
    lo, hi, below_lo, below_hi = bottom, top, 0, levels
    while (((below_lo, below_hi) != (n - 1, n) or (resonant and hi == top)
            or abs(sweep(lo)[2] - sweep(hi)[2]) > 2.0 * _MAX_EXP)
           and lo < 0.5 * (lo + hi) < hi):
        mid = 0.5 * (lo + hi)
        below = sweep(mid)[0]
        if below >= n:
            hi, below_hi = mid, below
        else:
            lo, below_lo = mid, below

    (d_lo, s_lo), (d_hi, s_hi) = sweep(lo)[1:3], sweep(hi)[1:3]
    if d_lo * d_hi > 0.0:
        # the count and the defect's sign disagree only within rounding of a
        # level, or where level n shares its float with a neighbour
        energy = lo if abs(d_lo) < abs(d_hi) else hi
    else:
        ref = 0.5 * (s_lo + s_hi)

        def rescaled(d, s):
            """d times e^(s - ref), the exponent clamped short of overflow."""
            return d * math.exp(min(max(s - ref, -_MAX_EXP), _MAX_EXP))

        fb = rescaled(d_hi, s_hi)
        if fb == 0.0 and below_hi == n:
            # n levels lie below hi, so a 0 there is level n + 1 rounded onto hi (a far
            # delta's own level, a float the bisection can hit): hi keeps the sign (-1)^n
            fb = (-1.0) ** n * math.ulp(0.0)
        energy = _brentq(lambda E: rescaled(*sweep(E)[1:3]), lo, hi,
                         fa=rescaled(d_lo, s_lo), fb=fb)
    return _piecewise_state(spec, pieces, n, energy, sweep(energy)[3])


def _piecewise_state(spec: pot.Piecewise, pieces, n: int, energy: float, left) -> BoundState:
    """The normalised state of ``solve_piecewise`` at its level ``energy``,
    on the ``pieces`` (boundaries, region potentials, delta coefficients),
    from ``left``, the rows of ``_sweep`` at ``energy``.

    psi is built from both ends: the solutions that decay at -infinity and at
    +infinity are joined at the boundary where their product, which near a
    level is proportional to psi^2 (the diagonal of the Green's function), is
    largest, so the rounding of the energy leaves the smallest kink. In a
    region with E < V, psi = D e^(-r(x - a)) + U e^(r(x - b)), so neither term
    exceeds the region's scale; with E >= V, psi = A cos(k(x - a)) +
    B sin(k(x - a))/k. Each region is normalised in closed form, and psi > 0
    as x -> -infinity. Where the pieces are mirror-symmetric, level n is even
    for odd n and odd for even n; otherwise its parity is "none".
    """
    xs, vs, cusps = pieces
    m, hbar = spec.mass, spec.hbar
    coef = 2.0 * m / hbar ** 2
    flipped = ([-x for x in xs[::-1]], vs[::-1], cusps[::-1])
    # pieces mirror-symmetric about 0 are their own mirror image
    mirrored = left if flipped == pieces else _sweep(*flipped, energy, coef)[2]
    right = [(P, -Qp, -Qm, log_scale) for P, Qm, Qp, log_scale in mirrored[::-1]]

    def weight(i):
        """log |psi_L psi_R| at boundary i, which near a level is log psi^2 + const."""
        product = left[i][0] * right[i][0]
        return math.log(abs(product)) + left[i][3] + right[i][3] if product else -math.inf

    j = max(range(len(xs)), key=weight)

    def at_joint(side, i):
        """(psi, psi'(a-), psi'(a+)) of side[i], scaled to psi = 1 at the joint."""
        factor = math.exp(side[i][3] - side[j][3]) / side[j][0]
        return [factor * v for v in side[i][:3]]

    rows = [at_joint(left, i) for i in range(j)] + [at_joint(right, i) for i in range(j, len(xs))]
    rows[j][1] = left[j][1] / left[j][0]
    P, Qm, Qp = zip(*rows)

    betas = [coef * (v - energy) for v in vs]
    if not min(betas[0], betas[-1]) >= np.finfo(float).tiny:    # a subnormal has lost digits
        raise ArithmeticError(f"the level {energy!r} decays at a subnormal 2m(V - E)/hbar^2: "
                              f"{betas[0]!r} on the left, {betas[-1]!r} on the right")
    kap_l, kap_r = math.sqrt(betas[0]), math.sqrt(betas[-1])
    # (a, b, beta, first, second): psi = first e^(-r(x - a)) + second e^(r(x - b))
    # where beta = r^2 > 0, else first cos(k(x - a)) + second sin(k(x - a))/k
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
                      + B * B * 2.0 * w ** 3 * _sin_cubic(2.0 * k * w))
            regions.append((a, b, beta, A, B))
    regions.append((xs[-1], math.inf, betas[-1], P[-1], 0.0))
    scale = math.copysign(1.0 / math.sqrt(norm2), left[j][0])   # psi > 0 as x -> -inf
    regions = [(a, b, beta, scale * c1, scale * c2) for a, b, beta, c1, c2 in regions]
    edges = np.array(xs)

    def piece(i, x):
        """(psi, psi') on region i, stacked."""
        a, b, beta, c1, c2 = regions[i]
        s = x - a
        if beta > 0.0:
            r = math.sqrt(beta)
            down, up = c1 * np.exp(-r * s), c2 * np.exp(r * (x - b))
            return np.array([down + up, r * (up - down)])
        k = math.sqrt(-beta)
        return np.array([c1 * np.cos(k * s) + c2 * s * np.sinc(k * s / math.pi),
                         c2 * np.cos(k * s) - c1 * k * np.sin(k * s)])

    def psi_and_slope(x):
        x = np.asarray(x, dtype=float)
        region = np.searchsorted(edges, x)
        out = np.empty((2,) + x.shape)
        for i in np.unique(region):
            sel = region == i
            out[:, sel] = piece(i, x[sel])
        return tuple(out)

    mirror = (vs == vs[::-1] and cusps == cusps[::-1]
              and len({x + y for x, y in zip(xs, xs[::-1])}) == 1)
    parity = ("even" if n % 2 else "odd") if mirror else "none"
    osc = [2.0 * math.pi / math.sqrt(-b) for b in betas[1:-1] if b < 0]
    return BoundState(energy, n, parity, psi_and_slope,
                      support=(xs[0] - _DECAY_CUT / kap_l, xs[-1] + _DECAY_CUT / kap_r),
                      mass=m, hbar=hbar, breaks=tuple(float(x) for x in xs),
                      ode=tuple((b, 0.0) for b in betas),
                      matching=tuple(tuple(scale * v for v in row) for row in rows),
                      osc_scale=min(osc) if osc else math.inf)


def solve_infinite_well(spec: pot.InfiniteWell, n: int, parity: str | None = None) -> BoundState:
    """Particle in a box on (0, L), n = 1, 2, ..."""
    n = spec.level_index(n, parity)
    L, m, hbar = spec.length, spec.mass, spec.hbar
    k = n * math.pi / L
    amp = math.sqrt(2.0 / L)
    energy = hbar ** 2 * k ** 2 / (2.0 * m)

    def psi_and_slope(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= L)
        kx = k * np.clip(x, 0.0, L)
        return (np.where(inside, amp * np.sin(kx), 0.0),
                np.where(inside, amp * k * np.cos(kx), 0.0))

    parity = "even" if n % 2 == 1 else "odd"   # about the well center
    return BoundState(energy, n, parity, psi_and_slope, support=(0.0, L),
                      mass=m, hbar=hbar, breaks=(0.0, L),
                      ode=((0.0, 0.0), (-k * k, 0.0), (0.0, 0.0)),
                      matching=((0.0, 0.0, amp * k), (0.0, amp * k * (-1.0) ** n, 0.0)),
                      osc_scale=2.0 * L / n)


# walls of the two bouncer ladders closer than this (relative) are one wall
_SHARED_WALL = 1e-12


def solve_linear(spec: pot.Linear, n: int = 1, parity: str | None = None) -> BoundState:
    """A state of V = F z (z > 0), Fbar |z| (z < 0), with (F, Fbar) = ``spec.forces``.

    psi = c_r Ai(z / rho_r + u_r) for z >= 0 and c_l Ai(-z / rho_l + u_l)
    below, with u = -E / e0 on each side, and E is level k =
    ``spec.level_index(n, parity)``. Beside a wall (Fbar = WALL) or at equal
    forces E is e0 times ``pot.airy_level(k, wall)``. Otherwise a Dirichlet
    wall at 0, a rank-one change of the resolvent, cuts the line into two
    bouncers whose merged levels w_1 <= w_2 <= ... interlace the full-line
    ones, w_(k-1) <= E <= w_k (Reed & Simon IV, XIII.15; w_0 = 0), and E is
    the only root of the matching determinant there. The determinant
    vanishes at a wall only when both ladders share it (within
    ``_SHARED_WALL``), and such a wall is a level: if w_(k-1) and w_k are
    shared, E is that wall; otherwise a bracket end shared with its outer
    neighbour moves inward by ``_SHARED_WALL`` before ``_brentq``. The solve
    reads only w_(k-2) .. w_(k+1), from ``specfun.merged_zero_window``, which
    polishes at most eight zeta: the four walls of each ladder that can hold
    them, placed by their asymptotic starts. A kink leaves psi' continuous, so
    the state reports one psi'(0); psi(0) = 0 exactly where E is a zero of
    Ai, and psi'(0) = 0 where it is one of Ai'. psi(0) > 0, or psi'(0) > 0
    where psi(0) = 0.
    """
    k = spec.level_index(n, parity)
    m, hbar = spec.mass, spec.hbar
    force_r, force_l = spec.forces
    wall = force_l == pot.WALL
    rho_r = pot.airy_length(force_r, m, hbar)
    rho_l = rho_r if wall else pot.airy_length(force_l, m, hbar)
    e0_r, e0_l = force_r * rho_r, force_l * rho_l
    if wall or force_l == force_r:
        level = pot.airy_level(k, wall)
        energy, u_r, u_l = e0_r * level, -level, -level
    else:
        def defect(E):
            """Matching determinant at z = 0, from one Airy call per side."""
            ai_r, aip_r = specfun.airy(-E / e0_r)
            ai_l, aip_l = specfun.airy(-E / e0_l)
            return aip_r * ai_l / rho_r + ai_r * aip_l / rho_l

        # walls k - 3 .. k (from 0) of the merged ladder, 0.0 below the first
        lowest, lo, hi, above = specfun.merged_zero_window(k, e0_r, e0_l)

        def shared(low, high):
            """Two neighbouring walls coincide."""
            return high - low <= _SHARED_WALL * high

        if k > 1 and shared(lo, hi):
            energy = hi
        else:
            if k > 2 and shared(lowest, lo):
                lo *= 1.0 + _SHARED_WALL
            if shared(hi, above):
                hi *= 1.0 - _SHARED_WALL
            energy = _brentq(defect, lo, hi)
        u_r, u_l = -energy / e0_r, -energy / e0_l

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
        # psi'(0+) = c_r Ai'(u_r) / rho_r equals psi'(0-) = -c_l Ai'(u_l) / rho_l
        c_r, c_l = apl / rho_l, -apr / rho_r
    # psi(0) and psi'(0) are the means of the two sides, which differ by the
    # residual of the match; at equal forces, where one of them vanishes, the
    # two sides cancel exactly
    value = 0.0 if wall else 0.5 * (c_r * air + c_l * ail)
    slope = c_r * apr / rho_r if wall else 0.5 * (c_r * apr / rho_r - c_l * apl / rho_l)
    # integral of Ai^2 from b to infinity = Ai'(b)^2 - b Ai(b)^2
    norm2 = (c_r * c_r * rho_r * (apr * apr - u_r * air * air)
             + c_l * c_l * rho_l * (apl * apl - u_l * ail * ail))
    scale = math.copysign(1.0 / math.sqrt(norm2), value if value else slope)
    c_r, c_l, value, slope = scale * c_r, scale * c_l, scale * value, scale * slope

    def psi_and_slope(z):
        z = np.asarray(z, dtype=float)
        right = z >= 0.0
        ai, aip = specfun.airy(np.where(right, z / rho_r + u_r, -z / rho_l + u_l))
        return (np.where(right, c_r, c_l) * ai,
                np.where(right, c_r / rho_r, -c_l / rho_l) * aip)

    parity = ("even" if k % 2 else "odd") if force_l == force_r else "none"
    # a wall's left side copies the right one's scales, so it leaves osc_scale as is
    return BoundState(energy, index(n), parity, psi_and_slope,
                      support=(0.0 if wall else -rho_l * (18.0 - u_l), rho_r * (18.0 - u_r)),
                      mass=m, hbar=hbar, breaks=(0.0,),
                      ode=((0.0, 0.0) if wall else (u_l / rho_l ** 2, -1.0 / rho_l ** 3),
                           (u_r / rho_r ** 2, 1.0 / rho_r ** 3)),
                      matching=((value, 0.0 if wall else slope, slope),),
                      osc_scale=min(2.0 * math.pi * rho_r / math.sqrt(-u_r),
                                    2.0 * math.pi * rho_l / math.sqrt(-u_l)))


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
