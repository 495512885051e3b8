"""Normalized bound states for the cataloged potentials.

Every solver returns a ``BoundState`` carrying ``psi_and_slope``, (psi, psi')
at an array of points from one evaluation, and ``ode``, the coefficients of
psi'' = (b0 + b1 x) psi on each piece of V. At each break a of V a solver
gives only (psi(a), psi'(a-), psi'(a+)); the state derives its one-sided
derivative table (orders 0..5 on each side) from those and ``ode``, by the
Taylor recurrence ``ode_taylor``, the same recurrence from which
``momentum.FilonPanels`` expands psi on its panels. Numerical
differentiation is reserved for tests, so that tail predictions never
inherit finite-difference noise.

States are numbered n = 1, 2, ... in order of increasing energy (within each
parity family for the symmetric linear potential).

``shooting_oracle`` is an independent ODE-shooting eigensolver used for
cross-validation only; its state carries ``psi_and_slope`` from a spline,
but no ODE, breaks or derivative table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from . import potentials as pot
from . import specfun
from .errors import NoBoundState, NoConvergence, NoSuchState

# support truncation: exp(-42) ~ 5.7e-19
_DECAY_CUT = 42.0
# highest derivative order in a derivative table
_TABLE_ORDER = 5
_FACTORIALS = tuple(math.factorial(k) for k in range(_TABLE_ORDER + 1))


def ode_taylor(t0, t1, a, g, degree: int) -> list:
    """Taylor coefficients t_0..t_degree of psi(c + h t) in t, where psi'' = (b0 + b1 x) psi.

    They obey (k+1)(k+2) t_(k+2) = A t_k + G t_(k-1), with A = (b0 + b1 c) h^2
    and G = b1 h^3, from t_0 = psi(c) and t_1 = h psi'(c). With h = 1,
    psi^(k)(c) = k! t_k. Takes floats or arrays of one shape, elementwise.
    """
    t = [t0, t1, 0.5 * a * t0]
    for k in range(1, degree - 1):
        t.append((a * t[k] + g * t[k - 1]) / ((k + 1) * (k + 2)))
    return t


@dataclass(frozen=True)
class SideDerivatives:
    """One-sided derivatives psi^(j)(a-) / psi^(j)(a+) for j = 0..5."""
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
    # psi^(0.._TABLE_ORDER) on each side of each break, from matching and ode
    derivative_table: dict[float, SideDerivatives] = field(init=False, repr=False)

    def __post_init__(self):
        self.derivative_table = {}
        # the left side of break i lies in region i, its right side in region i + 1
        for a, (value, slope_l, slope_r), (l0, l1), (r0, r1) in zip(
                self.breaks, self.matching, self.ode, self.ode[1:]):
            left = ode_taylor(value, slope_l, l0 + l1 * a, l1, _TABLE_ORDER)
            right = ode_taylor(value, slope_r, r0 + r1 * a, r1, _TABLE_ORDER)
            self.derivative_table[float(a)] = SideDerivatives(
                float(value), tuple(map(mul, _FACTORIALS, left)),
                tuple(map(mul, _FACTORIALS, right)))

    def psi(self, x):
        """psi at an array of points."""
        return self.psi_and_slope(x)[0]

    def table_at(self, location: float, tol: float = 1e-9) -> SideDerivatives:
        """The table of the break nearest ``location``, if within ``tol``."""
        side = self.derivative_table.get(location)
        if side is None:
            nearest = min(self.derivative_table, key=lambda a: abs(a - location),
                          default=math.inf)
            if abs(nearest - location) > tol:
                raise KeyError(f"no derivative table near x = {location}")
            side = self.derivative_table[nearest]
        return side


def solve_delta(spec: pot.DeltaSum, n: int = 1) -> BoundState:
    """Bound state of a delta sum: closed form for one delta, ``solve_piecewise`` for more."""
    if len(spec.deltas) != 1:
        return solve_piecewise(spec, n)
    if n != 1:
        raise NoSuchState("a single attractive delta holds exactly one bound state")
    g, a = spec.deltas[0]
    m, hbar = spec.mass, spec.hbar
    k0 = m * g / hbar ** 2
    energy = -m * g ** 2 / (2.0 * hbar ** 2)
    amp = math.sqrt(k0)

    def psi_and_slope(x):
        x = np.asarray(x, dtype=float)
        value = amp * np.exp(-k0 * np.abs(x - a))
        return value, -k0 * np.sign(x - a) * value

    half = _DECAY_CUT / k0
    return BoundState(energy, 1, "even" if a == 0 else "none", psi_and_slope,
                      support=(a - half, a + half), mass=m, hbar=hbar, breaks=(a,),
                      ode=((k0 * k0, 0.0),) * 2, matching=((amp, amp * k0, -amp * k0),))


def _advance(P: float, Q: float, beta: float, w: float):
    """Carry (psi, psi') across width w of psi'' = beta psi.

    Returns the new (psi, psi') divided by a positive factor, the log of that
    factor, and the number of zeros of psi in (0, w]. Where beta = r^2 > 0,
    the growing and decaying parts (P +- Q/r)/2 are advanced apart, because
    their sum through tanh(r w) would round a far level's e^(-2 r w) away,
    and the factor is e^(r w) or e^(-r w), whichever part leads at the far
    end. w may be infinite, for the zeros of the last region.
    """
    if beta > 0.0:
        r = math.sqrt(beta)
        up, down = 0.5 * (P + Q / r), 0.5 * (P - Q / r)
        t = math.exp(-2.0 * r * w)
        zeros = up * down < 0.0 and abs(down) > abs(up) >= abs(down) * t
        if abs(up) > abs(down) * t:
            return up + down * t, r * (up - down * t), r * w, int(zeros)
        lead = up / t if up else 0.0        # t > 0 here unless up = 0
        return lead + down, r * (lead - down), -r * w, int(zeros)
    if beta < 0.0:
        k = math.sqrt(-beta)
        phase = math.atan2(k * P, Q)        # psi = R sin(k s + phase)
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
    each boundary a, with psi rescaled at each boundary.
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


def solve_piecewise(spec: pot.DeltaSum | pot.StepSum | pot.HybridDeltaStep,
                    n: int = 1) -> BoundState:
    """n-th level of a piecewise-constant V with attractive delta cusps.

    ``spec.pieces()`` gives the boundaries, the region potentials and the
    delta coefficients (-g). Levels lie between the asymptote
    min(V_left, V_right) and min(V) - m (sum g)^2 / 2 hbar^2. Bisecting the
    Sturm count of ``_sweep`` isolates level n, and ``brentq`` finds the root
    of its defect.
    """
    xs, vs, cusps = spec.pieces()
    m, hbar = spec.mass, spec.hbar
    coef = 2.0 * m / hbar ** 2
    top = min(vs[0], vs[-1])
    bottom = min(vs) - m * sum(cusps) ** 2 / (2.0 * hbar ** 2)
    if n < 1:
        raise NoSuchState("n must be >= 1")
    if not bottom < top:
        raise NoSuchState("no admissible bound-state energy window")
    levels = _sweep(xs, vs, cusps, top, coef)[0]
    if levels == 0:
        raise NoBoundState("no level below the asymptote")
    if levels < n:
        raise NoSuchState(f"holds only {levels} bound states, needed {n}")
    lo, hi, below_lo, below_hi = bottom, top, 0, levels
    while (below_lo, below_hi) != (n - 1, n) and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        below = _sweep(xs, vs, cusps, mid, coef)[0]
        if below >= n:
            hi, below_hi = mid, below
        else:
            lo, below_lo = mid, below

    def defect(E):
        return _sweep(xs, vs, cusps, E, coef)[1]

    d_lo, d_hi = defect(lo), defect(hi)
    if d_lo * d_hi > 0.0:
        # the count and the defect's sign disagree only within rounding of a
        # level, or where level n shares its float with a neighbour
        energy = lo if abs(d_lo) < abs(d_hi) else hi
    else:
        # brentq stops at rtol relative to E, which a chain resolves (its V - E
        # is -E exactly); xtol, far below the depth, only ends a search at E = 0
        energy = brentq(defect, lo, hi, xtol=1e-30 * (top - bottom), rtol=8.9e-16,
                        maxiter=200)
    return _piecewise_state(spec, n, energy)


def _piecewise_state(spec, n: int, energy: float) -> BoundState:
    """The normalised state of ``solve_piecewise`` at its level ``energy``.

    psi is built from both ends: the solutions that decay at -infinity and at
    +infinity are joined at the boundary where their product, which near a
    level is proportional to psi^2 (the diagonal of the Green's function), is
    largest, so the rounding of the energy leaves the smallest kink. In a
    region with E < V, psi = D e^(-r(x - a)) + U e^(r(x - b)), so neither term
    exceeds the region's scale; with E >= V, psi = A cos(k(x - a)) +
    B sin(k(x - a))/k. Each region is normalised in closed form.
    """
    xs, vs, cusps = spec.pieces()
    m, hbar = spec.mass, spec.hbar
    coef = 2.0 * m / hbar ** 2
    left = _sweep(xs, vs, cusps, energy, coef)[2]
    mirrored = _sweep([-x for x in xs[::-1]], vs[::-1], cusps[::-1], energy, coef)[2]
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
        first, last = (region.min(), region.max()) if x.size else (0, 0)
        if first == last:
            return tuple(piece(first, x))
        out = np.empty((2,) + x.shape)
        for i in range(first, last + 1):
            sel = region == i
            out[:, sel] = piece(i, x[sel])
        return tuple(out)

    osc = [2.0 * math.pi / math.sqrt(-b) for b in betas[1:-1] if b < 0]
    return BoundState(energy, n, "none", psi_and_slope,
                      support=(xs[0] - _DECAY_CUT / kap_l, xs[-1] + _DECAY_CUT / kap_r),
                      mass=m, hbar=hbar, breaks=tuple(float(x) for x in xs),
                      ode=tuple((b, 0.0) for b in betas),
                      matching=tuple(tuple(scale * v for v in row) for row in rows),
                      osc_scale=min(osc) if osc else math.inf)


def solve_infinite_well(spec: pot.InfiniteWell, n: int) -> BoundState:
    """Particle in a box on (0, L), n = 1, 2, ..."""
    L, m, hbar = spec.length, spec.mass, spec.hbar
    if n < 1:
        raise NoSuchState("n must be >= 1")
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


def _finite_well_theta(R: float, i: int) -> float:
    """Solve the transcendental matching for the i-th state (i >= 1)."""
    lo = (i - 1) * math.pi / 2.0
    if lo >= R:
        raise NoSuchState(f"finite well holds fewer than {i} bound states")
    hi = min(i * math.pi / 2.0, R)
    if i % 2 == 1:   # even parity: theta*sin(theta) = sqrt(R^2-th^2)*cos(theta)
        f = lambda th: th * math.sin(th) - math.sqrt(max(R * R - th * th, 0.0)) * math.cos(th)
    else:            # odd parity: theta*cos(theta) = -sqrt(R^2-th^2)*sin(theta)
        f = lambda th: th * math.cos(th) + math.sqrt(max(R * R - th * th, 0.0)) * math.sin(th)
    eps = 1e-13 * max(1.0, hi)
    flo, fhi = f(lo + eps), f(hi - eps)
    if flo * fhi > 0:
        raise NoSuchState(f"finite well holds fewer than {i} bound states")
    return brentq(f, lo + eps, hi - eps, xtol=1e-14, rtol=8.9e-16, maxiter=200)


def solve_finite_well(spec: pot.FiniteWell, n: int) -> BoundState:
    """n-th bound state (n = 1 is the ground state) of the square well."""
    if n < 1:
        raise NoSuchState("n must be >= 1")
    m, hbar, V0 = spec.mass, spec.hbar, spec.depth
    c = 0.5 * (spec.a + spec.b)
    w = 0.5 * (spec.b - spec.a)
    R = w * math.sqrt(2.0 * m * V0) / hbar
    theta = _finite_well_theta(R, n)
    k = theta / w
    kappa = math.sqrt(max(R * R - theta * theta, 0.0)) / w
    energy = -V0 + hbar ** 2 * k ** 2 / (2.0 * m)
    even = n % 2 == 1

    if even:
        edge = math.cos(theta)
        inner_norm = w + math.sin(2.0 * theta) / (2.0 * k)
    else:
        edge = math.sin(theta)
        inner_norm = w - math.sin(2.0 * theta) / (2.0 * k)
    amp = 1.0 / math.sqrt(inner_norm + edge * edge / kappa)
    B = amp * edge

    def psi_and_slope(x):
        u = np.asarray(x, dtype=float) - c
        inside = np.abs(u) <= w
        ku = k * u
        cos, sin = np.cos(ku), np.sin(ku)
        outer = B * np.exp(-kappa * (np.abs(u) - w))
        if not even:
            outer = outer * np.sign(u)
        return (np.where(inside, amp * (cos if even else sin), outer),
                np.where(inside, amp * k * (-sin if even else cos),
                         -kappa * np.sign(u) * outer))

    sign_left = 1.0 if even else -1.0
    inner = amp * k * (math.sin(theta) if even else math.cos(theta))    # psi'(a+)
    half = w + _DECAY_CUT / kappa
    return BoundState(energy, n, "even" if even else "odd", psi_and_slope,
                      support=(c - half, c + half), mass=m, hbar=hbar,
                      breaks=(spec.a, spec.b),
                      ode=((kappa * kappa, 0.0), (-k * k, 0.0), (kappa * kappa, 0.0)),
                      matching=((sign_left * B, sign_left * B * kappa, inner),
                                (B, -sign_left * inner, -B * kappa)),
                      osc_scale=2.0 * math.pi / k)


def solve_bouncer(spec: pot.Bouncer, n: int) -> BoundState:
    """n-th bouncer state (n >= 1): shifted Airy function above an infinite floor."""
    if n < 1:
        raise NoSuchState("n must be >= 1")
    rho, e0 = spec.rho, spec.energy_scale
    zeta = specfun.airy_zero(n)
    energy = e0 * zeta
    ap = specfun.airy_ai_prime(-zeta)
    N = 1.0 / (math.sqrt(rho) * ap)

    def psi_and_slope(z):
        z = np.asarray(z, dtype=float)
        ai, aip = specfun.airy_ai_and_prime(np.maximum(z, 0.0) / rho - zeta)
        above = z > 0.0
        return np.where(above, N * ai, 0.0), np.where(above, N / rho * aip, 0.0)

    slope = N * ap / rho
    return BoundState(energy, n, "none", psi_and_slope,
                      support=(0.0, rho * (zeta + 18.0)), mass=spec.mass, hbar=spec.hbar,
                      breaks=(0.0,), ode=((0.0, 0.0), (-zeta / rho ** 2, 1.0 / rho ** 3)),
                      matching=((0.0, 0.0, slope),),
                      osc_scale=2.0 * math.pi * rho / math.sqrt(zeta))


def solve_symmetric_linear(spec: pot.SymmetricLinear, n: int, parity: str) -> BoundState:
    """n-th even or odd state of V = F|z| (n >= 1 within each parity family)."""
    if parity not in ("even", "odd"):
        raise ValueError("parity required for the symmetric linear potential")
    if n < 1:
        raise NoSuchState("n must be >= 1")
    rho, e0 = spec.rho, spec.energy_scale
    if parity == "even":
        eta = specfun.airy_prime_zero(n)
        energy = e0 * eta
        av = specfun.airy_ai(-eta)
        M = 1.0 / (math.sqrt(2.0 * rho * eta) * av)

        def psi_and_slope(z):
            z = np.asarray(z, dtype=float)
            ai, aip = specfun.airy_ai_and_prime(np.abs(z) / rho - eta)
            return M * ai, np.sign(z) * (M / rho) * aip

        matching = ((M * av, 0.0, 0.0),)
        half = rho * (eta + 18.0)
        lam = 2.0 * math.pi * rho / math.sqrt(eta)
        level = eta
    else:
        zeta = specfun.airy_zero(n)
        energy = e0 * zeta
        ap = specfun.airy_ai_prime(-zeta)
        amp = 1.0 / (math.sqrt(rho) * ap) / math.sqrt(2.0)

        def psi_and_slope(z):
            z = np.asarray(z, dtype=float)
            ai, aip = specfun.airy_ai_and_prime(np.abs(z) / rho - zeta)
            return np.sign(z) * amp * ai, (amp / rho) * aip

        slope = amp * ap / rho
        matching = ((0.0, slope, slope),)
        half = rho * (zeta + 18.0)
        lam = 2.0 * math.pi * rho / math.sqrt(zeta)
        level = zeta
    # psi'' = (|z|/rho - level) psi / rho^2 on either side of the kink
    b0, b1 = -level / rho ** 2, 1.0 / rho ** 3
    return BoundState(energy, n, parity, psi_and_slope, support=(-half, half),
                      mass=spec.mass, hbar=spec.hbar, breaks=(0.0,),
                      ode=((b0, -b1), (b0, b1)), matching=matching, osc_scale=lam)


# walls of the two bouncer ladders closer than this (relative) are one wall
_SHARED_WALL = 1e-12


def solve_asymmetric_linear(spec: pot.AsymmetricLinear, n: int = 1) -> BoundState:
    """n-th bound state of V = F z (z > 0), Fbar |z| (z < 0); Airy on each side.

    A Dirichlet wall at z = 0 cuts the line into two bouncers, with levels
    e0_r zeta_k and e0_l zeta_k. The wall is a rank-one change of the
    resolvent, so the merged, sorted bouncer levels w_1 <= w_2 <= ...
    interlace the full-line levels, w_(n-1) <= E_n <= w_n (Reed & Simon IV,
    XIII.15; w_0 = 0), and E_n is the only root of the matching determinant
    in that bracket. The determinant vanishes at a wall only when both
    ladders share it (within ``_SHARED_WALL``, as when F = Fbar), and such a
    wall is itself a level: if w_(n-1) and w_n are shared, E_n is that wall;
    otherwise a bracket end shared with its outer neighbour is moved inward
    by ``_SHARED_WALL`` before ``brentq``.
    """
    if n < 1:
        raise NoSuchState("n must be >= 1")
    m, hbar = spec.mass, spec.hbar
    rho_r = pot.airy_length(spec.force_right, m, hbar)
    rho_l = pot.airy_length(spec.force_left, m, hbar)
    e0_r = spec.force_right * rho_r
    e0_l = spec.force_left * rho_l

    def defect(E):
        """Matching determinant at z = 0, from one Airy call for both sides."""
        ai, aip = specfun.airy_ai_and_prime(np.array([-E / e0_r, -E / e0_l]))
        return float(aip[0] * ai[1] / rho_r + ai[0] * aip[1] / rho_l)

    zeta = specfun.airy_zeros(n)[0]
    walls = np.sort(np.concatenate([e0_r * zeta, e0_l * zeta]))

    def shared(i):
        """Walls i and i + 1 (0-based) coincide."""
        return i >= 0 and walls[i + 1] - walls[i] <= _SHARED_WALL * walls[i + 1]

    if shared(n - 2):
        energy = float(walls[n - 1])
    else:
        lo = float(walls[n - 2]) if n > 1 else 0.0
        hi = float(walls[n - 1])
        if shared(n - 3):
            lo *= 1.0 + _SHARED_WALL
        if shared(n - 1):
            hi *= 1.0 - _SHARED_WALL
        energy = brentq(defect, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)

    ur, ul = -energy / e0_r, -energy / e0_l
    ai, aip = specfun.airy_ai_and_prime(np.array([ur, ul]))
    air, ail = float(ai[0]), float(ai[1])
    apr, apl = float(aip[0]), float(aip[1])
    # Match at 0 by continuity of psi or of psi', whichever is better
    # conditioned. With Ai ~ sin(phase) and Ai' ~ sqrt|u| cos(phase), psi(0)
    # carries the match when sin^2 of the two phases sums to at least 1; at a
    # shared wall psi(0) = 0 is pure rounding and only psi' can match.
    def sin2(a, ap, u):
        t = a * a * max(-u, 1.0)
        return t / (t + ap * ap)

    if sin2(air, apr, ur) + sin2(ail, apl, ul) >= 1.0:
        if abs(ail) >= abs(air):
            c_r, c_l = 1.0, air / ail
        else:
            c_r, c_l = ail / air, 1.0
    else:
        # psi'(0+) = c_r Ai'(ur) / rho_r equals psi'(0-) = -c_l Ai'(ul) / rho_l;
        # signed as the psi branch signs it
        c_r, c_l = apl / rho_l, -apr / rho_r
        if (c_r if abs(ail) >= abs(air) else c_l) < 0.0:
            c_r, c_l = -c_r, -c_l
    # integral of Ai^2 from b to infinity = Ai'(b)^2 - b Ai(b)^2
    norm2 = (c_r * c_r * rho_r * (apr * apr - ur * air * air)
             + c_l * c_l * rho_l * (apl * apl - ul * ail * ail))
    c_r /= math.sqrt(norm2)
    c_l /= math.sqrt(norm2)

    def psi_and_slope(z):
        z = np.asarray(z, dtype=float)
        right = z >= 0.0
        ai, aip = specfun.airy_ai_and_prime(
            np.where(right, z / rho_r + ur, -z / rho_l + ul))
        return (np.where(right, c_r, c_l) * ai,
                np.where(right, c_r / rho_r, -c_l / rho_l) * aip)

    half_r = rho_r * (-ur + 18.0)
    half_l = rho_l * (-ul + 18.0)
    osc = 2.0 * math.pi * min(rho_r / math.sqrt(max(-ur, 1e-12)),
                              rho_l / math.sqrt(max(-ul, 1e-12)))
    return BoundState(energy, n, "none", psi_and_slope, support=(-half_l, half_r),
                      mass=m, hbar=hbar, breaks=(0.0,),
                      ode=((ul / rho_l ** 2, -1.0 / rho_l ** 3),
                           (ur / rho_r ** 2, 1.0 / rho_r ** 3)),
                      matching=((c_r * air, -c_l * apl / rho_l, c_r * apr / rho_r),),
                      osc_scale=osc)


# ---------------------------------------------------------------------------
# independent shooting oracle (tests only)
# ---------------------------------------------------------------------------

def _integrate_inward(spec, energy, x_start, x_end, breakpoints=()):
    """Integrate psi'' = (2m/hbar^2)(V - E) psi from x_start toward x_end.

    Starts on the decaying branch; integrating toward the well keeps the
    physical solution dominant. Returns (psi, psi') at x_end.
    """
    m, hbar = spec.mass, spec.hbar
    coef = 2.0 * m / hbar ** 2

    def rhs(x, y):
        return [y[1], coef * (pot.evaluate(spec, x) - energy) * y[0]]

    kap2 = coef * (pot.evaluate(spec, x_start) - energy)
    kap = math.sqrt(max(kap2, 1e-12))
    # start on the branch that decays away from the well
    y = [1e-6, -kap * 1e-6] if x_end < x_start else [1e-6, kap * 1e-6]
    pts = sorted(set([x_start, x_end] + [b for b in breakpoints
                                         if min(x_start, x_end) < b < max(x_start, x_end)]),
                 reverse=x_end < x_start)
    for u, v in zip(pts[:-1], pts[1:]):
        sol = solve_ivp(rhs, (u, v), y, method="DOP853", rtol=1e-12, atol=1e-300)
        if not sol.success:
            raise NoConvergence(sol.message)
        y = [sol.y[0, -1], sol.y[1, -1]]
    return y


def _linear_reach(spec: pot.Bouncer | pot.SymmetricLinear, E: float) -> float:
    """Turning point E/F plus ten (stretched) Airy lengths: psi is negligible beyond."""
    zt = E / spec.force
    return zt + 10.0 * spec.rho * max(1.0, zt ** (1 / 6))


def shooting_oracle(spec: pot.PotentialSpec, e_bracket: tuple[float, float],
                    n: int = 1, parity: str | None = None) -> BoundState:
    """Eigenvalue by shooting + bisection on a matching defect; for tests.

    The bracket must contain exactly one eigenvalue and the defect must change
    sign across it. Each kind defines its matching defect, the span on which
    psi is tabulated at the found energy, and the joint (x, component) where
    the two inward sweeps that tabulate it meet: they join at equal psi, or
    at equal psi' where the parity zeroes psi there. Integrating outward
    instead, the mode that grows outward, admitted by the energy's last bits,
    would swamp psi.
    """
    m, hbar = spec.mass, spec.hbar
    e_lo, e_hi = e_bracket

    if isinstance(spec, pot.Bouncer):
        def span(E):
            return 0.0, _linear_reach(spec, E)

        def defect(E):
            return _integrate_inward(spec, E, span(E)[1], 0.0)[0]
        joint = (0.0, 0)      # the wall: one sweep from the right
    elif isinstance(spec, pot.SymmetricLinear):
        if parity not in ("even", "odd"):
            raise ValueError("parity required for the symmetric linear potential")
        comp = 0 if parity == "odd" else 1    # odd: psi(0)=0; even: psi'(0)=0

        def span(E):
            zmax = _linear_reach(spec, E)
            return -zmax, zmax

        def defect(E):
            return _integrate_inward(spec, E, span(E)[1], 0.0)[comp]
        joint = (0.0, 1 - comp)
    elif isinstance(spec, pot.AsymmetricLinear):
        rho_r = pot.airy_length(spec.force_right, m, hbar)
        rho_l = pot.airy_length(spec.force_left, m, hbar)

        def span(E):
            return (-(E / spec.force_left + 10.0 * rho_l),
                    E / spec.force_right + 10.0 * rho_r)

        def defect(E):
            zl, zr = span(E)
            yr = _integrate_inward(spec, E, zr, 0.0)
            yl = _integrate_inward(spec, E, zl, 0.0)
            return yr[1] * yl[0] - yl[1] * yr[0]
        joint = (0.0, 0)
    elif isinstance(spec, pot.FiniteWell):
        c = 0.5 * (spec.a + spec.b)
        want_even = n % 2 == 1

        def span(E):
            kappa = math.sqrt(2.0 * m * max(-E, 1e-12)) / hbar
            pad = min(40.0 / kappa, 200.0 * (spec.b - spec.a))
            return spec.a - pad, spec.b + pad

        def defect(E):
            y = _integrate_inward(spec, E, span(E)[1], c, breakpoints=(spec.b,))
            return y[1] if want_even else y[0]
        joint = (c, 0 if want_even else 1)
    elif isinstance(spec, pot.HybridDeltaStep):
        def span(E):
            kappa = math.sqrt(2.0 * m * (-E)) / hbar
            q = math.sqrt(2.0 * m * (-E + spec.step_height)) / hbar
            return -40.0 / kappa, spec.a + 40.0 / q

        def defect(E):
            xl, xr = span(E)
            yr = _integrate_inward(spec, E, xr, 0.0, breakpoints=(spec.a,))
            yl = _integrate_inward(spec, E, xl, 0.0)
            cusp = -2.0 * m * spec.g / hbar ** 2
            return yr[1] * yl[0] - yl[1] * yr[0] - cusp * yl[0] * yr[0]
        joint = (0.0, 0)      # the delta: psi' jumps there
    else:
        raise NoConvergence(f"shooting oracle does not handle {spec.kind}")

    d_lo, d_hi = defect(e_lo), defect(e_hi)
    if d_lo * d_hi > 0:
        raise NoConvergence("defect does not change sign in the energy bracket")
    energy = brentq(defect, e_lo, e_hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)

    # (psi, psi') on a grid of about 4001 points, swept inward from both ends
    # to the joint; every discontinuity of V in the span is a grid node, where
    # the sweep restarts, so no integrator step straddles one
    lo, hi = span(energy)
    x_joint, matched = joint
    cuts = [r.location for r in pot.discontinuities(spec) if lo < r.location < hi]
    coef = 2.0 * m / hbar ** 2

    def rhs(x, y):
        return [y[1], coef * (pot.evaluate(spec, x) - energy) * y[0]]

    def sweep(xs):
        """(psi, psi') at xs, from xs[0] on the branch that decays outward."""
        kap = math.sqrt(max(coef * (pot.evaluate(spec, xs[0]) - energy), 1e-12))
        out = np.empty((2, xs.size))
        out[:, 0] = [1e-6, math.copysign(kap, xs[-1] - xs[0]) * 1e-6]
        stops = [0, *np.flatnonzero(np.isin(xs[1:-1], cuts)) + 1, xs.size - 1]
        for i, j in zip(stops[:-1], stops[1:]):
            out[:, i:j + 1] = solve_ivp(rhs, (xs[i], xs[j]), out[:, i], t_eval=xs[i:j + 1],
                                        method="DOP853", rtol=1e-10, atol=1e-300).y
        return out

    n_left = round(4000 * (x_joint - lo) / (hi - lo))
    xs = np.union1d(np.linspace(x_joint, hi, 4001 - n_left), [c for c in cuts if c > x_joint])
    sides = [(xs, sweep(xs[::-1])[:, ::-1])]
    if n_left:
        xs = np.union1d(np.linspace(lo, x_joint, n_left + 1), [c for c in cuts if c < x_joint])
        left = sweep(xs)
        sides.insert(0, (xs, left * (sides[0][1][matched, 0] / left[matched, -1])))
    # Simpson's rule on each piece between discontinuities, where psi is smooth
    pieces = np.unique([lo, hi, x_joint, *cuts])
    squares = []
    for xs, y in sides:
        for a, b in zip(pieces[:-1], pieces[1:]):
            inside = (xs >= a) & (xs <= b)
            if np.count_nonzero(inside) > 1:
                squares.append(simpson(y[0, inside] ** 2, x=xs[inside]))
    norm = math.sqrt(math.fsum(squares))
    # one interpolant per side of the joint, so psi' may jump there (the
    # delta); at the joint itself the right side's, written last, holds
    splines = [(xs[0], xs[-1], CubicHermiteSpline(xs, y[0] / norm, y[1] / norm))
               for xs, y in sides]

    def psi_and_slope(x):
        x = np.asarray(x, dtype=float)
        psi, slope = np.zeros(x.shape), np.zeros(x.shape)
        for a, b, spline in splines:
            at = (x >= a) & (x <= b)
            psi[at], slope[at] = spline(x[at]), spline(x[at], 1)
        return psi, slope

    return BoundState(energy, n, parity or "none", psi_and_slope, support=(lo, hi),
                      mass=m, hbar=hbar)


# spec type -> solver(spec, n, parity); only the symmetric linear potential
# numbers its states within parity families, the other kinds by n alone
_SOLVERS = {
    pot.DeltaSum: lambda spec, n, parity: solve_delta(spec, n),
    pot.InfiniteWell: lambda spec, n, parity: solve_infinite_well(spec, n),
    pot.FiniteWell: lambda spec, n, parity: solve_finite_well(spec, n),
    pot.StepSum: lambda spec, n, parity: solve_piecewise(spec, n),
    pot.HybridDeltaStep: lambda spec, n, parity: solve_piecewise(spec, n),
    pot.Bouncer: lambda spec, n, parity: solve_bouncer(spec, n),
    pot.SymmetricLinear: solve_symmetric_linear,
    pot.AsymmetricLinear: lambda spec, n, parity: solve_asymmetric_linear(spec, n),
}


def solve(spec: pot.PotentialSpec, n: int = 1, parity: str | None = None) -> BoundState:
    """Dispatch to the closed-form solver for the given potential kind."""
    solver = _SOLVERS.get(type(spec))
    if solver is None:
        raise NoSuchState(f"no closed-form solver for potential kind {spec.kind!r}")
    return solver(spec, n, parity)
