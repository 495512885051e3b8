"""Normalized bound states for the cataloged potentials.

Every solver returns a ``BoundState`` whose one-sided derivative table
(orders 0..5 on each side of every discontinuity) is filled *analytically*,
by differentiating the closed forms or the Airy ODE. Numerical
differentiation is reserved for tests, so that tail predictions never
inherit finite-difference noise.

States are numbered n = 1, 2, ... in order of increasing energy (within each
parity family for the symmetric linear potential).

``shooting_oracle`` is an independent ODE-shooting eigensolver used for
cross-validation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import potentials as pot
from . import specfun
from .errors import NoBoundState, NoConvergence, NoSuchState

# support truncation: exp(-42) ~ 5.7e-19
_DECAY_CUT = 42.0


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
    psi: Callable[[np.ndarray], np.ndarray]
    derivative_table: dict[float, SideDerivatives]
    support: tuple[float, float]    # numeric support, |psi| < ~1e-18 outside
    mass: float                     # the spec's units, which the transform,
    hbar: float                     # the prediction and the moments read
    breaks: tuple[float, ...] = ()  # kink locations of psi inside the support
    osc_scale: float = math.inf     # shortest oscillation wavelength of psi

    def table_at(self, location: float, tol: float = 1e-9) -> SideDerivatives:
        for a, side in self.derivative_table.items():
            if abs(a - location) <= tol:
                return side
        raise KeyError(f"no derivative table near x = {location}")


def solve_delta(spec: pot.DeltaSum, n: int = 1) -> BoundState:
    """Bound state of a delta sum: closed form for one delta, matching for more."""
    if len(spec.deltas) != 1:
        return _solve_delta_chain(spec, n)
    if n != 1:
        raise NoSuchState("a single attractive delta holds exactly one bound state")
    g, a = spec.deltas[0]
    m, hbar = spec.mass, spec.hbar
    k0 = m * g / hbar ** 2
    energy = -m * g ** 2 / (2.0 * hbar ** 2)
    amp = math.sqrt(k0)

    def psi(x):
        x = np.asarray(x, dtype=float)
        return amp * np.exp(-k0 * np.abs(x - a))

    table = {a: SideDerivatives(
        value=amp,
        left=tuple(amp * k0 ** j for j in range(6)),
        right=tuple(amp * (-k0) ** j for j in range(6)),
    )}
    half = _DECAY_CUT / k0
    return BoundState(energy, 1, "even" if a == 0 else "none", psi, table,
                      support=(a - half, a + half), mass=m, hbar=hbar, breaks=(a,))


def _pc_propagate(P, Q, beta, w):
    """Advance (psi, psi') by width w through a region where psi'' = beta * psi.

    P, Q and beta may be scalars or arrays over energy. With r = sqrt|beta|,
    (P, Q) -> (P c + Q s/r, P beta s/r + Q c), where (c, s) is (cosh, sinh)
    of r w for beta > 0 and (cos, sin) of r w for beta < 0; s/r = w at r = 0.
    """
    beta = np.asarray(beta, dtype=float)
    grows = beta > 0.0
    r = np.sqrt(np.abs(beta))
    x = r * w
    xg = np.where(grows, x, 0.0)        # keeps cosh/sinh finite where unused
    c = np.where(grows, np.cosh(xg), np.cos(x))
    s = np.where(grows, np.sinh(xg), np.sin(x))
    s_r = np.where(r > 0.0, s / np.maximum(r, 1e-300), w)
    return P * c + Q * s_r, P * beta * s_r + Q * c


def _pc_eval(P: float, Q: float, beta: float, w):
    """Vectorized psi over offsets w inside a constant-beta region."""
    w = np.asarray(w, dtype=float)
    if abs(beta) < 1e-300:
        return P + Q * w
    if beta > 0:
        r = math.sqrt(beta)
        return P * np.cosh(r * w) + Q * np.sinh(r * w) / r
    k = math.sqrt(-beta)
    return P * np.cos(k * w) + Q * np.sin(k * w) / k


def _pc_defect(xs, region_v, cusps, E, m, hbar):
    """Decay-matching defect at the last boundary for a piecewise-constant V.

    E may be a scalar or an array of energies; the defect has its shape.
    Starts on the left decaying branch; (psi, psi') are renormalized after each
    region so the defect sign is preserved without overflow.
    """
    E = np.asarray(E, dtype=float)
    coef = 2.0 * m / hbar ** 2
    kap_l = np.sqrt(coef * (region_v[0] - E))
    kap_r = np.sqrt(coef * (region_v[-1] - E))
    P, Q = np.ones_like(E), kap_l
    for i in range(len(xs) - 1):
        Qp = Q + coef * cusps[i] * P
        P, Q = _pc_propagate(P, Qp, coef * (region_v[i + 1] - E), xs[i + 1] - xs[i])
        s = np.maximum(np.maximum(np.abs(P), np.abs(Q)), 1e-280)
        P, Q = P / s, Q / s
    return Q + coef * cusps[-1] * P + kap_r * P


def _solve_piecewise_const(xs, region_v, cusps, n, m, hbar, e_lo, e_hi,
                           n_scan: int = 4001) -> BoundState:
    """Generic bound-state solver for piecewise-constant V with delta cusps.

    ``xs`` are the boundary locations, ``region_v`` the M+1 region potentials,
    ``cusps`` the delta coefficients at each boundary (0 for a plain step).
    States are indexed n = 1, 2, ... in order of increasing energy.
    """
    if n < 1:
        raise NoSuchState("n must be >= 1")
    if not e_lo < e_hi:
        raise NoSuchState("no admissible bound-state energy window")
    coef = 2.0 * m / hbar ** 2
    grid = np.linspace(e_lo, e_hi, n_scan)
    vals = _pc_defect(xs, region_v, cusps, grid, m, hbar)
    cells = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    if cells.size < n:
        raise NoSuchState(f"found only {cells.size} bound states, needed {n}")
    i = cells[n - 1]
    energy = brentq(lambda E: _pc_defect(xs, region_v, cusps, E, m, hbar),
                    grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16, maxiter=200)

    kap_l = math.sqrt(coef * (region_v[0] - energy))
    kap_r = math.sqrt(coef * (region_v[-1] - energy))
    betas = [coef * (v - energy) for v in region_v]
    # unnormalized (psi, psi'-, psi'+) at each boundary
    profile = []
    P, Q = 1.0, kap_l
    for i, x in enumerate(xs):
        Qp = Q + coef * cusps[i] * P
        profile.append((P, Q, Qp))
        if i < len(xs) - 1:
            P, Q = map(float, _pc_propagate(P, Qp, betas[i + 1], xs[i + 1] - x))

    # normalization: analytic outer tails plus Gauss panels over inner regions
    nodes, weights = leggauss(24)

    def raw_psi(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        left = x <= xs[0]
        out[left] = profile[0][0] * np.exp(kap_l * (x[left] - xs[0]))
        right = x >= xs[-1]
        out[right] = profile[-1][0] * np.exp(-kap_r * (x[right] - xs[-1]))
        for i in range(len(xs) - 1):
            seg = (x > xs[i]) & (x <= xs[i + 1])
            if np.any(seg):
                out[seg] = _pc_eval(profile[i][0], profile[i][2], betas[i + 1],
                                    x[seg] - xs[i])
        return out

    norm2 = (profile[0][0] ** 2 / (2.0 * kap_l)
             + profile[-1][0] ** 2 / (2.0 * kap_r))
    for i in range(len(xs) - 1):
        width = xs[i + 1] - xs[i]
        lam = 2.0 * math.pi / math.sqrt(-betas[i + 1]) if betas[i + 1] < 0 else width
        panels = max(1, math.ceil(width / (0.25 * lam)))
        edges = np.linspace(xs[i], xs[i + 1], panels + 1)
        c = 0.5 * (edges[:-1] + edges[1:])[:, None]
        hw = 0.5 * (edges[1] - edges[0])
        pts = (c + hw * nodes[None, :]).ravel()
        v2 = raw_psi(pts).reshape(panels, -1) ** 2
        norm2 += float(np.sum(hw * (v2 @ weights)))
    scale = 1.0 / math.sqrt(norm2)

    def psi(x):
        return scale * raw_psi(x)

    table = {}
    for i, x in enumerate(xs):
        P, Qm, Qp = (scale * v for v in profile[i])
        beta_l, beta_r = betas[i], betas[i + 1]
        left = [P, Qm]
        right = [P, Qp]
        for j in range(4):
            left.append(beta_l * left[j])
            right.append(beta_r * right[j])
        table[float(x)] = SideDerivatives(P, left=tuple(left), right=tuple(right))

    osc = [2.0 * math.pi / math.sqrt(-b) for b in betas[1:-1] if b < 0]
    return BoundState(energy, n, "none", psi, table,
                      support=(xs[0] - _DECAY_CUT / kap_l, xs[-1] + _DECAY_CUT / kap_r),
                      mass=m, hbar=hbar, breaks=tuple(float(x) for x in xs),
                      osc_scale=min(osc) if osc else math.inf)


def _solve_delta_chain(spec: pot.DeltaSum, n: int) -> BoundState:
    """n-th bound state of several attractive deltas on a free line."""
    m, hbar = spec.mass, spec.hbar
    xs = [a for _, a in spec.deltas]
    g_tot = sum(g for g, _ in spec.deltas)
    e_floor = -m * g_tot ** 2 / (2.0 * hbar ** 2)
    return _solve_piecewise_const(xs, [0.0] * (len(xs) + 1),
                                  [-g for g, _ in spec.deltas], n, m, hbar,
                                  e_floor * (1.0 + 1e-9), e_floor * 1e-10)


def solve_step_sum(spec: pot.StepSum, n: int = 1) -> BoundState:
    """n-th bound state of a sum of Heaviside steps (must form a well)."""
    m, hbar = spec.mass, spec.hbar
    xs = [a for a, _ in spec.steps]
    region_v = [0.0] + list(np.cumsum([h for _, h in spec.steps]))
    e_cap = min(region_v[0], region_v[-1])
    e_floor = min(region_v)
    if e_floor >= e_cap:
        raise NoSuchState("step configuration has no well below its asymptotes")
    span = e_cap - e_floor
    return _solve_piecewise_const(xs, region_v, [0.0] * len(xs), n, m, hbar,
                                  e_floor + 1e-12 * span, e_cap - 1e-9 * span)


def solve_infinite_well(spec: pot.InfiniteWell, n: int) -> BoundState:
    """Particle in a box on (0, L), n = 1, 2, ..."""
    L, m, hbar = spec.length, spec.mass, spec.hbar
    if n < 1:
        raise NoSuchState("n must be >= 1")
    k = n * math.pi / L
    amp = math.sqrt(2.0 / L)
    energy = hbar ** 2 * k ** 2 / (2.0 * m)

    def psi(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= L)
        return np.where(inside, amp * np.sin(k * np.clip(x, 0.0, L)), 0.0)

    # d^j/dx^j sin(kx): cycle [sin, cos, -sin, -cos]
    sin_cycle = (0.0, 1.0, 0.0, -1.0)
    right0 = tuple(amp * k ** j * sin_cycle[j % 4] for j in range(6))
    sign = (-1.0) ** n
    leftL = tuple(amp * k ** j * sin_cycle[j % 4] * sign for j in range(6))
    zeros = (0.0,) * 6
    table = {
        0.0: SideDerivatives(0.0, left=zeros, right=right0),
        L: SideDerivatives(0.0, left=leftL, right=zeros),
    }
    parity = "even" if n % 2 == 1 else "odd"   # about the well center
    return BoundState(energy, n, parity, psi, table, support=(0.0, L),
                      mass=m, hbar=hbar, breaks=(0.0, L), osc_scale=2.0 * L / n)


def _finite_well_theta(R: float, i: int) -> float:
    """Solve the transcendental matching for the i-th state (i >= 1)."""
    lo = (i - 1) * math.pi / 2.0
    if lo >= R:
        raise NoSuchState(f"finite well holds fewer than {i} bound states")
    hi = min(i * math.pi / 2.0, R)
    if i % 2 == 1:   # even parity: theta*sin(theta) = sqrt(R^2-th^2)*cos(theta)
        f = lambda th: th * math.sin(th) - math.sqrt(max(R * R - th * th, 0.0)) * math.cos(th)
    else:            # odd parity: theta*cos(theta) + sqrt(R^2-th^2)*sin(theta) = 0... sign flipped
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

    def psi(x):
        u = np.asarray(x, dtype=float) - c
        inner = amp * (np.cos(k * u) if even else np.sin(k * u))
        outer = B * np.exp(-kappa * (np.abs(u) - w))
        if not even:
            outer = outer * np.sign(u)
        return np.where(np.abs(u) <= w, inner, outer)

    # one-sided derivatives at the edges x' = -w and x' = +w
    def trig_derivs(u: float) -> tuple[float, ...]:
        out = []
        for j in range(6):
            if even:
                cyc = (math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t), math.sin)
            else:
                cyc = (math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t))
            out.append(amp * k ** j * cyc[j % 4](k * u))
        return tuple(out)

    exp_right = tuple(B * (-kappa) ** j for j in range(6))
    sign_left = 1.0 if even else -1.0
    exp_left = tuple(sign_left * B * kappa ** j for j in range(6))
    table = {
        spec.a: SideDerivatives(sign_left * B, left=exp_left, right=trig_derivs(-w)),
        spec.b: SideDerivatives(B, left=trig_derivs(w), right=exp_right),
    }
    half = w + _DECAY_CUT / kappa
    return BoundState(energy, n, "even" if even else "odd", psi, table,
                      support=(c - half, c + half), mass=m, hbar=hbar,
                      breaks=(spec.a, spec.b), osc_scale=2.0 * math.pi / k)


def _hybrid_coeffs(spec: pot.HybridDeltaStep, energy):
    """Decay rates and coefficients at a scalar energy or an array of them."""
    m, hbar = spec.mass, spec.hbar
    K = np.sqrt(-2.0 * m * energy) / hbar
    Q = np.sqrt(2.0 * m * (-energy + spec.step_height)) / hbar
    A = 1.0
    Bc = m * spec.g / (hbar ** 2 * K)
    Cc = 1.0 - Bc
    return K, Q, A, Bc, Cc


def solve_hybrid(spec: pot.HybridDeltaStep, n: int = 1) -> BoundState:
    """Bound state of delta at 0 plus step at a, by root of the matching defect.

    E lies below V everywhere except at the single delta, so there is at most
    one bound state: any n other than 1 raises NoSuchState.
    """
    if n != 1:
        raise NoSuchState("a delta plus a step holds at most one bound state")
    m, hbar, a, V0 = spec.mass, spec.hbar, spec.a, spec.step_height
    e_delta = -m * spec.g ** 2 / (2.0 * hbar ** 2)
    e_max = min(0.0, V0)
    e_min = e_delta + min(0.0, V0)
    scale = max(abs(e_min), abs(e_delta))
    e_max -= 1e-12 * scale
    e_min -= 0.1 * scale

    def defect(E):
        """Matching defect at x = a; E may be a scalar or an array."""
        K, Q, A, Bc, Cc = _hybrid_coeffs(spec, np.asarray(E, dtype=float))
        lo, hi = Bc * np.exp(-K * a), Cc * np.exp(K * a)
        return (K * hi - K * lo) + Q * (lo + hi)

    grid = np.linspace(e_min, e_max, 600)
    vals = defect(grid)
    cells = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    if cells.size == 0:
        raise NoBoundState("no root of the matching defect in the admissible window")
    i = cells[0]
    # |e_max| is the smallest |E| in the window, so the tolerance is relative
    energy = brentq(defect, grid[i], grid[i + 1], xtol=8.9e-16 * abs(e_max),
                    rtol=8.9e-16, maxiter=200)

    K, Q, A, Bc, Cc = _hybrid_coeffs(spec, energy)
    D = (Bc * math.exp(-K * a) + Cc * math.exp(K * a)) * math.exp(Q * a)
    norm2 = (A * A / (2 * K)
             + Bc * Bc * (1 - math.exp(-2 * K * a)) / (2 * K)
             + 2 * Bc * Cc * a
             + Cc * Cc * (math.exp(2 * K * a) - 1) / (2 * K)
             + D * D * math.exp(-2 * Q * a) / (2 * Q))
    s = 1.0 / math.sqrt(norm2)
    A, Bc, Cc, D = A * s, Bc * s, Cc * s, D * s

    def psi(x):
        x = np.asarray(x, dtype=float)
        left = A * np.exp(K * np.minimum(x, 0.0))
        mid = Bc * np.exp(-K * x) + Cc * np.exp(K * np.minimum(x, a))
        right = D * np.exp(-Q * np.maximum(x, a))
        return np.where(x < 0.0, left, np.where(x <= a, mid, right))

    table = {
        0.0: SideDerivatives(A,
            left=tuple(A * K ** j for j in range(6)),
            right=tuple(Bc * (-K) ** j + Cc * K ** j for j in range(6))),
        a: SideDerivatives(D * math.exp(-Q * a),
            left=tuple((Bc * (-K) ** j * math.exp(-K * a)
                        + Cc * K ** j * math.exp(K * a)) for j in range(6)),
            right=tuple(D * (-Q) ** j * math.exp(-Q * a) for j in range(6))),
    }
    return BoundState(energy, 1, "none", psi, table,
                      support=(-_DECAY_CUT / K, a + _DECAY_CUT / Q),
                      mass=m, hbar=hbar, breaks=(0.0, a))


def _airy_derivs_at_ai_zero(zeta: float) -> tuple[float, ...]:
    """Ai^(j)(-zeta) for j = 0..5 where Ai(-zeta) = 0, via the Airy ODE."""
    ap = specfun.airy_ai_prime(-zeta)
    return (0.0, ap, 0.0, -zeta * ap, 2.0 * ap, zeta * zeta * ap)


def _airy_derivs_at_aip_zero(eta: float) -> tuple[float, ...]:
    """Ai^(j)(-eta) for j = 0..5 where Ai'(-eta) = 0."""
    av = specfun.airy_ai(-eta)
    return (av, 0.0, -eta * av, av, eta * eta * av, -4.0 * eta * av)


def solve_bouncer(spec: pot.Bouncer, n: int) -> BoundState:
    """n-th bouncer state (n >= 1): shifted Airy function above an infinite floor."""
    if n < 1:
        raise NoSuchState("n must be >= 1")
    rho, e0 = spec.rho, spec.energy_scale
    zeta = specfun.airy_zero(n)
    energy = e0 * zeta
    N = 1.0 / (math.sqrt(rho) * specfun.airy_ai_prime(-zeta))

    def psi(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        mask = z > 0.0
        if np.any(mask):
            out[mask] = N * specfun.airy_ai(z[mask] / rho - zeta)
        return out

    derivs = _airy_derivs_at_ai_zero(zeta)
    table = {0.0: SideDerivatives(0.0,
        left=(0.0,) * 6,
        right=tuple(N * derivs[j] / rho ** j for j in range(6)))}
    return BoundState(energy, n, "none", psi, table,
                      support=(0.0, rho * (zeta + 18.0)), mass=spec.mass, hbar=spec.hbar,
                      breaks=(0.0,), osc_scale=2.0 * math.pi * rho / math.sqrt(zeta))


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
        M = 1.0 / (math.sqrt(2.0 * rho * eta) * specfun.airy_ai(-eta))

        def psi(z):
            z = np.asarray(z, dtype=float)
            return M * specfun.airy_ai(np.abs(z) / rho - eta)

        derivs = _airy_derivs_at_aip_zero(eta)
        right = tuple(M * derivs[j] / rho ** j for j in range(6))
        left = tuple(right[j] * (-1.0) ** j for j in range(6))
        table = {0.0: SideDerivatives(right[0], left=left, right=right)}
        half = rho * (eta + 18.0)
        lam = 2.0 * math.pi * rho / math.sqrt(eta)
    else:
        zeta = specfun.airy_zero(n)
        energy = e0 * zeta
        N = 1.0 / (math.sqrt(rho) * specfun.airy_ai_prime(-zeta))
        amp = N / math.sqrt(2.0)

        def psi(z):
            z = np.asarray(z, dtype=float)
            return np.sign(z) * amp * specfun.airy_ai(np.abs(z) / rho - zeta)

        derivs = _airy_derivs_at_ai_zero(zeta)
        right = tuple(amp * derivs[j] / rho ** j for j in range(6))
        left = tuple(-right[j] * (-1.0) ** j for j in range(6))
        table = {0.0: SideDerivatives(0.0, left=left, right=right)}
        half = rho * (zeta + 18.0)
        lam = 2.0 * math.pi * rho / math.sqrt(zeta)
    return BoundState(energy, n, parity, psi, table, support=(-half, half),
                      mass=spec.mass, hbar=spec.hbar, breaks=(0.0,), osc_scale=lam)


def _airy_derivs(u: float, a0: float, a1: float) -> tuple[float, ...]:
    """Ai^(j)(u) for j = 0..5 from a0 = Ai(u) and a1 = Ai'(u), via the Airy ODE."""
    return (a0, a1, u * a0, a0 + u * a1, 2.0 * a1 + u * u * a0,
            4.0 * u * a0 + u * u * a1)


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

    def psi(z):
        z = np.asarray(z, dtype=float)
        out = np.empty(z.shape)
        right = z >= 0.0
        out[right] = c_r * specfun.airy_ai(z[right] / rho_r + ur)
        out[~right] = c_l * specfun.airy_ai(-z[~right] / rho_l + ul)
        return out

    dr = _airy_derivs(ur, air, apr)
    dl = _airy_derivs(ul, ail, apl)
    right = tuple(c_r * dr[j] / rho_r ** j for j in range(6))
    left = tuple(c_l * (-1.0) ** j * dl[j] / rho_l ** j for j in range(6))
    table = {0.0: SideDerivatives(right[0], left=left, right=right)}
    half_r = rho_r * (-ur + 18.0)
    half_l = rho_l * (-ul + 18.0)
    osc = 2.0 * math.pi * min(rho_r / math.sqrt(max(-ur, 1e-12)),
                              rho_l / math.sqrt(max(-ul, 1e-12)))
    return BoundState(energy, n, "none", psi, table, support=(-half_l, half_r),
                      mass=m, hbar=hbar, breaks=(0.0,), osc_scale=osc)


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
    sign across it. Each kind defines its matching defect and the span on
    which psi is tabulated at the found energy.
    """
    m, hbar = spec.mass, spec.hbar
    e_lo, e_hi = e_bracket

    if isinstance(spec, pot.Bouncer):
        def span(E):
            return 0.0, _linear_reach(spec, E)

        def defect(E):
            return _integrate_inward(spec, E, span(E)[1], 0.0)[0]
    elif isinstance(spec, pot.SymmetricLinear):
        if parity not in ("even", "odd"):
            raise ValueError("parity required for the symmetric linear potential")
        comp = 0 if parity == "odd" else 1    # odd: psi(0)=0; even: psi'(0)=0

        def span(E):
            zmax = _linear_reach(spec, E)
            return -zmax, zmax

        def defect(E):
            return _integrate_inward(spec, E, span(E)[1], 0.0)[comp]
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
    else:
        raise NoConvergence(f"shooting oracle does not handle {spec.kind}")

    d_lo, d_hi = defect(e_lo), defect(e_hi)
    if d_lo * d_hi > 0:
        raise NoConvergence("defect does not change sign in the energy bracket")
    energy = brentq(defect, e_lo, e_hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)

    # wavefunction on a grid, normalized numerically (for qualitative checks)
    xs = np.linspace(*span(energy), 4001)
    coef = 2.0 * m / hbar ** 2

    def rhs(x, y):
        return [y[1], coef * (pot.evaluate(spec, x) - energy) * y[0]]

    sol = solve_ivp(rhs, (xs[-1], xs[0]),
                    [1e-6, 1e-6 * math.sqrt(max(coef * (pot.evaluate(spec, xs[-1]) - energy), 1e-12))],
                    t_eval=xs[::-1], method="DOP853", rtol=1e-10, atol=1e-300)
    vals = sol.y[0][::-1]
    norm = math.sqrt(np.trapezoid(vals * vals, xs))
    spline = CubicSpline(xs, vals / norm)
    lo, hi = float(xs[0]), float(xs[-1])

    def psi(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), spline(np.clip(x, lo, hi)), 0.0)

    return BoundState(energy, n, parity or "none", psi, {}, support=(lo, hi),
                      mass=m, hbar=hbar)


# spec type -> solver(spec, n, parity); only the symmetric linear potential
# numbers its states within parity families, the other kinds by n alone
_SOLVERS = {
    pot.DeltaSum: lambda spec, n, parity: solve_delta(spec, n),
    pot.InfiniteWell: lambda spec, n, parity: solve_infinite_well(spec, n),
    pot.FiniteWell: lambda spec, n, parity: solve_finite_well(spec, n),
    pot.StepSum: lambda spec, n, parity: solve_step_sum(spec, n),
    pot.HybridDeltaStep: lambda spec, n, parity: solve_hybrid(spec, n),
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
