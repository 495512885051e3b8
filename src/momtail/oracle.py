"""An independent ODE-shooting eigensolver, for cross-validation only.

``shooting_oracle`` integrates psi'' = (2m/hbar^2)(V - E) psi with scipy's
DOP853 from both ends inward and finds the energy with scipy's ``brentq``
on a matching defect: it shares neither the Sturm count nor the closed
forms of ``eigensolve``'s solvers.
Its state carries ``psi_and_slope`` from a cubic Hermite spline, but no
ODE, breaks or derivative table, on an image that is the spec in its own
units, of length 1 at origin 0. No runtime path imports this module, so a
``momtail`` run does not load scipy's integrators, interpolants or root
finders; ``eigensolve.shooting_oracle`` resolves to it on first use.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from . import potentials as pot
from .eigensolve import BoundState, Level
from .errors import NoConvergence


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

    # in the user's units: an image of length 1 at origin 0, whose energy unit is hbar^2/2m
    units = pot.Units.of(0.0, 1.0, "one", m, hbar)
    return BoundState(Level(energy / units.energy, psi_and_slope, support=(lo, hi)), units, n,
                      parity or "none")
