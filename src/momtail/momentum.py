"""Momentum-space wavefunctions phi(p) and their moments.

phi(p) = (1 / sqrt(2 pi hbar)) * integral psi(x) e^{-ipx/hbar} dx.

The general route is a Filon-type quadrature with precomputed moments
(Iserles & Norsett, Proc. R. Soc. A 461, 2005): psi is expanded in Legendre
polynomials on panels whose edges include every kink of psi, and the
oscillatory moments integral P_k(t) e^{-i w t} dt = 2 (-i)^k j_k(w), with
w = |p| hw / hbar, come from a table of spherical Bessel functions j_k(w)
built for all orders at once: by the upward recurrence for k <= w and by
Miller's backward ratio recurrence above. The Legendre coefficients come
from the Schrodinger equation itself: within each piece of V, V is constant
or linear, so psi'' = (b0 + b1 x) psi gives psi's Taylor series about a
panel center from psi and psi' there, and a fixed matrix maps it to
Legendre coefficients. They are computed once per state, for all pending
panels at once, and reused for every p. The panels tile the support as the
norm check's do, cut at the kinks and at the oscillation scale, and are
bisected until the degree-34 expansion resolves psi. The transform builds
one Bessel table per block of momenta for all half-widths together, and
stays in real arithmetic: c_k 2(-i)^k is real for even k and imaginary for
odd k, so the sum over orders is two real matrix products, and the phase
e^{-ipc/hbar} enters as its cosine and sine. The absolute error stays near
machine precision even at p ~ 10^3, where phi itself is ~1e-10.

Closed forms for the single delta and the infinite well are provided as
independent cross-checks, and ``moment`` integrates p^k |phi|^2 with an
analytic large-p remainder taken from a tail prediction. ``norm_check``
integrates psi^2 by adaptive Gauss-Legendre on the same tiling, from samples
of psi alone.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legmulx

from . import potentials as pot
from .eigensolve import BoundState, ode_taylor
from .errors import DivergentMoment, NoSuchState, QuadratureBudgetExceeded

_DEGREE = 34          # highest Taylor and Legendre coefficient kept per panel
_TAIL_COEFFS = 5      # trailing coefficients used for the resolution check
_MAX_PANELS = 4096
_REL_TOL = 1e-12      # resolved: trailing Legendre coefficients and last Taylor
                      # terms below this share of the scale
_PANEL_BLOCK = 32     # panels per block of the transform
_POINT_BLOCK = 1024   # distinct |p| per block of the transform
_ORDERS = np.arange(_DEGREE + 1)
_MOMENT_PHASE = 2.0 * np.array([1.0, -1j, -1.0, 1j])[_ORDERS % 4]   # 2(-i)^k
_RATIO_START = _DEGREE + 40   # backward ratio recurrence starts here with r = 0
_MIN_RESOLUTION = 1e11  # least panel half-width, in ulps of the panel center
_NORM_RULES = (leggauss(16), leggauss(32))    # the norm check's two Gauss rules
_NORM_TOL = 1e-15     # norm check: a panel's |I32 - I16| at acceptance


def _monomial_to_legendre() -> np.ndarray:
    """(_DEGREE + 1)^2 matrix whose column k holds the Legendre coefficients of t^k."""
    out = np.zeros((_DEGREE + 1, _DEGREE + 1))
    column = np.array([1.0])
    for k in range(_DEGREE + 1):
        out[:k + 1, k] = column
        column = legmulx(column)
    return out


_TO_LEGENDRE = _monomial_to_legendre()


@dataclass
class MomentumSamples:
    """phi sampled on a momentum grid, with the route that produced it."""
    grid: np.ndarray
    phi_re: np.ndarray
    phi_im: np.ndarray
    provenance: str     # 'quadrature' | 'closed_form'

    @property
    def phi(self) -> np.ndarray:
        return self.phi_re + 1j * self.phi_im

    @property
    def abs_phi2(self) -> np.ndarray:
        return self.phi_re ** 2 + self.phi_im ** 2

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("p,phi_re,phi_im,abs_phi2\n")
        for p, re, im, a2 in zip(self.grid, self.phi_re, self.phi_im, self.abs_phi2):
            buf.write(f"{p:.17g},{re:.17g},{im:.17g},{a2:.17g}\n")
        return buf.getvalue()


def _from_complex(grid, phi, provenance: str) -> MomentumSamples:
    phi = np.asarray(phi, dtype=complex)
    return MomentumSamples(np.asarray(grid, dtype=float),
                           phi.real.copy(), phi.imag.copy(), provenance)


# ---------------------------------------------------------------------------
# Filon-Legendre quadrature
# ---------------------------------------------------------------------------

def _bessel_table(w: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_k(w), k = 0.._DEGREE, for ascending w >= 0.

    Returns shape (_DEGREE + 1, w.size). Orders k <= floor(w) come from the
    upward recurrence j_{k+1} = (2k+1)/w j_k - j_{k-1}, which is stable
    there. Higher orders come from j_k = r_k j_{k-1}, with the ratios
    r_k = j_k / j_{k-1} from Miller's backward recurrence
    r_k = w / (2k+1 - w r_{k+1}), started at r = 0 forty orders above
    _DEGREE (Gillman & Fiebig, Computers in Physics 2, 62, 1988; DLMF 10.51).
    These r_k have no poles: for k > w the first zero of j_{k-1} lies above k.
    Since w ascends, the columns that take order k from the ratios, those
    with w < k, are a leading slice.
    """
    w = np.asarray(w, dtype=float)
    table = np.empty((_DEGREE + 1, w.size))
    table[0] = np.sin(w) / np.where(w > 0.0, w, 1.0)
    table[0, w == 0.0] = 1.0
    cut = np.searchsorted(w, _ORDERS)       # w[:cut[k]] < k

    up = cut[1]
    wu = w[up:]
    table[1, up:] = (table[0, up:] - np.cos(wu)) / wu
    for k in range(1, _DEGREE):
        table[k + 1, up:] = (2 * k + 1) / wu * table[k, up:] - table[k - 1, up:]

    wl = w[:cut[_DEGREE]]
    ratios = np.empty((_DEGREE + 1, wl.size))
    r = np.zeros(wl.size)
    for k in range(_RATIO_START, 0, -1):
        r = wl / (2 * k + 1 - wl * r)
        if k <= _DEGREE:
            ratios[k] = r
    for k in range(1, _DEGREE + 1):
        low = cut[k]
        table[k, :low] = ratios[k, :low] * table[k - 1, :low]
    return table


def _bisect_until_resolved(state: BoundState, resolved) -> None:
    """Adaptive bisection by generations over the state's support.

    The first generation tiles the support, cut at the state's breaks: each
    interval between kinks of psi is cut into equal panels of one shared
    half-width, none wider than the state's oscillation scale
    ``state.osc_scale``. ``resolved(c, hw)`` takes a
    generation of pending panels (centers, half-widths), keeps what it needs
    of those it accepts and returns their mask. Each rejected panel becomes
    two of exactly half its half-width, which join the next generation.
    Centers are computed from the shared half-width, not from linspace cuts,
    so the half-widths of one interval (and of their bisections) are
    bitwise equal.

    Raises ``QuadratureBudgetExceeded`` before panels outnumber the budget,
    which also stops a panel that never resolves: its descendants double
    every generation. It raises too for a panel narrower than 1e11 ulps of
    its center: the float position of its center cannot place a psi that
    varies on that scale (a panel r ulps wide misplaces psi by ~1/r of its
    width), and its halves are no wider in ulps.
    """
    lo, hi = state.support
    edges = sorted({lo, hi, *(b for b in state.breaks if lo < b < hi)})
    c, hw = [], []
    for u, v in zip(edges[:-1], edges[1:]):
        m = max(1, math.ceil((v - u) / state.osc_scale))
        h = 0.5 * (v - u) / m
        c.extend(u + (2 * i + 1) * h for i in range(m))
        hw.extend([h] * m)
    c, hw = np.array(c), np.array(hw)
    accepted = 0
    while c.size:
        if accepted + c.size > _MAX_PANELS:
            raise QuadratureBudgetExceeded(
                f"needed more than {_MAX_PANELS} panels to resolve psi")
        coarse = hw < _MIN_RESOLUTION * np.spacing(np.abs(c))
        if np.any(coarse):
            i = np.argmax(coarse)
            raise QuadratureBudgetExceeded(
                f"the panel at x = {c[i]:.17g} of half-width {hw[i]:.3g} spans "
                f"fewer than {_MIN_RESOLUTION:.0e} ulps of its center, too few "
                f"to place psi")
        done = resolved(c, hw)
        accepted += np.count_nonzero(done)
        c, hw = c[~done], 0.5 * hw[~done]
        c, hw = np.concatenate([c - hw, c + hw]), np.concatenate([hw, hw])


class FilonPanels:
    """Per-panel Legendre expansion of psi, reusable for every p.

    Panels tile the state's support as ``norm_check``'s do: edges at every
    psi kink, and no panel wider than the state's oscillation scale, so the
    panel count grows with neither the decay length nor the support. Each
    generation of pending panels is expanded together
    (``_panel_coefficients``): one ``state.psi_and_slope`` call at their
    centers, then the Taylor recurrence of the state's ODE, ``state.ode``,
    to degree 34. A panel is accepted when its trailing Legendre
    coefficients and its last Taylor terms are below 1e-12 of the global
    scale; otherwise it is bisected. The tiling, the bisection, the panel
    budget and the resolution rule (``QuadratureBudgetExceeded`` for a panel
    too narrow for its center's float position) are
    ``_bisect_until_resolved``'s, shared with ``norm_check``. So a state's
    panels come in a few groups of equal half-width.

    A state without ODE data (``shooting_oracle``'s spline) raises
    ``ValueError``.
    """

    def __init__(self, state: BoundState):
        if len(state.ode) != len(state.breaks) + 1:
            raise ValueError("the state carries no ODE data to expand psi from")

        centers, halfwidths, coeffs = [], [], []
        scale = 0.0

        def resolved(c, hw):
            nonlocal scale
            ck, truncation = _panel_coefficients(state, c, hw)
            scale = max(scale, np.max(np.abs(ck)))
            tail = np.maximum(np.max(np.abs(ck[:, -_TAIL_COEFFS:]), axis=1), truncation)
            done = tail <= _REL_TOL * max(scale, 1e-300)
            centers.append(c[done])
            halfwidths.append(hw[done])
            coeffs.append(ck[done])
            return done

        _bisect_until_resolved(state, resolved)
        centers = np.concatenate(centers)
        order = np.argsort(centers)
        self.centers = centers[order]
        self.halfwidths = np.concatenate(halfwidths)[order]
        self.coeffs = np.concatenate(coeffs)[order]      # (panels, degree+1)
        # c_k 2(-i)^k is real for even k and imaginary for odd k
        moments = self.coeffs * _MOMENT_PHASE
        self._even, self._odd = moments[:, 0::2].real.copy(), moments[:, 1::2].imag.copy()
        self.hbar = state.hbar

    def transform(self, p: np.ndarray, hbar: float | None = None) -> np.ndarray:
        """phi(p) for an array of momenta (psi assumed real), shaped like p.

        phi is in the state's hbar; an explicit ``hbar`` must equal it.

        A panel with center c and half-width hw contributes
        hw e^{-i|p|c/hbar} sum_k c_k 2(-i)^k j_k(|p| hw/hbar). The Bessel
        tables j_k(|p| hw/hbar) of every half-width come from one recurrence
        pass (``_bessel_table``) per block of distinct |p|, and the sum over
        k is two real matrix products per group of equal half-width: the
        even orders give its real part, the odd orders its imaginary part.
        The phase is applied as cos and sin, so the whole sum stays in real
        arithmetic. Blocks are fixed in size and order, so equal inputs give
        equal outputs.
        """
        pot.check_units(self, hbar=hbar)
        p = np.asarray(p, dtype=float)
        pa, inverse = np.unique(np.abs(p).ravel(), return_inverse=True)
        widths, group = np.unique(self.halfwidths, return_inverse=True)
        members = [np.flatnonzero(group == g) for g in range(widths.size)]
        re, im = np.zeros(pa.size), np.zeros(pa.size)
        for start in range(0, pa.size, _POINT_BLOCK):
            block = slice(start, start + _POINT_BLOCK)
            q = pa[block]
            w = (q * widths[:, None] / self.hbar).ravel()
            order = np.argsort(w, kind="stable")
            table = np.empty((_DEGREE + 1, w.size))
            table[:, order] = _bessel_table(w[order])
            table = table.reshape(_DEGREE + 1, widths.size, q.size)
            for hw, jn, panels in zip(widths, table.transpose(1, 0, 2), members):
                for first in range(0, panels.size, _PANEL_BLOCK):
                    sel = panels[first:first + _PANEL_BLOCK]
                    arg = np.outer(self.centers[sel], q) / self.hbar
                    cos, sin = np.cos(arg), np.sin(arg)
                    even = self._even[sel] @ jn[0::2]
                    odd = self._odd[sel] @ jn[1::2]
                    re[block] += hw * np.sum(even * cos + odd * sin, axis=0)
                    im[block] += hw * np.sum(odd * cos - even * sin, axis=0)
        out = (re + 1j * im) / math.sqrt(2.0 * math.pi * self.hbar)
        out = out[inverse].reshape(p.shape)
        # psi real: phi(-p) = conj(phi(p))
        return np.where(p < 0.0, np.conj(out), out)


def _panel_coefficients(state: BoundState, c: np.ndarray,
                        hw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre coefficients of psi(c + hw t), t in [-1, 1], for each panel.

    With psi'' = (b0 + b1 x) psi in the panel's region, ``ode_taylor`` gives
    the Taylor coefficients t_0..t__DEGREE of psi(c + hw t) from psi(c) and
    psi'(c), and a fixed matrix maps them to Legendre coefficients. Returns
    those, shape (panels, _DEGREE + 1), and per panel the larger of the last
    two Taylor terms, which bounds the dropped rest of the series while its
    terms fall (two terms, because with G = 0 the even and the odd terms are
    independent).
    """
    psi, slope = state.psi_and_slope(c)
    b0, b1 = np.asarray(state.ode)[np.searchsorted(state.breaks, c)].T
    taylor = np.array(ode_taylor(psi, hw * slope, (b0 + b1 * c) * hw ** 2, b1 * hw ** 3,
                                 _DEGREE))
    return (_TO_LEGENDRE @ taylor).T, np.max(np.abs(taylor[-2:]), axis=0)


def phi_quadrature(state: BoundState, grid, hbar: float | None = None) -> MomentumSamples:
    """phi on the grid by Filon-Legendre quadrature of the state's psi, in the
    state's hbar; an explicit ``hbar`` must equal it."""
    pot.check_units(state, hbar=hbar)
    # hbar passed explicitly: a wrapped transform may default it otherwise
    phi = FilonPanels(state).transform(np.asarray(grid, float), state.hbar)
    return _from_complex(grid, phi, "quadrature")


# ---------------------------------------------------------------------------
# norm check
# ---------------------------------------------------------------------------

def norm_check(state: BoundState) -> tuple[float, float]:
    """(integral psi^2 dx, its error estimate), from samples of psi alone.

    Adaptive Gauss-Legendre by generations, on the kink-aware tiling with
    no panel wider than the state's oscillation scale: one ``state.psi``
    call samples every pending panel at its 16 and 32 Gauss nodes. A panel
    is accepted when the two rules agree to 1e-15, and bisected otherwise,
    under the panel budget and resolution rule of ``FilonPanels``
    (``QuadratureBudgetExceeded``), so a noisy psi or one that the float
    centers cannot place is refused. Returns the fsum of the accepted
    32-node integrals and the sum of their |I32 - I16|, an estimate of the
    truncation error only (rounding in psi itself reaches ~5e-15 on supports
    thousands wide). It reads neither ``ode`` nor the solver's closed-form
    normalization, so it checks that normalization rather than repeating it.
    """
    (x16, w16), (x32, w32) = _NORM_RULES
    nodes = np.concatenate([x16, x32])
    integrals, gaps = [], []

    def resolved(c, hw):
        x = c[:, None] + hw[:, None] * nodes
        psi2 = state.psi(x.ravel()).reshape(x.shape) ** 2
        i16 = hw * (psi2[:, :x16.size] @ w16)
        i32 = hw * (psi2[:, x16.size:] @ w32)
        gap = np.abs(i32 - i16)
        done = gap <= _NORM_TOL
        integrals.extend(i32[done])
        gaps.extend(gap[done])
        return done

    _bisect_until_resolved(state, resolved)
    return math.fsum(integrals), math.fsum(gaps)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def phi_closed_delta(spec: pot.DeltaSum, state: BoundState, grid) -> MomentumSamples:
    """Closed-form phi for a sum of attractive deltas.

    phi(p) = (2m / sqrt(2 pi hbar)) * sum_i g_i psi(a_i) e^{-ipa_i/hbar}
             / (p^2 + 2m|E|),
    exact for any bound state of the delta sum given its energy and the psi
    values at the delta locations.
    """
    m, hbar = spec.mass, spec.hbar
    p = np.asarray(grid, dtype=float)
    num = np.zeros(p.shape, dtype=complex)
    for g, a in spec.deltas:
        num += g * state.table_at(a).value * np.exp(-1j * p * a / hbar)
    phi = (2.0 * m / math.sqrt(2.0 * math.pi * hbar)) * num \
        / (p * p + 2.0 * m * abs(state.energy))
    return _from_complex(p, phi, "closed_form")


def phi_closed_well(spec: pot.InfiniteWell, n: int, grid, mass: float | None = None,
                    hbar: float | None = None) -> MomentumSamples:
    """Closed-form phi for the box on (0, L).

    phi_n(p) = sqrt(hbar/2pi) sqrt(2/L) [(-1)^n e^{-ipL/hbar} - 1]
               * p_n / (p^2 - p_n^2),  p_n = n pi hbar / L.
    The removable singularities at p = +-p_n are filled by a Taylor expansion
    in the detuning. Units are the spec's; an explicit ``mass`` or ``hbar``
    must equal them.
    """
    pot.check_units(spec, mass, hbar)
    L, hbar = spec.length, spec.hbar
    if n < 1:
        raise NoSuchState("n must be >= 1")
    pn = n * math.pi * hbar / L
    p = np.asarray(grid, dtype=float)
    pref = math.sqrt(hbar / (2.0 * math.pi)) * math.sqrt(2.0 / L)
    sign = (-1.0) ** n
    phi = np.empty(p.shape, dtype=complex)
    near = np.abs(np.abs(p) - pn) < 1e-4 * pn
    far = ~near
    pf = p[far]
    phi[far] = pref * (sign * np.exp(-1j * pf * L / hbar) - 1.0) \
        * pn / (pf * pf - pn * pn)
    if np.any(near):
        # detuning d = (p - s*p_n) with s = sign(p); expand
        # [(-1)^n e^{-ipL} - 1] / (p^2 - p_n^2) around d = 0. With
        # theta = dL/hbar: (-1)^n e^{-ipL} = e^{-i s n pi} e^{-i theta} (-1)^n
        # = e^{-i theta}, so the bracket is e^{-i theta} - 1 = -i theta(1 - i theta/2 - theta^2/6 ...).
        pnear = p[near]
        s = np.sign(pnear)
        d = pnear - s * pn
        theta = d * L / hbar
        series_over_d = (-1j * L / hbar) * (1.0 - 1j * theta / 2.0
                                            - theta ** 2 / 6.0 + 1j * theta ** 3 / 24.0)
        phi[near] = pref * series_over_d * pn / (pnear + s * pn)
    return _from_complex(p, phi, "closed_form")


# ---------------------------------------------------------------------------
# moments and classical comparison
# ---------------------------------------------------------------------------

def moment(phi_fn, k: int, prediction, p_scale: float = 1.0,
           p_cut: float | None = None) -> float:
    """<p^k> = integral p^k |phi(p)|^2 dp for a real-psi state.

    ``phi_fn(p_array) -> complex phi`` must be cheap to evaluate in bulk.
    ``prediction`` supplies the leading tail exponent e and the leading term
    coefficients: the integral over |p| > p_cut is replaced by the analytic
    remainder of the leading envelope, 2 * A2 / ((2e-k-1) p_cut^(2e-k-1)) with
    A2 the angle-averaged squared envelope. Raises DivergentMoment when
    2e - k <= 1. Odd k vanish by the phi(-p) = conj(phi(p)) symmetry.
    hbar is the one the prediction's terms carry.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if k % 2 == 1:
        return 0.0
    e = prediction.leading_exponent
    if 2 * e - k <= 1:
        raise DivergentMoment(
            f"|phi|^2 ~ p^-{2 * e}: <p^{k}> has a divergent tail integral")
    if p_cut is None:
        p_cut = 2000.0 * max(1.0, p_scale)

    # oscillation of |phi|^2 in p comes from cross terms e^{-ip(a_i - a_j)/hbar}
    locs = sorted({t.location for t in prediction.terms})
    span = (locs[-1] - locs[0]) if len(locs) > 1 else 0.0
    width = 0.5 * p_scale
    if span > 0.0:
        width = min(width, 0.5 * math.pi * prediction.terms[0].hbar / span)

    nodes, weights = leggauss(10)
    m_panels = math.ceil(p_cut / width)
    edges = np.linspace(0.0, p_cut, m_panels + 1)
    c = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    pts = (c[:, None] + hw[:, None] * nodes[None, :]).ravel()
    phi = np.asarray(phi_fn(pts))
    integ = (np.abs(phi) ** 2 * pts ** k).reshape(m_panels, -1)
    numeric = float(np.sum(hw * (integ @ weights)))

    # angle-averaged leading envelope squared: sum over same-location pairs
    # survives; cross-location oscillations integrate to ~0 at large p
    a2 = sum(abs(t.coefficient) ** 2 for t in prediction.leading_terms())
    remainder = a2 / ((2 * e - k - 1) * p_cut ** (2 * e - k - 1))
    return 2.0 * (numeric + remainder)


def parseval_norm(samples: MomentumSamples) -> float:
    """integral |phi|^2 dp over the sampled grid (trapezoid)."""
    return float(np.trapezoid(samples.abs_phi2, samples.grid))


def classical_momentum_density(spec, n: int, p, parity: str | None = None):
    """Classical momentum distribution: flat on |p| <= Q_n, Q_n = sqrt(2mE_n).

    Q_n is the spec's ``classical_q``; kinds without one raise NoSuchState.
    Normalized to unit integral over p.
    """
    qn = spec.classical_q(n, parity)
    p = np.asarray(p, dtype=float)
    return np.where(np.abs(p) <= qn, 1.0 / (2.0 * qn), 0.0)
