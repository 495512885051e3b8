"""Momentum-space wavefunctions phi(p) and their moments.

phi(p) = (1 / sqrt(2 pi hbar)) * integral psi(x) e^{-ipx/hbar} dx.

Both routes transform the state's image (``potentials.Units``): phi(p) =
sqrt(L/hbar) e^{-ipx0/hbar} phi'(p'), p' = pL/hbar, and only that factor
and p' read the units. The general route, ``phi_quadrature``, is a
Filon-type quadrature with precomputed moments (Iserles & Norsett, Proc. R.
Soc. A 461, 2005): psi' is expanded in Legendre polynomials on panels whose
edges include every kink of psi', from the Taylor series that its ODE gives
about each panel center (``FilonPanels``), and the oscillatory moments
integral P_k(t) e^{-i w t} dt = 2 (-i)^k j_k(w), with w = |p'| hw, come from
one table of spherical Bessel functions for all orders (``_bessel_table``).
The transform holds the panels in half-width-group order and sums them in
fixed blocks that may span groups, each block with one table of phases and
one set of sums over its panels. The absolute error stays near machine
precision even at p ~ 10^3, where phi itself is ~1e-10. The same expansion
gives the integral of psi^2 (``FilonPanels.norm``), so psi is expanded once.

``phi_closed`` gives phi in closed form, region by region of the level's
``regions``, for every state whose V is constant between its breaks: the
delta sums, finite wells, step ladders, the delta+step hybrid and the box
(``phi_closed_delta`` and ``phi_closed_well`` call it). In the paper's
terms it is the jump ledger of the large-p series summed to all orders. It
is a cross-check, not a route: ``phi_quadrature`` stays Filon for every
kind, and ``verify`` does not read it, because its large-p series is the
derivative table's own, so scoring the prediction against it would be
circular. ``moment`` integrates
p^k |phi|^2 with an analytic large-p remainder taken from a tail prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss, legmulx

from . import potentials as pot
from .eigensolve import BoundState, Level, solve_infinite_well
from .errors import DivergentMoment, QuadratureBudgetExceeded
from .specfun import ode_taylor

_DEGREE = 34          # highest Taylor and Legendre coefficient kept per panel
_TAIL_COEFFS = 5      # trailing coefficients used for the resolution check
_MAX_PANELS = 4096
_REL_TOL = 1e-12      # resolved: trailing Legendre coefficients and last Taylor
                      # terms below this share of the scale
_PANEL_BLOCK = 64     # panels per block of the transform
_POINT_BLOCK = 1024   # distinct |p| per block of the transform
_ORDERS = np.arange(_DEGREE + 1)
_MOMENT_PHASE = 2.0 * np.array([1.0, -1j, -1.0, 1j])[_ORDERS % 4]   # 2(-i)^k
_MIN_RESOLUTION = 1e11  # least panel half-width, in ulps of the panel center


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
    """phi, complex, sampled on a momentum grid."""
    grid: np.ndarray
    phi: np.ndarray

    @property
    def phi_re(self) -> np.ndarray:
        return self.phi.real

    @property
    def phi_im(self) -> np.ndarray:
        return self.phi.imag

    @property
    def abs_phi2(self) -> np.ndarray:
        return self.phi_re ** 2 + self.phi_im ** 2


# ---------------------------------------------------------------------------
# Filon-Legendre quadrature
# ---------------------------------------------------------------------------

def _ratio_lead() -> int:
    """Orders above ``top`` at which ``_bessel_table``'s ratio recurrence starts.

    Started at order N with r = 0, the backward recurrence errs in r_k by
    about prod_{j=k+1}^{N} r_j^2 of itself. For a column with w < j the
    ratios fall with j (Turan's inequality j_j^2 > j_{j-1} j_{j+1}), so r_j
    lies below the fixed point of r = w / (2j+1 - w r),
    r*_j = 2w / (2j+1 + sqrt((2j+1)^2 - 4w^2)). That bound, at the worst
    column w = top, grows with top, so the least lead that takes
    prod r*_j^2 below eps at top = _DEGREE serves every top.
    """
    bound, j = 1.0, _DEGREE
    while bound >= np.finfo(float).eps:
        j += 1
        fixed_point = 2 * _DEGREE / (2 * j + 1 + math.sqrt((2 * j + 1) ** 2 - 4 * _DEGREE ** 2))
        bound *= fixed_point ** 2
    return j - _DEGREE


_RATIO_LEAD = _ratio_lead()     # 23


def _bessel_table(w: np.ndarray, top: int) -> np.ndarray:
    """Spherical Bessel functions j_k(w), k = 0..top, for ascending w >= 0.

    Returns shape (top + 1, w.size). Order k at the columns with w >= k
    comes from the upward recurrence j_{k+1} = (2k+1)/w j_k - j_{k-1},
    which is stable there and runs over those columns only. The columns
    with w < k take it from j_k = r_k j_{k-1}, with the ratios
    r_k = j_k / j_{k-1} from Miller's backward recurrence
    r_k = w / (2k+1 - w r_{k+1}), started at r = 0 ``_RATIO_LEAD`` orders
    above ``top`` (Gillman & Fiebig, Computers in Physics 2, 62, 1988;
    DLMF 10.51) and run at order k over the columns with w < min(k, top)
    only. These r_k have no poles: for k > w the first zero of j_{k-1} lies
    above k. Since w ascends, the columns of each recurrence are a trailing
    or a leading slice.
    """
    w = np.asarray(w, dtype=float)
    table = np.empty((top + 1, w.size))
    table[0] = np.sin(w) / np.where(w > 0.0, w, 1.0)
    table[0, w == 0.0] = 1.0
    if top == 0:
        return table
    cut = np.searchsorted(w, np.arange(top + 1)).tolist()    # w[:cut[k]] < k

    up = cut[1]
    table[1, up:] = (table[0, up:] - np.cos(w[up:])) / w[up:]
    for k in range(1, top):
        up = cut[k + 1]
        row = table[k + 1, up:]
        np.divide(2 * k + 1, w[up:], out=row)
        row *= table[k, up:]
        row -= table[k - 1, up:]

    ratios = np.empty((top + 1, cut[top]))
    r, scratch = np.zeros(cut[top]), np.empty(cut[top])
    for k in range(top + _RATIO_LEAD, 0, -1):
        low = cut[min(k, top)]
        wl, rl, tl = w[:low], r[:low], scratch[:low]
        np.multiply(wl, rl, out=tl)
        np.subtract(2 * k + 1, tl, out=tl)
        np.divide(wl, tl, out=rl)
        if k <= top:
            ratios[k, :low] = rl
    for k in range(1, top + 1):
        low = cut[k]
        np.multiply(ratios[k, :low], table[k - 1, :low], out=table[k, :low])
    return table


class _PanelRows(NamedTuple):
    """``FilonPanels``' panels in half-width-group order, as ``transform`` reads them."""
    order: np.ndarray       # row -> panel index in center order
    widths: np.ndarray      # the distinct half-widths, ascending: one group each
    phase: np.ndarray       # center per row
    even: np.ndarray        # moment rows, even orders (real part)
    odd: np.ndarray         # moment rows, odd orders (imaginary part)
    cuts: list              # first row of each segment
    blocks: list            # (first row, end row, [(segment, lo, hi, group), ...]) per block


class FilonPanels:
    """Per-panel Legendre expansion of psi, reusable for every p, and psi's norm.

    The panels, ``centers``, ``halfwidths`` and ``coeffs``, are the image's
    (``state.image``), and one rule read off its ODE, ``ode``, tiles its
    support, cut at its breaks: each interval between kinks of psi is cut
    into equal panels of one shared half-width. Where the interval's ODE
    piece is constant and classically forbidden (psi'' = b0 psi, b0 > 0),
    psi does not oscillate, and the panels are no wider than the decay
    length 2 pi / sqrt(b0): over it psi changes by e^(2 pi), so the
    degree-34 expansion resolves them, and their count grows with neither
    the decay length nor the support. Where it is linear (psi'' = (b0 + b1
    x) psi, b1 != 0), they are no wider than pi |b1|^(-1/3), pi Airy
    lengths of that side, nor than ``osc_scale``; elsewhere no panel is
    wider than ``osc_scale``; and none is wider than 1e150, whose hw^2
    would leave the floats. All panels are expanded together
    (``_panel_coefficients``): one ``psi_and_slope`` call at their centers,
    then the Taylor recurrence of the ODE to degree 34. Centers are
    computed from the shared half-width, not from linspace cuts, so a
    state's panels come in a few groups of bitwise equal half-width.

    Raises ``QuadratureBudgetExceeded`` before panels outnumber the budget,
    counted before they are built. It raises too for a panel narrower than
    1e11 ulps of its center: the float position of its center cannot place
    a psi that varies on that scale (a panel r ulps wide misplaces psi by
    ~1/r of its width). It raises for a panel that does not resolve psi,
    one whose trailing Legendre coefficients or last Taylor terms exceed
    1e-12 of the global scale (the largest |c_k|), naming its position,
    half-width and tail. And it raises when two neighbouring expansions
    give psi at their shared edge more than 1e-12 of the scale apart: psi
    is continuous at every break, so expansions that disagree there do not
    reproduce the state's psi.

    ``norm`` is the integral of psi^2, hw sum_k c_k^2 2/(2k+1) summed over
    the panels by ``math.fsum``: it reads no closed-form
    normalization, so it checks the solver's. ``norm_error`` bounds its
    truncation error: with psi at most t off a panel's expansion, t the
    larger of its trailing coefficients and last Taylor terms, psi's L2
    distance there is at most s = sqrt(2 hw) t, which moves the panel's
    integral n by at most 2 s sqrt(n) + s^2; rounding in psi is not in it.

    ``orders`` holds, per panel, the last order k whose |c_k| exceeds
    eps scale / (_DEGREE + 1), with scale the largest |c_k| of the state:
    the orders above it add up to less than one ulp of the scale, so the
    transform, which reads them on each call, drops them. By the same rule
    a panel with no such order (far out in a tail, where psi leaves no
    trace) is not kept at all.

    A state without ODE data (``shooting_oracle``'s spline) raises ValueError.
    """

    def __init__(self, state: BoundState):
        level = state.image
        if len(level.ode) != len(level.breaks) + 1:
            raise ValueError("the state carries no ODE data to expand psi from")

        lo, hi = level.support
        edges = sorted({lo, hi, *(b for b in level.breaks if lo < b < hi)})
        counts = []
        for u, v in zip(edges[:-1], edges[1:]):
            b0, b1 = level.ode[np.searchsorted(level.breaks, 0.5 * (u + v))]
            if b1:
                width = min(level.osc_scale, math.pi * abs(b1) ** (-1.0 / 3.0))
            else:
                width = 2.0 * math.pi / math.sqrt(b0) if b0 > 0.0 else level.osc_scale
            counts.append(max(1, math.ceil((v - u) / min(width, 1e150))))
        # counted before it is built: a very high level's tiling would fill memory
        if sum(counts) > _MAX_PANELS:
            raise QuadratureBudgetExceeded(f"needed more than {_MAX_PANELS} panels to resolve psi")
        centers, halfwidths = [], []
        for u, v, m in zip(edges[:-1], edges[1:], counts):
            h = 0.5 * (v - u) / m
            centers.extend(u + (2 * i + 1) * h for i in range(m))
            halfwidths.extend([h] * m)
        centers, halfwidths = np.array(centers), np.array(halfwidths)
        coarse = halfwidths < _MIN_RESOLUTION * np.spacing(np.abs(centers))
        if np.any(coarse):
            i = np.argmax(coarse)
            raise QuadratureBudgetExceeded(
                f"the panel at x = {centers[i]:.17g} of half-width {halfwidths[i]:.3g} spans "
                f"fewer than {_MIN_RESOLUTION:.0e} ulps of its center, too few to place psi")
        coeffs, truncation = _panel_coefficients(level, centers, halfwidths)
        # C order for the products below, whose rounding follows their operands' layout
        coeffs = np.ascontiguousarray(coeffs)
        scale = np.max(np.abs(coeffs))
        tails = np.maximum(np.max(np.abs(coeffs[:, -_TAIL_COEFFS:]), axis=1), truncation)
        ratio = tails / max(scale, 1e-300)
        if not np.all(ratio <= _REL_TOL):       # NaN fails too
            i = np.argmax(~(ratio <= _REL_TOL))
            raise QuadratureBudgetExceeded(
                f"the panel at x = {centers[i]:.17g} of half-width {halfwidths[i]:.3g} does "
                f"not resolve psi: its tail is {ratio[i]:.3g} of the scale, above {_REL_TOL:g}")

        # psi at a panel's right edge, t = 1, is the sum of its c_k, and at its
        # left edge, t = -1, the alternating sum
        even, odd = coeffs[:, 0::2].sum(axis=1), coeffs[:, 1::2].sum(axis=1)
        jump = np.abs((even + odd)[:-1] - (even - odd)[1:])
        if np.any(jump > _REL_TOL * scale):
            i = np.argmax(jump)
            raise QuadratureBudgetExceeded(
                f"the expansions of psi meeting at x = {centers[i] + halfwidths[i]:.17g} "
                f"differ by {jump[i] / scale:.3g} of the scale: they do not reproduce psi")
        norms = halfwidths * (coeffs ** 2 @ (2.0 / (2 * _ORDERS + 1)))
        self.norm = math.fsum(norms)
        distance = np.sqrt(2.0 * halfwidths) * tails     # L2, psi from its expansion
        self.norm_error = math.fsum(distance * (2.0 * np.sqrt(norms) + distance))

        # the last order above eps scale / (degree+1): the dropped rest of a
        # panel's sum stays below one ulp of the scale; a panel with no such
        # order is dropped whole
        carried = np.abs(coeffs) > np.finfo(float).eps * scale / (_DEGREE + 1)
        kept = carried.any(axis=1)
        self.centers = centers[kept]
        self.halfwidths = halfwidths[kept]
        self.coeffs = coeffs[kept]      # (panels, degree+1)
        self.orders = np.max(np.where(carried[kept], _ORDERS, 0), axis=1)
        self.units = state.units

    @cached_property
    def _rows(self) -> _PanelRows:
        """The panels as ``transform`` reads them, built on its first call, so
        a panel set read only for its norm does not pay for them."""
        order = np.argsort(self.halfwidths, kind="stable")
        hw = self.halfwidths[order]
        widths, firsts = np.unique(hw, return_index=True)
        coeffs = self.coeffs[order]
        # c_k 2(-i)^k is real for even k and imaginary for odd k
        scale = (hw * math.sqrt(1.0 / self.units.momentum) / math.sqrt(2.0 * math.pi))[:, None]
        even = coeffs[:, 0::2] * _MOMENT_PHASE[0::2].real * scale
        odd = coeffs[:, 1::2] * _MOMENT_PHASE[1::2].imag * scale
        # a segment starts at each group's first row and each block's
        cuts = sorted({*firsts.tolist(), *range(0, order.size, _PANEL_BLOCK)})
        groups = (np.searchsorted(firsts, cuts, side="right") - 1).tolist()
        blocks = [(first, min(first + _PANEL_BLOCK, order.size), [])
                  for first in range(0, order.size, _PANEL_BLOCK)]
        for i, (lo, hi, g) in enumerate(zip(cuts, [*cuts[1:], order.size], groups)):
            blocks[lo // _PANEL_BLOCK][2].append((i, lo, hi, g))
        return _PanelRows(order, widths, self.centers[order], even, odd, cuts, blocks)

    def transform(self, p: np.ndarray, hbar: float | None = None) -> np.ndarray:
        """phi(p) for an array of momenta (psi assumed real), shaped like p, in
        the state's hbar; an explicit ``hbar`` must equal it.

        With q = |p'|, a panel with center c and half-width hw contributes hw
        e^{-iqc} sum_k c_k 2(-i)^k j_k(q hw) sqrt(L/hbar) / sqrt(2 pi), summed
        up to the panel's ``orders``, and the sum times e^{-iq x0/L} is phi.
        The Bessel tables j_k(q hw) of every half-width come from one
        recurrence pass (``_bessel_table``) per block of distinct |p|, up to
        the highest order of any panel. The panels are held in
        half-width-group order, and each block of ``_PANEL_BLOCK`` of them,
        which may span groups, takes one table of phases qc, applied as cos
        and sin, and per group two real matrix products over the orders up to
        the segment's highest: the even orders give the real part of the
        moment sum, the odd ones its imaginary part. Four sums over the
        block's panels give phi in real arithmetic. Blocks are fixed in size
        and order, so equal inputs give equal outputs.
        """
        pot.check_units(units := self.units, hbar=hbar)
        p = np.asarray(p, dtype=float)
        pa, inverse = np.unique(np.abs(p).ravel(), return_inverse=True)
        pa = pa / units.momentum
        rows = self._rows
        # the orders are read per call: each segment sums orders 0..k-1
        counts = (np.maximum.reduceat(self.orders[rows.order], rows.cuts) + 1).tolist()
        top = max(counts) - 1
        re, im = np.zeros(pa.size), np.zeros(pa.size)
        for start in range(0, pa.size, _POINT_BLOCK):
            block = slice(start, start + _POINT_BLOCK)
            q = pa[block]
            w = (q * rows.widths[:, None]).ravel()
            order = np.argsort(w, kind="stable")
            table = np.empty((top + 1, w.size))
            table[:, order] = _bessel_table(w[order], top)
            table = table.reshape(top + 1, rows.widths.size, q.size)
            for first, last, segments in rows.blocks:
                arg = np.outer(rows.phase[first:last], q)
                sin = np.sin(arg)
                cos = np.cos(arg, out=arg)
                even, odd = np.empty_like(cos), np.empty_like(cos)
                for i, lo, hi, g in segments:
                    k, jn = counts[i], table[:, g]
                    np.matmul(rows.even[lo:hi, :(k + 1) // 2], jn[0:k:2],
                              out=even[lo - first:hi - first])
                    np.matmul(rows.odd[lo:hi, :k // 2], jn[1:k:2], out=odd[lo - first:hi - first])
                re[block] += np.einsum("pm,pm->m", even, cos) + np.einsum("pm,pm->m", odd, sin)
                im[block] += np.einsum("pm,pm->m", odd, cos) - np.einsum("pm,pm->m", even, sin)
        out = re + 1j * im
        if units.origin:
            out *= np.exp(-1j * pa * (units.origin / units.length))
        out = out[inverse].reshape(p.shape)
        # psi real: phi(-p) = conj(phi(p))
        return np.where(p < 0.0, np.conj(out), out)


def _panel_coefficients(level: Level, c: np.ndarray,
                        hw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre coefficients of the ``level``'s psi(c + hw t), t in [-1, 1], for each panel.

    With psi'' = (b0 + b1 x) psi in the panel's region, ``ode_taylor`` gives
    the Taylor coefficients t_0..t__DEGREE of psi(c + hw t) from psi(c) and
    psi'(c) (no hw^3 where b1 = 0), and a fixed matrix maps them to Legendre
    coefficients. Returns
    those, shape (panels, _DEGREE + 1), and per panel the larger of the last
    two Taylor terms, which bounds the dropped rest of the series while its
    terms fall (two terms, because with G = 0 the even and the odd terms are
    independent).
    """
    psi, slope = level.psi_and_slope(c)
    b0, b1 = np.asarray(level.ode)[np.searchsorted(level.breaks, c)].T
    taylor = np.array(ode_taylor(psi, hw * slope, (b0 + b1 * c) * hw ** 2,
                                 b1 * hw ** np.where(b1, 3, 0), _DEGREE))
    return (_TO_LEGENDRE @ taylor).T, np.max(np.abs(taylor[-2:]), axis=0)


def phi_quadrature(state: BoundState, grid, hbar: float | None = None) -> MomentumSamples:
    """phi on the grid by Filon-Legendre quadrature of the state's psi, in the
    state's hbar; an explicit ``hbar`` must equal it."""
    pot.check_units(state, hbar=hbar)
    # hbar passed explicitly: a wrapped transform may default it otherwise
    grid = np.asarray(grid, dtype=float)
    return MomentumSamples(grid, FilonPanels(state).transform(grid, state.hbar))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _sinc_integral(v: np.ndarray, w: float) -> np.ndarray:
    """integral of e^{-ivs} over 0 < s < w, as w e^{-ivw/2} sinc(vw/2pi): no pole at v = 0."""
    return w * np.exp(-0.5j * v * w) * np.sinc(v * w / (2.0 * math.pi))


def phi_closed(state: BoundState, grid) -> MomentumSamples:
    """Closed-form phi of a state whose V is constant between its breaks.

    Sums the integral of psi e^{-iqx}, q = p', over the image's ``regions``
    (``eigensolve.Level``), and carries it to phi as
    ``FilonPanels.transform`` does. A region with E < V, psi = c1 e^{-r(x -
    a)} + c2 e^{r(x - b)}, has only r +- iq denominators, and an outer one,
    where one coefficient is 0, leaves no factor 1 - e^{-(r +- iq)w}; one
    with E > V, psi = c1 cos k(x - a) + c2 sin k(x - a)/k, is summed through
    ``_sinc_integral`` at q -+ k, so no removable pole appears. A state
    without regions (a linear kind's, the oracle's) and an E equal to a
    region's V (where the c2 term would need its k -> 0 limit) raise ValueError.
    """
    units, regions = state.units, state.image.regions
    if not regions:
        raise ValueError("the state's V is not constant between its breaks")
    p = np.asarray(grid, dtype=float)
    q = p / units.momentum
    total = np.zeros(p.shape, dtype=complex)
    for a, b, beta, c1, c2 in regions:
        w = b - a
        if beta > 0.0:
            r = math.sqrt(beta)
            for c, end, v in ((c1, a, r + 1j * q), (c2, b, r - 1j * q)):
                if c:
                    decay = 1.0 if w == math.inf else 1.0 - np.exp(-v * w)
                    total += c * np.exp(-1j * q * end) * decay / v
        elif beta < 0.0:
            k = math.sqrt(-beta)
            lower, upper = _sinc_integral(q - k, w), _sinc_integral(q + k, w)
            total += np.exp(-1j * q * a) * (c1 * 0.5 * (lower + upper)
                                            + c2 * (lower - upper) / (2j * k))
        else:
            raise ValueError(f"E equals V on the region ({a!r}, {b!r})")
    total *= np.exp(-1j * q * (units.origin / units.length)) * math.sqrt(1.0 / units.momentum)
    return MomentumSamples(p, total / math.sqrt(2.0 * math.pi))


def phi_closed_delta(spec: pot.DeltaSum, state: BoundState, grid) -> MomentumSamples:
    """phi of a bound state of the delta sum ``spec``, by ``phi_closed``."""
    return phi_closed(state, grid)


def phi_closed_well(spec: pot.InfiniteWell, n: int, grid, mass: float | None = None,
                    hbar: float | None = None) -> MomentumSamples:
    """phi of level n of the box, by ``phi_closed``. Units are the spec's; an
    explicit ``mass`` or ``hbar`` must equal them. An n that is no level raises NoSuchState."""
    pot.check_units(spec, mass, hbar)
    return phi_closed(solve_infinite_well(spec, n), grid)


# ---------------------------------------------------------------------------
# moments and classical comparison
# ---------------------------------------------------------------------------

# numeric integration of a moment ends here, in units of max(1, p_scale)
_MOMENT_CUT = 2000.0


def moment(phi_fn, k: int, prediction, p_scale: float = 1.0) -> float:
    """<p^k> = integral p^k |phi(p)|^2 dp for a real-psi state.

    ``phi_fn(p_array) -> complex phi`` must be cheap to evaluate in bulk.
    ``prediction`` supplies the leading tail exponent e and the leading term
    coefficients: the integral over |p| > p_cut = ``_MOMENT_CUT`` max(1, p_scale)
    is replaced by the analytic remainder of the leading envelope,
    2 * A2 / ((2e-k-1) p_cut^(2e-k-1)) with A2 the angle-averaged squared
    envelope. Raises DivergentMoment when 2e - k <= 1. Odd k vanish by the phi(-p) = conj(phi(p)) symmetry.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if k % 2 == 1:
        return 0.0
    e = prediction.leading_exponent
    if 2 * e - k <= 1:
        raise DivergentMoment(
            f"|phi|^2 ~ p^-{2 * e}: <p^{k}> has a divergent tail integral")
    p_cut = _MOMENT_CUT * max(1.0, p_scale)

    # oscillation of |phi|^2 in p comes from cross terms e^{-ip(a_i - a_j)/hbar}
    locs = sorted({t.location for t in prediction.terms})
    span = (locs[-1] - locs[0]) if len(locs) > 1 else 0.0
    width = 0.5 * p_scale
    if span > 0.0:
        width = min(width, 0.5 * math.pi * prediction.units.hbar / span)

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

    Q_n is the spec's ``classical_q``; a kind without one and a request that
    ``spec.level_index`` refuses raise NoSuchState. Normalized to unit integral over p.
    """
    qn = spec.classical_q(n, parity)
    p = np.asarray(p, dtype=float)
    return np.where(np.abs(p) <= qn, 1.0 / (2.0 * qn), 0.0)
