"""Airy function Ai, its derivative, and their negative-axis zeros.

``airy(x)`` gives (Ai(x), Ai'(x)), in three regions:

- On [-32, 16], a degree-11 Taylor polynomial of y'' = x y about the
  nearest anchor x_j = -32 + j / 16, |x - x_j| <= 1/32, summed by Horner.
  The anchors' (Ai, Ai') are committed floats (``_airy_anchors``, generated
  from mpmath by ``tests/airy_anchors.py``), each with the float nearest its
  rest, which Horner adds just before the anchor's value, so that near an
  anchor the result is nearly the correctly rounded one. The higher Taylor
  coefficients come from ``ode_taylor`` on the first call. A
  float is summed on Python floats, and an array of more than 16 points
  over the stacked (Ai, Ai') coefficient table, by the same operations in
  the same order, so both give the same bits.
- Above 16, the DLMF 9.7.5-6 series in 1/zeta, zeta = (2/3) x^(3/2), to its
  14th term.
- Below -32, the modulus-phase forms (DLMF 9.8.20-23) Ai(-t) = M cos theta
  and Ai'(-t) = N sin phi, where M, N and theta + pi/4, phi + pi/4 over
  zeta = (2/3) t^(3/2) are series in t^-3, four terms past the leading one.
  zeta is formed in double-double and reduced by 2 pi before the float
  corrections are added, so the phases stay good to rounding as far out as
  x = -1e6 (the 20,000th zero lies near -2,070); below -1e6 the result is
  NaN.

Against 30-digit mpmath the error is at most 2.3e-16 of max(|Ai|, |Ai'|)
on [-32, 16]. Below -32 the phases are good to about 5e-16, which is up to
1.5e-14 of max(|Ai|, |Ai'|) near x = -2,100, where Ai' can be near a zero
and |Ai| only 1/sqrt|x| of |Ai'|'s amplitude. Above 16 the relative error
is that of zeta, a few units in its last place: 1.7e-13 at x = 100. NaN
gives NaN, +inf gives (0.0, -0.0), its limits, and -inf gives (0.0, NaN):
Ai tends to 0 there and Ai' has no limit.

The k-th zeros zeta_k of Ai(-x) and eta_k of Ai'(-x) start from their
asymptotic expansions (DLMF 9.9.6, 9.9.18-19), zeta_k = T(3 pi (4k - 1) / 8)
and eta_k = U(3 pi (4k - 3) / 8), five terms summed in floats: good to 2e-7
at zeta_2, 4e-6 at eta_2, and to rounding from k ~ 20. The series is poor at
zeta_1 (4e-4) and fails at eta_1, so those two start from 2.338107 and
1.0188. Newton on ``airy`` then polishes each zero until its own step is so
small that the next one would be below rounding. The rule reads nothing but
that zero's step, so a zero is the same float whichever call, ladder or
subset returns it. Past x = -1e6, where ``airy`` is NaN, there is no step to
read: from the 212,206,592nd zero of either on, the polish raises
``NoConvergence`` instead of returning NaN. ``airy_zero(n)`` and
``airy_prime_zero(n)`` polish the n-th zero alone, and ``merged_zero_window``
the eight zeta of two scaled ladders that can hold a given place in their
merged order, found by bisection on the starts with no Airy call.

Every Airy value passes through ``airy``, which the wrappers and Newton
look up among the module's globals on each call, so a patched
``specfun.airy`` is the one they call.

``ode_taylor``, the Taylor recurrence of y'' = (a + g t) y, builds the tables
here and the derivative tables and panels of ``eigensolve`` and ``momentum``.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

import numpy as np

from .errors import NoConvergence

# the Taylor region [_LO, _HI], its anchors _PER_UNIT to a unit apart, and
# the degree of the polynomial about each: its first neglected term is below
# 1e-18 of the scale at the farthest point, 1/32 from the anchor at x = -32
_LO, _HI, _PER_UNIT = -32.0, 16.0, 16.0
_DEGREE = 11
# array sizes at which _stacked turns from a loop of scalar sums to numpy
# passes, and from one pass to blocks
_LOOP, _BLOCK = 16, 4096


# the Taylor tables: the anchors' abscissae, their coefficients of Ai and Ai'
# stacked as an array of shape (degree + 2, 2, anchors), and the same per
# anchor for the scalar sum; filled on the first Airy call of a process, so
# that the kinds with no Airy function never build them
_AT = _TABLE = None
_ROWS: list = []


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


def _build_taylor() -> None:
    """Fill the Taylor tables from ``_airy_anchors``. The coefficients run from
    the highest degree down, and the constant terms come as a float and the
    float nearest its rest, added last. A row of ``_ROWS`` is (abscissa, top
    Ai and Ai' coefficients, (Ai, Ai') pairs down to the rests, Ai, Ai')."""
    global _AT, _TABLE
    from ._airy_anchors import ANCHORS
    ai, ai_lo, aip, aip_lo = np.array([float(v) for v in ANCHORS.split()]).reshape(-1, 4).T
    at = _LO + np.arange(ai.size) / _PER_UNIT
    # Ai'' = x Ai about each anchor x_j, with h = 1
    c = ode_taylor(ai, aip, at, 1.0, _DEGREE + 1)
    table = np.stack([c[_DEGREE:0:-1] + [ai_lo, ai],
                      [(k + 1) * c[k + 1] for k in range(_DEGREE, 0, -1)] + [aip_lo, aip]],
                     axis=1)
    _AT, _TABLE = at, table
    # tuples of floats only, which the cyclic garbage collector stops
    # tracking: as lists, the rows' 10,000 containers added a millisecond to
    # every full collection
    pairs = [tuple(map(tuple, row)) for row in table[1:-1].transpose(2, 0, 1).tolist()]
    _ROWS.extend(zip(at.tolist(), *table[0].tolist(), pairs, *table[-1].tolist()))


# DLMF 9.7.2: (u_k, v_k), k = 13 .. 0, of the 9.7.5-6 series in 1/zeta
_u = tuple(accumulate(range(1, 14), lambda u, k: u * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                      / ((2 * k - 1) * 216 * k), initial=1.0))
_UV = tuple((_u[k], -(6 * k + 1) / (6 * k - 1) * _u[k]) for k in range(13, -1, -1))
# DLMF 9.8.20-23 in s = t^-3, last term first: M^2 pi sqrt(t), N^2 pi / sqrt(t),
# and (theta + pi/4) / zeta - 1, (phi + pi/4) / zeta - 1 over s
_M2 = (1301375075 / 8388608, -425425 / 65536, 1155 / 2048, -5 / 32, 1.0)
_N2 = (-1414538125 / 8388608, 475475 / 65536, -1365 / 2048, 7 / 32, 1.0)
_THETA = (1282031525 / 58720256, -82825 / 65536, 1105 / 6144, -5 / 32)
_PHI = (-206530429 / 8388608, 495271 / 327680, -1463 / 6144, 7 / 32)
# 3 pi in three parts, the first two of 26 bits, so that k times either is
# exact for k < 2^27, which covers t^(3/2) / (3 pi) for t <= 1e6
_3PI = (9.424777746200562, 2.145688178245564e-07, 3.6739403974420594e-16)
_FAR = 1e6
# Dekker's splitter 2^27 + 1, for exact products without fma
_SPLIT = 134217729.0


def _poly(c, s: float) -> float:
    """sum_i c_i s^(n-1-i) by Horner, c last term first."""
    r = 0.0
    for ci in c:
        r = r * s + ci
    return r


def _two_product(a: float, b: float) -> tuple[float, float]:
    """a b as an unevaluated sum p + e of floats (Dekker 1971)."""
    p = a * b
    s = _SPLIT * a
    ah = s - (s - a)
    s = _SPLIT * b
    bh = s - (s - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _far(x: float) -> tuple[float, float]:
    """(Ai(x), Ai'(x)) outside [_LO, _HI], and for NaN."""
    if x > _HI:
        zeta = 2.0 / 3.0 * x * math.sqrt(x)
        e = math.exp(-zeta) / (2.0 * math.sqrt(math.pi))
        if e == 0.0:
            return 0.0, -0.0
        w = -1.0 / zeta
        su = sv = 0.0
        for u, v in _UV:
            su = su * w + u
            sv = sv * w + v
        q = x ** 0.25
        return e / q * su, -e * q * sv
    if x == -math.inf:
        return 0.0, math.nan
    if not x >= -_FAR:
        return math.nan, math.nan
    t = -x
    r = math.sqrt(t)
    # t^(3/2) = q + q_lo in double-double, from sqrt(t) = r + r_lo
    p, p_lo = _two_product(r, r)
    r_lo = ((t - p) - p_lo) / (2.0 * r)
    q, q_lo = _two_product(t, r)
    q_lo += t * r_lo
    k = float(round(q / _3PI[0]))
    zeta = 2.0 / 3.0 * (((q - k * _3PI[0]) - k * _3PI[1]) + (q_lo - k * _3PI[2]))
    s = 1.0 / (t * t * t)
    scaled = 2.0 / 3.0 * q * s
    theta = zeta + scaled * _poly(_THETA, s) - 0.25 * math.pi
    phi = zeta + scaled * _poly(_PHI, s) - 0.25 * math.pi
    return (math.sqrt(_poly(_M2, s) / (math.pi * r)) * math.cos(theta),
            math.sqrt(_poly(_N2, s) * r / math.pi) * math.sin(phi))


def _pair(x: float) -> tuple[float, float]:
    """(Ai(x), Ai'(x)) for a float x."""
    if not _LO <= x <= _HI:
        return _far(x)
    at, ai, aip, pairs, ai0, aip0 = _ROWS[int((x - _LO) * _PER_UNIT + 0.5)]
    h = x - at
    for c, d in pairs:
        ai = ai * h + c
        aip = aip * h + d
    return ai + ai0, aip + aip0


def _stacked(flat: np.ndarray) -> np.ndarray:
    """(Ai, Ai') at the points of a flat float array, as one (2, n) array.

    Up to ``_LOOP`` points go through ``_pair`` one by one: on a 2-core
    Xeon the 22 numpy passes of the stacked Horner sum take about 20 us for
    1 to 32 points, and ``_pair`` about 1.4 us a point. More than ``_BLOCK``
    go in blocks of that size, so that the coefficients gathered for a
    block, 208 bytes a point, stay small."""
    if flat.size <= _LOOP:
        return np.array([_pair(v) for v in flat.tolist()]).reshape(-1, 2).T
    if flat.size > _BLOCK:
        return np.concatenate([_stacked(flat[i:i + _BLOCK])
                               for i in range(0, flat.size, _BLOCK)], axis=1)
    inside = (flat >= _LO) & (flat <= _HI)
    near = flat[inside]
    j = ((near - _LO) * _PER_UNIT + 0.5).astype(np.intp)
    h = near - _AT[j]
    # each row holds one coefficient of Ai at each point, then of Ai'
    coeffs = _TABLE.take(j, axis=2).reshape(_DEGREE + 2, -1)
    h = np.concatenate((h, h))
    acc = coeffs[0].copy()
    for row in coeffs[1:-1]:
        acc *= h
        acc += row
    acc += coeffs[-1]
    if near.size == flat.size:
        return acc.reshape(2, -1)
    out = np.empty((2, flat.size))
    out[:, inside] = acc.reshape(2, -1)
    for i in np.flatnonzero(~inside).tolist():
        out[:, i] = _far(float(flat[i]))
    return out


def airy(x):
    """(Ai(x), Ai'(x)): floats for a float or int, and arrays of x's shape for
    anything else, with the bits of the float calls."""
    if not _ROWS:
        _build_taylor()
    if isinstance(x, (float, int)):
        return _pair(float(x))
    x = np.asarray(x, dtype=float)
    ai, aip = _stacked(x.ravel())
    return ai.reshape(x.shape), aip.reshape(x.shape)


def airy_ai(x):
    """Airy function Ai(x) for real x (scalar or array)."""
    return airy(x)[0]


def airy_ai_prime(x):
    """Derivative Ai'(x) for real x (scalar or array)."""
    return airy(x)[1]


# DLMF 9.9.18-19: T(t) and U(t) are t^(2/3) times sum_i c_i t^(-2i), i = 0..4
_T = (1.0, 5 / 48, -5 / 36, 77125 / 82944, -108056875 / 6967296)
_U = (1.0, -7 / 48, 35 / 288, -181223 / 207360, 18683371 / 1244160)
# the series is good to only 4e-4 at zeta_1, which would cost a second
# Newton step, and fails at eta_1: these two start from constants instead
_ZETA_1, _ETA_1 = 2.338107, 1.0188
# Newton converges cubically on a zero of Ai(-x), where Ai'' = x Ai vanishes,
# leaving an error (zeta / 3) step^3 after a step; and quadratically on one
# of Ai'(-x), leaving step^2 / (2 eta). A step below these (absolute for zeta,
# relative to eta) leaves under 1e-18 relative, so it is the last
_ZETA_STEP = 1e-6
_ETA_STEP = 1e-9


def _series(c, t: float) -> float:
    """t^(2/3) sum_i c_i t^(-2i), i = 0..4, by Horner in floats."""
    u = 1.0 / (t * t)
    return t ** (2.0 / 3.0) * ((((c[4] * u + c[3]) * u + c[2]) * u + c[1]) * u + c[0])


def _check(k) -> int:
    """k as an int, if it is an integer index >= 1 and not a bool."""
    if isinstance(k, bool) or not hasattr(k, "__index__"):
        raise ValueError(f"zero index must be an integer, not {k!r}")
    k = operator.index(k)
    if k < 1:
        raise ValueError("zero index must be >= 1")
    return k


def _start(k: int, derivative: bool) -> float:
    """The start of the k-th eta with ``derivative``, else of the k-th zeta."""
    if k == 1:
        return _ETA_1 if derivative else _ZETA_1
    c, shift = (_U, 3) if derivative else (_T, 1)
    return _series(c, 3.0 * math.pi * (4 * k - shift) / 8.0)


def _polish(x: float, derivative: bool) -> float:
    """Newton on Ai(-x) = 0, or on Ai'(-x) = 0 with ``derivative``, from x,
    up to its last step (``_ZETA_STEP``, ``_ETA_STEP``). A NaN step, where
    ``airy`` is NaN beyond -1e6, raises ``NoConvergence``."""
    while True:
        ai, aip = airy(-x)
        # d/dx Ai(-x) = -Ai'(-x) and d/dx Ai'(-x) = -Ai''(-x) = x Ai(-x)
        step = -aip / (x * ai) if derivative else ai / aip
        if math.isnan(step):
            raise NoConvergence(f"the Airy zero polish met a NaN at x = {x!r}")
        x = x + step
        if not abs(step) > (_ETA_STEP * x if derivative else _ZETA_STEP):
            return float(x)


def airy_zero(n: int) -> float:
    """n-th positive zeta with Ai(-zeta) = 0, n >= 1."""
    return _polish(_start(_check(n), False), False)


def airy_prime_zero(n: int) -> float:
    """n-th positive eta with Ai'(-eta) = 0, n >= 1."""
    return _polish(_start(_check(n), True), True)


def merged_zero_window(k: int, a: float, b: float) -> list[float]:
    """Walls k - 3 .. k (from 0) of the ascending merge of the ladders a zeta_j
    and b zeta_j, j >= 1, for scales a, b > 0; 0.0 stands for a place below
    the first wall. Each is the float the fully polished merged ladder holds.

    Bisection on the starts finds i, how many of the first k walls come from
    the a ladder. Walls i - 2 .. i + 1 of the a ladder and k - i - 2 .. k - i + 1
    of the b ladder, those of them from 1 up, are polished and sorted, and
    wall p is the (p - below)-th of them, with ``below`` the walls of both
    ladders under their first ones. With i exact, a_(i-3) has rank at most k - 4 and
    a_(i+2) at least k + 1, and so for b: the candidates hold ranks k - 3 .. k,
    and exactly ``below`` walls lie under them. Every start is within 1e-6
    relative of its zeta, far inside the gap between neighbouring walls of
    one ladder, so the starts misplace i only at a near-tie of the two
    ladders' boundary walls, and then by one. The tied pair then sits at the
    top of the first k, so the same ranks stay covered.
    """
    k = _check(k)
    i, top = 0, k
    while i < top:
        mid = (i + top + 1) // 2
        if a * _start(mid, False) <= b * _start(k - mid + 1, False):
            i = mid
        else:
            top = mid - 1
    ladders = ((a, range(max(i - 2, 1), i + 2)), (b, range(max(k - i - 2, 1), k - i + 2)))
    zeta = {j: airy_zero(j) for _, js in ladders for j in js}
    walls = sorted(scale * zeta[j] for scale, js in ladders for j in js)
    below = sum(js[0] - 1 for _, js in ladders)
    return [walls[p - below] if p >= 0 else 0.0 for p in range(k - 3, k + 1)]
