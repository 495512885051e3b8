"""Airy function Ai, its derivative, and their negative-axis zeros.

Ai and Ai' are scipy's compiled ``scipy.special.airy``; the evaluators take
scalars or arrays. The k-th zeros zeta_k of Ai(-x) and eta_k of Ai'(-x)
start from their asymptotic expansions (DLMF 9.9.6, 9.9.18-19), zeta_k =
T(3 pi (4k - 1) / 8) and eta_k = U(3 pi (4k - 3) / 8), five terms summed in
floats: good to 2e-7 at zeta_2, 4e-6 at eta_2, and to rounding from k ~ 20.
The series is poor at zeta_1 (4e-4) and fails at eta_1, so those two start
from 2.338107 and 1.0188. Newton on ``airy`` then polishes each zero until
its own step is so small that the next one would be below rounding. The
rule reads nothing but that zero's step, so a zero is the same float
whichever call, ladder or subset returns it.

Only the zeros a caller reads are polished: past |x| = 10 ``airy`` takes
scipy's AMOS branch, about six times dearer a point. ``airy_zero(n)`` and
``airy_prime_zero(n)`` polish the n-th zero alone, ``airy_zero_ladder`` the
first ``count`` zeta, and ``merged_zero_window`` the few zeta of two scaled
ladders near a given place in their merged order, found from the starts
and their error bounds with no Airy call.

``scipy.special`` is imported on first use, so the kinds that need no Airy
function load no scipy. ``airy`` is a module attribute, resolved by the
module ``__getattr__`` (PEP 562) and then cached there; the evaluators read
it through the module, so a patched ``airy`` is the one they call.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_module = sys.modules[__name__]

# DLMF 9.9.18-19: T(t) and U(t) are t^(2/3) times sum_i c_i t^(-2i), i = 0..4
_T = (1.0, 5 / 48, -5 / 36, 77125 / 82944, -108056875 / 6967296)
_U = (1.0, -7 / 48, 35 / 288, -181223 / 207360, 18683371 / 1244160)
# T's first omitted coefficient, of t^(-10): twice that term bounds the
# truncation error of a zeta start (0.6 to 0.99 of the term, k = 2..10), and
# 4e-15 its rounding (a start and its polished zeta differ by at most 8.7e-16
# from k = 100 to 20,000)
_T_NEXT = 162375596875 / 334430208
# the series is good to only 4e-4 at zeta_1, which would cost a second
# Newton step, and fails at eta_1: these two start from constants instead
_ZETA_1, _ETA_1 = 2.338107, 1.0188
# Newton converges cubically on a zero of Ai(-x), where Ai'' = x Ai vanishes,
# leaving an error (zeta / 3) step^3 after a step; and quadratically on one
# of Ai'(-x), leaving step^2 / (2 eta). A step below these (absolute for zeta,
# relative to eta) leaves under 1e-18 relative, so it is the last
_ZETA_STEP = 1e-6
_ETA_STEP = 1e-9


def __getattr__(name: str):
    """scipy.special's ``airy``, imported on first access."""
    if name != "airy":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special
    value = globals()[name] = special.airy
    return value


def airy_ai(x):
    """Airy function Ai(x) for finite real x (scalar or array)."""
    return _module.airy(x)[0]


def airy_ai_prime(x):
    """Derivative Ai'(x) for finite real x (scalar or array)."""
    return _module.airy(x)[1]


def airy_ai_and_prime(x):
    """(Ai(x), Ai'(x)) from one ``airy`` call, for finite real x (scalar or array)."""
    ai, aip, _, _ = _module.airy(x)
    return ai, aip


def _series(c, t: float) -> float:
    """t^(2/3) sum_i c_i t^(-2i), i = 0..4, by Horner in floats."""
    u = 1.0 / (t * t)
    return t ** (2.0 / 3.0) * ((((c[4] * u + c[3]) * u + c[2]) * u + c[1]) * u + c[0])


def _check(k: int) -> None:
    if k < 1:
        raise ValueError("zero index must be >= 1")


def _zeta_start(k: int) -> tuple[float, float]:
    """The start s of the k-th zeta and a bound on |s - zeta_k| / s."""
    if k == 1:
        return _ZETA_1, 1e-6
    t = 3.0 * math.pi * (4 * k - 1) / 8.0
    return _series(_T, t), 2.0 * _T_NEXT * t ** -10 + 4e-15


def _eta_start(k: int) -> float:
    """The start of the k-th eta."""
    return _ETA_1 if k == 1 else _series(_U, 3.0 * math.pi * (4 * k - 3) / 8.0)


def _polish(x: float, derivative: bool) -> float:
    """Newton on Ai(-x) = 0, or on Ai'(-x) = 0 with ``derivative``, from x,
    up to its last step (``_ZETA_STEP``, ``_ETA_STEP``)."""
    while True:
        ai, aip, _, _ = _module.airy(-x)
        # d/dx Ai(-x) = -Ai'(-x) and d/dx Ai'(-x) = -Ai''(-x) = x Ai(-x)
        step = -aip / (x * ai) if derivative else ai / aip
        x = x + step
        if not abs(step) > (_ETA_STEP * x if derivative else _ZETA_STEP):
            return float(x)


def airy_zero_ladder(count: int) -> np.ndarray:
    """First ``count`` positive zeta with Ai(-zeta) = 0, ascending."""
    _check(count)
    return np.array([_polish(_zeta_start(k)[0], False) for k in range(1, count + 1)])


def airy_zero(n: int) -> float:
    """n-th positive zeta with Ai(-zeta) = 0, n >= 1."""
    _check(n)
    return _polish(_zeta_start(n)[0], False)


def airy_prime_zero(n: int) -> float:
    """n-th positive eta with Ai'(-eta) = 0, n >= 1."""
    _check(n)
    return _polish(_eta_start(n), True)


def merged_zero_window(k: int, a: float, b: float) -> list[float]:
    """Walls k - 3 .. k (from 0) of the ascending merge of the ladders a zeta_j
    and b zeta_j, j >= 1, for scales a, b > 0; 0.0 stands for a place below
    the first wall. Each is the float the fully polished merged ladder holds.

    The starts s_j place the walls: bisection finds how many of the first k
    come from the a ladder, i, and walls i - 2 .. i + 1 of the a ladder and
    k - i - 2 .. k - i + 1 of the b ladder hold the window. A wall lies within
    e_j s_j of its start (``_zeta_start``), so a wall whose range misses the
    window's band keeps its place; those whose ranges meet it, the band grown
    by each until no other meets it, are polished and sorted among
    themselves. A ladder's neighbouring walls lie further apart than any two
    error bounds, so no wall outside the candidates can meet the band.
    """
    _check(k)
    starts: dict[int, tuple[float, float]] = {}

    def start(j: int) -> tuple[float, float]:
        s = starts.get(j)
        if s is None:
            s = starts[j] = _zeta_start(j)
        return s

    i, top = 0, k
    while i < top:
        mid = (i + top + 1) // 2
        if a * start(mid)[0] <= b * start(k - mid + 1)[0]:
            i = mid
        else:
            top = mid - 1
    # (wall, its lowest and highest value, scale, j), and the count of walls below them
    candidates, below = [], 0
    for scale, end in ((a, i), (b, k - i)):
        first = max(end - 2, 1)
        below += first - 1
        for j in range(first, end + 2):
            s, e = start(j)
            wall = scale * s
            candidates.append((wall, wall * (1.0 - e), wall * (1.0 + e), scale, j))
    candidates.sort()
    group, size = candidates[max(k - 3 - below, 0):k + 1 - below], 0
    while len(group) != size:
        size = len(group)
        low = min(c[1] for c in group)
        high = max(c[2] for c in group)
        group = [c for c in candidates if c[2] >= low and c[1] <= high]
    below += sum(1 for c in candidates if c[2] < low)
    zeta: dict[int, float] = {}
    walls = []
    for _, _, _, scale, j in group:
        if j not in zeta:
            zeta[j] = _polish(starts[j][0], False)
        walls.append(scale * zeta[j])
    walls.sort()
    return [walls[p - below] if p >= 0 else 0.0 for p in range(k - 3, k + 1)]
