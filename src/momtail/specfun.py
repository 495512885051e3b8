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
``airy_prime_zero(n)`` polish the n-th zero alone, and
``merged_zero_window`` the eight zeta of two scaled ladders that can hold a
given place in their merged order, found by bisection on the starts with no
Airy call.

``scipy.special`` is imported on first use, so the kinds that need no Airy
function load no scipy. ``airy`` is a module attribute, resolved by the
module ``__getattr__`` (PEP 562) and then cached there; the evaluators read
it through the module, so a patched ``airy`` is the one they call.
"""

from __future__ import annotations

import math
import sys

_module = sys.modules[__name__]

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


def _start(k: int, derivative: bool) -> float:
    """The start of the k-th eta with ``derivative``, else of the k-th zeta."""
    if k == 1:
        return _ETA_1 if derivative else _ZETA_1
    c, shift = (_U, 3) if derivative else (_T, 1)
    return _series(c, 3.0 * math.pi * (4 * k - shift) / 8.0)


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


def airy_zero(n: int) -> float:
    """n-th positive zeta with Ai(-zeta) = 0, n >= 1."""
    _check(n)
    return _polish(_start(n, False), False)


def airy_prime_zero(n: int) -> float:
    """n-th positive eta with Ai'(-eta) = 0, n >= 1."""
    _check(n)
    return _polish(_start(n, True), True)


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
    _check(k)
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
