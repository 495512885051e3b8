"""Airy function Ai, its derivative, and their negative-axis zeros.

Ai and Ai' are scipy's compiled ``scipy.special.airy``; the evaluators take
scalars or arrays. The zeros start from ``scipy.special.ai_zeros`` and get two
Newton steps on ``airy``, which brings them from ~1e-11 to full double
precision. Only the zeros a caller returns are polished: ``airy_zero(n)`` and
``airy_prime_zero(n)`` polish the n-th zero alone, and ``airy_zero_ladder``
the zeta ladder alone. Past |x| = 10 ``airy`` takes scipy's AMOS branch,
about ten times dearer a point, so polishing the unread zeros of a ladder
would cost a solve more than the rest of it. Newton acts on each zero on its
own, from the same ``ai_zeros(count)`` start, so a zeta is the same float
whichever of them returns it.

``scipy.special`` is imported on first use, so the kinds that need no Airy
function load no scipy. ``airy`` and ``ai_zeros`` are module attributes,
resolved by the module ``__getattr__`` (PEP 562) and then cached there;
the evaluators read them through the module, so a patched ``airy`` is the
one they call.
"""

from __future__ import annotations

import sys

import numpy as np

_NEWTON_STEPS = 2
_module = sys.modules[__name__]


def __getattr__(name: str):
    """scipy.special's ``airy`` or ``ai_zeros``, imported on first access."""
    if name not in ("airy", "ai_zeros"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special
    value = globals()[name] = getattr(special, name)
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


def _starts(count: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's first ``count`` positive zeta and eta, unpolished."""
    if count < 1:
        raise ValueError("zero index must be >= 1")
    a, ap, _, _ = _module.ai_zeros(count)
    return -a, -ap


def _polish(x, derivative: bool):
    """Newton steps on Ai(-x) = 0, or on Ai'(-x) = 0 with ``derivative``, elementwise."""
    for _ in range(_NEWTON_STEPS):
        ai, aip, _, _ = _module.airy(-x)
        # d/dx Ai(-x) = -Ai'(-x) and d/dx Ai'(-x) = -Ai''(-x) = x Ai(-x)
        x = x - aip / (x * ai) if derivative else x + ai / aip
    return x


def airy_zero_ladder(count: int) -> np.ndarray:
    """First ``count`` positive zeta with Ai(-zeta) = 0, ascending."""
    return _polish(_starts(count)[0], False)


def airy_zero(n: int) -> float:
    """n-th positive zeta with Ai(-zeta) = 0, n >= 1."""
    return float(_polish(_starts(n)[0][-1], False))


def airy_prime_zero(n: int) -> float:
    """n-th positive eta with Ai'(-eta) = 0, n >= 1."""
    return float(_polish(_starts(n)[1][-1], True))
