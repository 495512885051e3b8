"""Airy function Ai, its derivative, and their negative-axis zeros.

Ai and Ai' are scipy's compiled ``scipy.special.airy``; the evaluators take
scalars or arrays. The zeros start from ``scipy.special.ai_zeros`` and get two
Newton steps on ``airy``, which brings them from ~1e-11 to full double
precision.

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


def airy_zeros(count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` positive zeta (Ai(-zeta) = 0) and eta (Ai'(-eta) = 0), ascending."""
    if count < 1:
        raise ValueError("zero index must be >= 1")
    a, ap, _, _ = _module.ai_zeros(count)
    zeta, eta = -a, -ap
    for _ in range(_NEWTON_STEPS):
        ai, aip, _, _ = _module.airy(-zeta)
        zeta = zeta + ai / aip
        ai, aip, _, _ = _module.airy(-eta)
        # d/d eta Ai'(-eta) = -Ai''(-eta) = eta * Ai(-eta)
        eta = eta - aip / (eta * ai)
    return zeta, eta


def airy_zero(n: int) -> float:
    """n-th positive zeta with Ai(-zeta) = 0, n >= 1."""
    return float(airy_zeros(n)[0][-1])


def airy_prime_zero(n: int) -> float:
    """n-th positive eta with Ai'(-eta) = 0, n >= 1."""
    return float(airy_zeros(n)[1][-1])
