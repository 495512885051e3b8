"""Airy function Ai, its derivative, and their negative-axis zeros.

Ai and Ai' are scipy's compiled ``scipy.special.airy``; the evaluators take
scalars or arrays. The zeros start from ``scipy.special.ai_zeros`` and get two
Newton steps on ``airy``, which brings them from ~1e-11 to full double
precision.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ai_zeros, airy

_NEWTON_STEPS = 2


def airy_ai(x):
    """Airy function Ai(x) for finite real x (scalar or array)."""
    return airy(x)[0]


def airy_ai_prime(x):
    """Derivative Ai'(x) for finite real x (scalar or array)."""
    return airy(x)[1]


def airy_ai_and_prime(x):
    """(Ai(x), Ai'(x)) from one ``airy`` call, for finite real x (scalar or array)."""
    ai, aip, _, _ = airy(x)
    return ai, aip


def airy_zeros(count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` positive zeta (Ai(-zeta) = 0) and eta (Ai'(-eta) = 0), ascending."""
    if count < 1:
        raise ValueError("zero index must be >= 1")
    a, ap, _, _ = ai_zeros(count)
    zeta, eta = -a, -ap
    for _ in range(_NEWTON_STEPS):
        ai, aip, _, _ = airy(-zeta)
        zeta = zeta + ai / aip
        ai, aip, _, _ = airy(-eta)
        # d/d eta Ai'(-eta) = -Ai''(-eta) = eta * Ai(-eta)
        eta = eta - aip / (eta * ai)
    return zeta, eta


def airy_zero(n: int) -> float:
    """n-th positive zeta with Ai(-zeta) = 0, n >= 1."""
    return float(airy_zeros(n)[0][-1])


def airy_prime_zero(n: int) -> float:
    """n-th positive eta with Ai'(-eta) = 0, n >= 1."""
    return float(airy_zeros(n)[1][-1])
