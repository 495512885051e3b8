"""Power-law fits of sampled momentum tails and agreement scoring.

``fit_power_law`` does an ordinary least-squares line in (log p, log |phi|)
and reports exponent, coefficient, and r^2. It deliberately refuses
oscillatory data (low r^2) instead of averaging through it; multi-location
interference patterns belong to ``compare``, which scores the phase-summed
prediction pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPowerLaw
from .momentum import MomentumSamples

CONCLUSIVE_R2 = 0.999
_MIN_SAMPLES = 20


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law |phi| ~ coefficient * p^exponent."""
    exponent: float
    coefficient: float
    r_squared: float
    window: tuple[float, float]
    n_points: int

    @property
    def conclusive(self) -> bool:
        return self.r_squared >= CONCLUSIVE_R2

    def to_dict(self) -> dict:
        return {**vars(self), "window": list(self.window), "conclusive": self.conclusive}


def _component_values(samples: MomentumSamples, component: str) -> np.ndarray:
    if component == "re":
        return np.abs(samples.phi_re)
    if component == "im":
        return np.abs(samples.phi_im)
    if component == "abs":
        return np.sqrt(samples.abs_phi2)
    raise ValueError(f"component must be 're', 'im' or 'abs', got {component!r}")


def _in_window(p: np.ndarray, window: tuple[float, float] | None):
    """(window, mask of the positive p inside it); by default the window spans all p > 0."""
    if window is None:
        window = (float(np.min(p[p > 0])), float(np.max(p)))
    return window, (p >= window[0]) & (p <= window[1]) & (p > 0)


def fit_power_law(samples: MomentumSamples, component: str = "abs",
                  window: tuple[float, float] | None = None) -> FitResult:
    """Fit |phi_component(p)| = c * p^e on the window by log-log least squares.

    Requires at least 20 strictly positive samples in the window. Raises
    NonPowerLaw when r^2 < 0.99, which is the expected outcome for data with
    interference zeros.
    """
    values = _component_values(samples, component)
    p = samples.grid
    window, mask = _in_window(p, window)
    if np.count_nonzero(mask) < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples in {window}, "
                         f"have {np.count_nonzero(mask)}")
    v = values[mask]
    if np.any(v <= 0.0):
        raise ValueError("component values must be strictly positive in the window")
    x = np.log(p[mask])
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.99:
        raise NonPowerLaw(f"r^2 = {r2:.4f} < 0.99: data is not a single power law")
    return FitResult(exponent=float(slope), coefficient=float(math.exp(intercept)),
                     r_squared=r2, window=window, n_points=int(np.count_nonzero(mask)))


@dataclass(frozen=True)
class TailComparison:
    """Agreement between a tail prediction and sampled |phi|."""
    predicted_exponent: int
    max_rel_deviation: float
    window: tuple[float, float]
    fit: FitResult | None        # None when no power law fits; kept when inconclusive
    exponent_deviation: float | None    # None unless the fit is conclusive

    def to_dict(self) -> dict:
        return {**vars(self), "window": list(self.window),
                "fit": self.fit.to_dict() if self.fit else None}


def compare(prediction, samples: MomentumSamples,
            window: tuple[float, float] | None = None) -> TailComparison:
    """Score |sum of leading terms| against sampled |phi| over the window.

    The pointwise deviation is normalized by max(local envelope, median
    envelope) so interference zeros of multi-location envelopes do not blow
    up the relative error. Also reports the fitted-exponent gap when a
    single power law fits conclusively.
    """
    p = samples.grid
    window, mask = _in_window(p, window)
    if not np.any(mask):
        raise ValueError(f"no samples in window {window}")
    env = prediction.leading_envelope(p[mask])
    meas = np.sqrt(samples.abs_phi2[mask])
    floor = float(np.median(env))
    dev = float(np.max(np.abs(env - meas) / np.maximum(env, floor)))

    fit = None
    exp_dev = None
    try:
        fit = fit_power_law(samples, "abs", window)
    except (NonPowerLaw, ValueError):
        pass
    else:
        if fit.conclusive:
            exp_dev = fit.exponent - (-prediction.leading_exponent)
    return TailComparison(predicted_exponent=prediction.leading_exponent,
                          max_rel_deviation=dev, window=window,
                          fit=fit, exponent_deviation=exp_dev)
