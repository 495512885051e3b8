"""Momentum-space tails of 1D bound states with non-smooth potentials.

Solve a cataloged potential, Fourier-transform the bound state, and predict
or verify the power-law decay of phi(p) from the potential's discontinuity
structure.
"""

from .asymptotics import TailPrediction, TailTerm, expansion_terms, predict_tail
from .eigensolve import BoundState, SideDerivatives, solve
from .errors import (DivergentMoment, InconsistentJumps, NoBoundState,
                     NoConvergence, NonPowerLaw, NoSuchState,
                     QuadratureBudgetExceeded, UnsupportedCase)
from .momentum import (FilonPanels, MomentumSamples, classical_momentum_density,
                       moment, parseval_norm, phi_closed_delta, phi_closed_well,
                       phi_quadrature)
from .potentials import (AsymmetricLinear, Bouncer, DeltaSum, DiscontinuityRecord,
                         FiniteWell, HybridDeltaStep, InfiniteWell, PotentialSpec,
                         StepSum, SymmetricLinear, discontinuities)
from .tailfit import FitResult, TailComparison, compare, fit_power_law


__all__ = [
    "AsymmetricLinear", "Bouncer", "BoundState", "DeltaSum",
    "DiscontinuityRecord", "DivergentMoment", "FilonPanels", "FiniteWell",
    "FitResult", "HybridDeltaStep", "InconsistentJumps", "InfiniteWell",
    "MomentumSamples", "NoBoundState",
    "NoConvergence", "NonPowerLaw", "NoSuchState", "PotentialSpec",
    "QuadratureBudgetExceeded", "SideDerivatives", "StepSum",
    "SymmetricLinear", "TailComparison", "TailPrediction", "TailTerm",
    "UnsupportedCase", "classical_momentum_density", "compare",
    "discontinuities", "expansion_terms", "fit_power_law", "moment",
    "parseval_norm", "phi_closed_delta", "phi_closed_well", "phi_quadrature",
    "predict_tail", "solve",
]
