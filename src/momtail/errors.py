"""Exception types shared across the package."""


class NoSuchState(ValueError):
    """Requested bound state does not exist for these parameters."""


class NoBoundState(ValueError):
    """The potential supports no bound state in the admissible energy window."""


class NoConvergence(RuntimeError):
    """A root search failed (``_brentq``, the shooting oracle): a defect that is NaN or
    has no sign change in its bracket, too many iterations, or a failed ODE sweep."""


class DivergentMoment(ArithmeticError):
    """The requested momentum moment diverges; a physical outcome, not a bug."""


class QuadratureBudgetExceeded(RuntimeError):
    """Oscillatory quadrature could not reach tolerance within its panel budget,
    or its panels are too narrow for their centers' float resolution."""


class NonPowerLaw(ValueError):
    """Sampled tail is not consistent with a single power law (r^2 too low)."""


class InconsistentJumps(RuntimeError):
    """Jump from potential data disagrees with the derivative table (solver bug)."""


class UnsupportedCase(NotImplementedError):
    """Both psi and psi' vanish at a discontinuity; no expansion rule applies."""
