"""Exception hierarchy shared by all slab modules."""


class SlabError(Exception):
    """Base class for all slab errors."""


class ZeroFrequency(SlabError):
    """Frequency argument below the degeneracy floor."""


class ZeroPosition(SlabError):
    """Position argument is zero where a positive radius is required."""


class DegenerateGradient(SlabError):
    """Gradient magnitude below tolerance at a surface sample."""


class OptimizerStall(SlabError):
    """Support-function solve left a stationarity residual above its gate."""


class CurvatureUnchecked(SlabError):
    """Dual construction on a symbol that fails the curvature audit."""


class InvalidSize(SlabError):
    """Grid size not a power of two or box width not positive."""


class NonFiniteMultiplier(SlabError):
    """Spectral multiplier takes non-finite values on the lattice."""


class NonFiniteSymbol(SlabError):
    """Symbol takes non-finite values on the sampling set."""


class LowFrequencyMass(SlabError):
    """Velocity data carries too much spectral mass in the excluded band."""


class MassEscape(SlabError):
    """Field mass left the monitored region before the window closed."""


class InvalidRatio(SlabError):
    """A ratio is negative, not finite, or vacuous (0/0, or a residual
    of an operator applied to zero)."""


class ZeroRung(SlabError):
    """A regularization rung's operator-norm estimate is zero."""


class StructureViolation(SlabError):
    """Symbol fails the orbit-set vanishing spot check."""


class ExponentViolation(SlabError):
    """Weighted-convolution exponents outside the admissible range."""


class BandExceeded(SlabError):
    """Requested surface radius lies outside the frequency lattice band."""


class ConfigInvalid(SlabError):
    """Experiment configuration failed schema validation."""


class CutoffLeakage(UserWarning):
    """Noticeable spectral mass sits where the cutoff transitions."""
