"""Exception types shared across the package."""


class BirkhoffLabError(Exception):
    """Base class for all package-specific errors."""


class MaximizerNotFound(BirkhoffLabError):
    """The Legendre maximizer lies on the edge of the momentum box."""


class StepSizeUnderflow(BirkhoffLabError):
    """The adaptive Runge-Kutta step size fell below its hard floor; the flow likely diverges."""


class TooFewSamples(BirkhoffLabError):
    """A curve or grid was given fewer samples than the supported minimum."""


class ExactnessLost(BirkhoffLabError):
    """An evolved curve's loop integral of p dq no longer vanishes."""


class ResamplingBudgetExceeded(BirkhoffLabError):
    """Curve refinement would exceed the node cap: extreme stretching."""


class EmptyInput(BirkhoffLabError):
    """An operation received an empty sequence."""


class NonpositiveDuration(BirkhoffLabError):
    """Action potentials require a strictly positive time span."""


class GridMismatch(BirkhoffLabError):
    """Grid functions or matrices with incompatible resolutions."""


class DivergenceDetected(BirkhoffLabError):
    """A min-plus matrix was normalized by a constant other than its minimum
    cycle mean: a cycle of negative mean, where its Kleene star diverges, or
    no cycle of mean zero to anchor the Peierls barrier on."""


class UnsupportedIndex(BirkhoffLabError):
    """Quadratic-form index outside the supported min/max/percolation range."""


class DomainExceeded(BirkhoffLabError):
    """Requested interval leaves the domain of a sampled object."""


class KinkAtSeed(BirkhoffLabError):
    """The kink detector tripped at the requested seed point."""


class FixedPointNotReached(BirkhoffLabError):
    """Value iteration did not settle within its budget."""


class IoFailure(BirkhoffLabError):
    """A file could not be written."""


class NotComplexAnalytic(BirkhoffLabError):
    """A custom Hamiltonian callable rejects complex arguments or drops their
    imaginary parts, so its complex-step derivatives would be wrong."""
