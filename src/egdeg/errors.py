"""Exception hierarchy. All package errors derive from EgdegError."""


class EgdegError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EgdegError):
    """Invalid or unknown configuration input."""


# group engine

class NotOrthogonal(EgdegError):
    """A generator matrix is not orthogonal within tolerance."""


class ClosureOverflow(EgdegError):
    """Group closure exceeded the element cap."""


class IsotropyAmbiguous(EgdegError):
    """A point sits too close to a larger stratum to classify its isotropy."""


# stratification

class ResolutionTooCoarse(EgdegError):
    """Component structure changed under grid refinement."""


class NotInStratum(EgdegError):
    """Point cannot be located inside the stratum chart."""


# local maps

class NotInvariant(EgdegError):
    """Potential failed the invariance sampling test."""


class OutsideDomain(EgdegError):
    """Evaluation requested outside the map domain."""


class DomainsOverlap(EgdegError):
    """Disjoint union of maps with non-disjoint domains."""


# perturbation

class OutOfRange(EgdegError):
    """Profile function argument outside [0, epsilon]."""


class TubeSelectionFailed(EgdegError):
    """No tube radius validated after the allowed number of halvings."""


class PartitionViolation(EgdegError):
    """A homotopy sample violated its region's zero/nonzero characterization."""


# degree

class DegenerateUnresolved(EgdegError):
    """Degenerate zeros present and the fallback strategies disagree."""


class DimensionUnsupported(EgdegError):
    """Boundary-degree computation not available in this dimension."""


class MarginTooSmall(EgdegError):
    """Field magnitude on the integration boundary below the safe margin."""


class RefinementOverflow(EgdegError):
    """Boundary refinement exceeded its budget without converging."""


class DivisibilityViolation(EgdegError):
    """Component count not divisible by the stabilizer order; zeros missed."""


# theta

class AdditionUndefined(EgdegError):
    """Both summands carry a set origin slot; their sum is not defined."""


class WeylTransportFailed(EgdegError):
    """A Weyl image of a representative zero is not a zero of the field."""


class UnsupportedRep(EgdegError):
    """Circle demo accepts a single nonzero weight and no trivial block."""


# factory

class TubeTooWide(EgdegError):
    """Requested tube radius violates the disjointness preconditions."""


class ZeroOnY(EgdegError):
    """Restriction would remove part of the zero set."""


class UnknownName(EgdegError):
    """Catalog entry name not known."""
