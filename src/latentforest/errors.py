"""Exception types shared across the package."""


class LatentForestError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- forests

class CycleError(LatentForestError):
    """The edge set contains a cycle (including self loops)."""


class DuplicateEdge(LatentForestError):
    """The same undirected edge was given more than once."""


class ObservedDegreeError(LatentForestError):
    """An observed node has degree larger than one."""


class UnknownNode(LatentForestError):
    """An edge or pair references a node id that was not declared."""


class UnrealizablePattern(LatentForestError):
    """A correlation pattern cannot be induced by any subforest."""


class TooLarge(LatentForestError):
    """An input is past a documented size bound.

    Raised for a host whose subforest lattice has more than
    ``forests.LATTICE_CLASS_BOUND`` classes, for a simulation sample
    size above ``experiments.SAMPLE_SIZE_BOUND``, and for a monomial
    system whose nonzero part leaves more than 20 coordinate signs free
    (over 2^20 sign orthants to check).
    """


class NotInLattice(LatentForestError):
    """The given class is not a subforest class of the host."""


# ------------------------------------------------------------ forest RLCT

class NotSubforest(LatentForestError):
    """The candidate is not a valid minimal subforest of the host."""


class LeafMismatch(LatentForestError):
    """Host and subforest disagree on the observed node set."""


# ------------------------------------------------------------ RLCT engine

class EmptyZeroSet(LatentForestError):
    """The phase function is bounded away from zero on the domain."""


class NoInteriorSolution(LatentForestError):
    """The nonzero fiber touches only the boundary of the domain."""


class EmptyFiber(LatentForestError):
    """The nonzero part of the phase function has an empty zero set."""


class DimensionTooLarge(LatentForestError):
    """Ambient dimension exceeds the exact hull bound."""


class CertificateFailure(LatentForestError):
    """An LP answer for a Newton polyhedron failed its exact check."""


# ---------------------------------------------------------------- numerics

class NotPositiveDefinite(LatentForestError):
    """A covariance matrix that must be positive definite is not."""


class TooFewSamples(LatentForestError):
    """A sample size n below what is asked of it: sufficient statistics
    and BIC need n >= 1, sBIC n >= 2 (it uses log log n)."""


class NotComparable(LatentForestError):
    """The two classes are not ordered in the lattice."""


class TooFewLeaves(LatentForestError):
    """At least three observed nodes are required."""


class NoSuchDepth(LatentForestError):
    """No lattice class has the requested depth."""


class IntegrationFailure(LatentForestError):
    """Numerical integration of the Laplace integral failed."""
