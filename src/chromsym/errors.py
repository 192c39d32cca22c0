"""Exception types shared across the package."""


class ChromsymError(Exception):
    """Base class for all package-specific errors."""


class UnequalWeightError(ChromsymError, ValueError):
    """Two partitions that must have equal weight do not."""


class EmptyPartitionError(ChromsymError, ValueError):
    """An operation that needs a nonempty partition got the empty one."""


class CycleError(ChromsymError, ValueError):
    """Cover relations close into a cycle, so no partial order exists."""


class OrderIncompatibleError(ChromsymError, ValueError):
    """A vertex order leaves some non-adjacent pair incomparable."""


class SizeMismatchError(ChromsymError, ValueError):
    """A shape's cell count does not match the number of vertices."""


class NoAscentError(ChromsymError, ValueError):
    """The tail sequence is already non-increasing, so the toggle is undefined."""


class BadShapeError(ChromsymError, ValueError):
    """A closed-form coefficient was requested for an incompatible shape."""


class CapExceededError(ChromsymError, ValueError):
    """A shape has more cells than the census code counts (255)."""


class PositiveFamilyError(ChromsymError, ValueError):
    """A non-positivity witness was requested for a Schur-positive type."""


class LengthOneError(ChromsymError, ValueError):
    """Classification needs a type with at least two blocks."""
