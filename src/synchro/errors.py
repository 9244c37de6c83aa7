"""Exception hierarchy shared across the package."""


class SynchroError(Exception):
    """Base class for every error this package raises on purpose."""


class SchemaError(SynchroError):
    """Malformed input text: network JSON, partition string or oracle file."""


class MonoidMismatch(SynchroError):
    """A value does not belong to the carrier of the monoid it was used with."""


class PartitionError(SynchroError):
    """Partition algebra precondition violated (size mismatch, not finer, ...)."""


class NotBalancedError(SynchroError):
    """An operation required a balanced partition; carries the counterexample."""

    def __init__(self, counterexample, message=None):
        self.counterexample = counterexample
        if message is None:
            c, d, k = counterexample
            message = (
                f"partition is not balanced: cells {c!r} and {d!r} share a color "
                f"but their weight sums differ on color {k}"
            )
        super().__init__(message)


class SizeLimitError(SynchroError):
    """Too large to handle: an orbit too long to allocate, a flow of too many
    steps, or a weight too long to print or beyond the float range."""


class DimensionMismatch(SynchroError):
    """A state vector does not have one coordinate per cell, or a step count,
    time or budget is out of range."""


class SimulationDiverged(SynchroError):
    """A trajectory left the finite floats; carries the failing step index."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class WitnessError(SynchroError):
    """No desynchronizing witness exists: the partition is balanced."""
