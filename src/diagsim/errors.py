"""Shared exception types."""


class ShapeError(ValueError):
    """Operand dimensions are incompatible (non-square input, dim mismatch)."""


class DomainError(ValueError):
    """A value lies outside its valid range: an index, offset, count or setting."""


class PlanError(ValueError):
    """A blocking plan request is malformed (bad cuts, bad group sizes)."""


class GridCapacityError(ValueError):
    """A job carries more segments than the configured grid can host."""


class ConvergenceError(RuntimeError):
    """Series truncation failed to reach the threshold within the term cap."""


class VerificationError(RuntimeError):
    """A cross-check against the independent oracle failed."""
