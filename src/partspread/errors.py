"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A documented precondition of the operation does not hold."""


class ResourceLimitError(RuntimeError):
    """An enumeration or search guard would be exceeded.

    Raised only by `guards.require`, before the guarded work starts.  The
    message reads ``<FIELD>: <what>=<used> exceeds the guard <limit>``, with
    the `guards.Limits` field in upper case.
    """


class IntegrityError(RuntimeError):
    """A result object is inconsistent with the inputs it claims to describe."""
