"""Error taxonomy shared by all engine modules.

Exit-code mapping used by the CLI: usage/contract errors exit 2, cache
misses exit 3, exhausted budgets exit 4, internal invariant violations
exit 5.  Messages are prefixed with the owning module so failures can be
traced without a stack trace.
"""


class CapacityError(ValueError):
    """A requested limit exceeds a fixed memory/enumeration bound."""


class ContractError(ValueError):
    """A precondition of an operation was violated by the caller."""


class CacheMissError(LookupError):
    """A needed Mersenne factorization is not available in the cache."""

    def __init__(self, exponent: int):
        self.exponent = exponent
        super().__init__(f"mersenne-factors: no cached factorization of 2^{exponent}-1")


class BudgetError(RuntimeError):
    """Time budget exhausted; carries whatever partial result was reached."""

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)


class InfeasibleError(ContractError):
    """A target is unreachable from the given inputs; carries the best value."""

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class InvariantViolation(AssertionError):
    """An internal consistency check failed; always a bug, never user error."""
