"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An enumeration or cell budget would be exceeded.

    Raised before starting work that would blow past the configured
    limit, never midway through it. Work finished before the refusal is
    either discarded or, where it settles part of the answer, carried on a
    subclass (fcomplexity.ComplexityBudgetError keeps the verified lower
    bound on gamma and its levels).
    """
