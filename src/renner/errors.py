"""Exceptions shared across the package."""


class BudgetExceededError(RuntimeError):
    """An enumeration cap or dimension bound was exceeded."""


class SearchBudgetExceededError(BudgetExceededError):
    """A combination search ran out of nodes before deciding membership."""


class InternalError(RuntimeError):
    """An impossible state inside an exact computation: a defect of the
    program, not of its input or its limits."""
