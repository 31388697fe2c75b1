"""Exception types shared across the package."""


class GapSvtError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GapSvtError):
    """Numeric argument outside the function's domain; every rejected input
    is one or a subclass."""


class SensitivityViolation(DomainError):
    """A query pair differs by more than 1 between the two sides."""

    def __init__(self, index: int, delta: float):
        self.index = index
        self.delta = delta
        super().__init__(
            f"query pair {index} violates the sensitivity-1 contract: |delta| = {abs(delta)}"
        )


class EmptyWorkload(DomainError):
    """Workload has no query pairs."""


class NonPositiveBudget(DomainError):
    """Privacy budget (or a derived piece of it) is not strictly positive."""


class TapeExhausted(GapSvtError):
    """A mechanism tried to read past the end of its noise tape."""


class LayoutMismatch(GapSvtError):
    """A tape (or shift vector) has the wrong layout for the requested operation."""


class GridBudgetExceeded(GapSvtError):
    """Exact enumeration would take on ``needed`` cells, past its fixed cap
    ``budget``: the cells of one oracle step, or the per-tape box's points."""

    def __init__(self, needed: int, budget: int, hint: str = ""):
        self.needed = needed
        self.budget = budget
        msg = f"exact enumeration needs {needed} cells, its cap is {budget}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


class DomainMismatch(GapSvtError):
    """Two output distributions do not live on comparable output spaces."""
