"""Exception types shared across the package.

The CLI maps these onto exit codes: infeasible instances exit 1, invalid
input or exceeded enumeration budgets exit 2, and internal invariant
violations exit 3.
"""


class LengthMismatchError(ValueError):
    """Two vectors that must share a length do not; pad explicitly first."""


class InfeasibleError(Exception):
    """The requested completion or profile does not exist; carries a diagnostic."""


class BudgetExceededError(Exception):
    """An enumeration grew past its configured cap or scale budget.

    Raised by the compiled tie search, it carries ``draws``: the children
    the search drew before it stopped."""


class InternalInvariantError(RuntimeError):
    """A cross-check that should hold by construction failed; report a bug."""
