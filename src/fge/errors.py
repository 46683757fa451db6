"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the physically meaningful domain.

    The message always names the offending quantity and its value.
    """


class SolverError(RuntimeError):
    """A root solve failed; the message carries bracket diagnostics."""


class QuadratureError(RuntimeError):
    """Integration exhausted its panel budget (or its refinement levels)
    before reaching the requested tolerance.  The achieved estimate is
    attached."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(message)
        self.error_estimate = float(error_estimate)
