"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class SingularMatrixError(ArithmeticError):
    """Exact elimination hit a zero pivot column.

    ``step`` is the elimination step (0-based column) at which rank
    deficiency appeared.
    """

    def __init__(self, step: int):
        super().__init__(f"matrix is singular (rank deficiency at elimination step {step})")
        self.step = step


class SpectralAssumptionError(ArithmeticError):
    """The matrix does not have the all-real (or all-positive) spectrum
    the caller assumed; typically means the input is not a collocation
    matrix of a totally positive system."""


class SearchExhaustedError(RuntimeError):
    """The randomized positive-weight search hit its iteration budget."""

    def __init__(self, max_iter: int, seed: int | None = None):
        msg = ("no all-positive weight system found within "
               f"{max_iter} weight vectors")
        if seed is not None:
            msg += f" (seed={seed})"
        super().__init__(msg)
        self.max_iter = max_iter
        self.seed = seed
        self.verdicts = []  # ordering verdicts found before the search ran out
