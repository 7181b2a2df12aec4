"""Exception types shared across the package."""

# the weight search's default budget of weight vectors, the ``max_iter``
# that ``SearchExhaustedError`` reports; here so that the experiment grid's
# config can default to it without loading the search
DEFAULT_SEARCH_MAX_ITER = 10**6


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
    """No all-positive weight system was found: the randomized search hit
    its budget of ``max_iter`` weight vectors and, when ``solver`` is set
    (the exact cone solver's ``NoIntegerPoint`` outcome), the solver
    found no weights either."""

    def __init__(self, max_iter: int, seed: int | None = None, solver=None):
        msg = ("no all-positive weight system found within "
               f"{max_iter} weight vectors")
        if seed is not None:
            msg += f" (seed={seed})"
        if solver is not None:
            msg = f"degree {solver.degree}: {msg}; {solver}"
        super().__init__(msg)
        self.max_iter = max_iter
        self.seed = seed
        self.solver = solver
