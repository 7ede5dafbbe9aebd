"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Malformed inputs: wrong shapes, dimensions, or parameter combinations."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class DivergenceError(RuntimeError):
    """Numerical blow-up during SDE integration.

    ``step_index`` is the zero-based step that blew up, ``time`` the grid
    time that step reached and ``radius`` the largest |x| over the paths
    there (NaN when a path turned NaN).
    """

    def __init__(self, message: str, step_index: int, time: float, radius: float):
        super().__init__(message)
        self.step_index = step_index
        self.time = time
        self.radius = radius


class ConfigError(ValueError):
    """Invalid, missing, or unknown experiment configuration."""
