"""Exception types shared across the package."""

__all__ = ["ConfigError", "DegenerateDesignError", "SkybellError"]


class SkybellError(Exception):
    """Base class for package-specific failures."""


class ConfigError(SkybellError):
    """A config file or CLI argument is malformed; the message names the field."""


class DegenerateDesignError(SkybellError):
    """The least-squares design matrix for signal extraction is rank deficient.

    Attributes
    ----------
    direction : str
        Human-readable description of the degenerate basis direction.
    second_singular_value : float
        Second (smallest) singular value of the two-column design matrix.
    """

    def __init__(self, direction: str, second_singular_value: float):
        self.direction = direction
        self.second_singular_value = float(second_singular_value)
        super().__init__(
            "design matrix is rank deficient (second singular value "
            f"{self.second_singular_value:.3e}): {direction}"
        )
