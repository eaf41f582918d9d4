"""Exception types shared across the library, and the cut of echoed values."""


def clipped(value) -> str:
    """``str(value)`` as an error message echoes it: cut to 60 characters, the last
    four an ellipsis, if longer."""
    text = str(value)
    return text if len(text) <= 60 else f"{text[:56]} ..."


class InvalidInputError(ValueError):
    """Operands are malformed or belong to incompatible instances."""


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class GridMismatchError(ValueError):
    """Paths that must share a time grid do not."""


class HypothesisError(ValueError):
    """A statistical battery was invoked on a model violating its hypotheses."""


class ConfigError(ValueError):
    """An experiment config violates the schema; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
