"""Exception types shared across the library, the cut of echoed values, and the
turn of a rejected config value into a ConfigError at its field path."""

from contextlib import contextmanager


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


@contextmanager
def rejected_at(path: str):
    """Report a constructor's or a battery check's rejection of a config value as a
    ConfigError at ``path``; a ConfigError raised inside, by the check of a nested
    block, keeps its own path."""
    try:
        yield
    except ConfigError:
        raise
    # ParameterError, HypothesisError, InvalidInputError, bad casts, integers too
    # large for a float, and a grid too large to allocate
    except (ValueError, TypeError, OverflowError, MemoryError) as exc:
        raise ConfigError(path, str(exc)) from exc
