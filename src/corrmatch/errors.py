"""Exception types shared across the package."""

from contextlib import contextmanager


class ConfigurationError(ValueError):
    """Raised when a grid, config file, or training set is unusable."""


class FormatError(ValueError):
    """Raised when a serialized file has a bad magic, version, or shape."""


@contextmanager
def as_format_error():
    """Re-raise a rejection of decoded fields (any ``ValueError``) as a
    ``FormatError`` with the same message."""
    try:
        yield
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
