"""Exception types shared across the package, the one text reader and writer,
and the model files' field reader and writer: a model file is a header (one
numpy record, magic first), then fields, each a little-endian array of its
(dtype, shape), in order."""

import codecs
import math
import sys
from contextlib import contextmanager, nullcontext
from itertools import accumulate

import numpy as np


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


def read_text(path, what: str) -> str:
    """The file's UTF-8 text, a leading BOM dropped.  A byte that is not UTF-8
    raises a ``ConfigurationError`` naming the ``what`` file and its 1-based line."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(f"{what} {path} line {line} is not UTF-8: {exc.reason}") from None


def _field(value) -> str:
    return str(value) if isinstance(value, (str, int, np.integer)) else repr(float(value))


def write_rows(path, rows) -> None:
    """Write each row as one ASCII line ending in ``\\n``: its fields joined by
    commas, a string or an integer (numpy's too) as ``str`` and any other number
    as ``repr(float(x))``.  With no ``path`` (None or empty) it writes to stdout."""
    with open(path, "w", encoding="ascii", newline="\n") if path else nullcontext(sys.stdout) as fh:
        fh.writelines(",".join(map(_field, row)) + "\n" for row in rows)


def write_fields(path, header: np.ndarray, layout, values) -> None:
    """Write the ``header`` record, then each value as its ``layout`` dtype."""
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        for (dtype, _), value in zip(layout, values):
            fh.write(np.asarray(value, dtype).tobytes())


def read_header(path, magic: bytes, header: np.dtype, what: str) -> tuple[bytes, dict]:
    """The file's bytes and the fields of the ``header`` record they start
    with, as Python values, after checking the magic and the header's size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(magic)] != magic:
        raise FormatError(f"bad {what} magic {blob[:len(magic)]!r}")
    if len(blob) < header.itemsize:
        raise FormatError(f"{what} header has {len(blob)} bytes, expected {header.itemsize}")
    record = np.frombuffer(blob, header, count=1)[0]
    return blob, {name: record[name].tolist() for name in header.names}


def read_fields(blob: bytes, header: np.dtype, layout, what: str) -> list[np.ndarray]:
    """Each (dtype, shape) field of ``layout`` after the ``header`` record, as
    its own array.  ``blob`` must end with the last field: its size is checked
    in Python ints before any array exists, so a header declaring a huge
    payload fails without allocating it."""
    sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout]
    if len(blob) - header.itemsize != sum(sizes):
        raise FormatError(f"{what} has {len(blob) - header.itemsize} bytes, expected {sum(sizes)}")
    return [np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape).copy()
            for (dtype, shape), offset in zip(layout, accumulate(sizes, initial=header.itemsize))]
