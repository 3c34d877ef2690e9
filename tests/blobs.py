"""Hypothesis strategies that damage a valid serialized file."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st


def truncated(blob: bytes):
    """Every proper prefix of ``blob``, the empty one included."""
    return st.integers(0, len(blob) - 1).map(lambda n: blob[:n])


def mutated(blob: bytes):
    """``blob`` with one to eight bytes overwritten by arbitrary values."""
    def apply(edits):
        out = bytearray(blob)
        for index, value in edits:
            out[index] = value
        return bytes(out)

    edit = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
    return st.lists(edit, min_size=1, max_size=8).map(apply)


def non_finite(blob: bytes, first: int, count: int):
    """``blob`` with one of the ``count`` little-endian doubles stored from
    byte ``first`` on replaced by NaN, inf or -inf."""
    def apply(case):
        k, bad = case
        out = bytearray(blob)
        out[first + 8 * k:first + 8 * k + 8] = np.array([bad], dtype="<f8").tobytes()
        return bytes(out)

    return st.tuples(st.integers(0, count - 1),
                     st.sampled_from([np.nan, np.inf, -np.inf])).map(apply)
