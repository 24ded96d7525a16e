"""Inputs and switches for the properties that compare the chunk decoders
with the per-line parsers."""

import contextlib

import pytest
from hypothesis import strategies as st

from fvba import io as fio, kdd
from fvba.errors import Error

# Numeric tokens on both sides of the float()/int() rule and the byte checks.
NUMERIC_TOKENS = st.sampled_from([
    "0", "-0", "7", "-1", "+3", "1_0", "3.", ".5", " 7", "7 ", "42.9", "-0.5", "1e5",
    "1.5e3", "nan", "inf", "1.e999", "-500", "", ".", "abc", "0x10",
    "9223372036854775807", "9223372036854775808", "9.3e18", "9.2e18", "1.2.3", "1..5",
]) | st.integers(-5, 2**64).map(str)

# Chunk sizes small enough that lines of a few dozen bytes span many chunks.
CHUNK_SIZES = st.integers(1, 400)


@contextlib.contextmanager
def chunk_bytes(size: int):
    """Read `size`-byte chunks instead of fio.CHUNK_BYTES."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fio, "CHUNK_BYTES", size)
        yield


@contextlib.contextmanager
def per_line_only():
    """Send every chunk through the per-line parsers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fio, "_decode_events", lambda *args: None)
        patch.setattr(kdd, "_decode_chunk", lambda *args: None)
        yield


def outcome(parse, source):
    """The columns, keys and labels `parse` makes of `source`, or its error."""
    try:
        table = parse(source)
    except Error as exc:
        return type(exc), str(exc)
    columns = [getattr(table, name) for name in table.__slots__ if name not in ("keys", "labels")]
    return ([column.dtype.str for column in columns], [column.tobytes() for column in columns],
            table.keys, getattr(table, "labels", None))
