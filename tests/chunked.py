"""Chunk sizes and file layouts for the properties that run the chunk
decoders on lines that cross chunk ends."""

import contextlib

import pytest
from hypothesis import strategies as st

from fvba import io as fio

# Chunk sizes small enough that lines of a few dozen bytes span many chunks.
CHUNK_SIZES = st.integers(1, 400)
BREAKS = st.sampled_from(["\n", "\r\n", "\r"])


@contextlib.contextmanager
def chunk_bytes(size: int):
    """Read `size`-byte chunks instead of fio.CHUNK_BYTES."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fio, "CHUNK_BYTES", size)
        yield


@st.composite
def file_layout(draw, lines: list[str]):
    """The text of `lines`, each ended by "\\n", "\\r\\n" or "\\r" (the last
    maybe by nothing), with empty lines between some; and the line number
    of each of `lines`."""
    text, numbers, breaks = "", [], 0

    def line_break():
        nonlocal text, breaks
        # A "\r" then a "\n" would read as one "\r\n" break.
        text += draw(BREAKS.filter(lambda brk: not (text.endswith("\r") and brk == "\n")))
        breaks += 1

    for index, line in enumerate(lines):
        for _ in range(draw(st.integers(1, 2)) if draw(st.integers(0, 4)) == 0 else 0):
            line_break()
        numbers.append(breaks + 1)
        text += line
        if index + 1 < len(lines) or draw(st.booleans()):
            line_break()
    return text, numbers
