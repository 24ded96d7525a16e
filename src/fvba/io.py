"""Text interchange formats for event streams and ground truth.

Event files carry one event per line, in timestamp order:

    timestamp<TAB>proto<TAB>src<TAB>sport<TAB>dst<TAB>dport<TAB>bytes

A truth sidecar maps flow keys, written as the same five key columns, to
labels (`proto<TAB>src<TAB>sport<TAB>dst<TAB>dport<TAB>label`), one per
line; a window-truth file maps window indices to labels.  All files are
UTF-8; "\n", "\r\n" and "\r" are the only line breaks.
"""

from __future__ import annotations

import gzip
import os
import zlib
from array import array
from contextlib import closing
from functools import partial
from typing import Callable, Collection, Iterable, Iterator, Mapping, TextIO

import numpy as np

from .errors import Error, OrderingError, ParseError
from .model import NORMAL_LABEL, EventTable, FlowKey, ProtocolCategory

_MAX_BYTES = np.uint64(2**63 - 1)


def key_columns(key: FlowKey) -> str:
    """The five key columns of the event, truth and characterize formats."""
    return f"{key.protocol}\t{key.src_addr}\t{key.src_port}\t{key.dst_addr}\t{key.dst_port}"


def dump_events(events: EventTable, handle: TextIO) -> None:
    """Write the events to the text handle `handle`, one line each, DUMP_ROWS
    lines at a time, so that only one slice's text is held at once."""
    # The key columns of each flow are formatted once.
    middles = [f"\t{key_columns(k)}\t" for k in events.keys]
    for lo in range(0, len(events), DUMP_ROWS):
        hi = lo + DUMP_ROWS
        handle.write("".join([
            f"{timestamp!r}{middles[flow]}{count}\n"
            for timestamp, flow, count in zip(events.timestamp[lo:hi].tolist(),
                                              events.flow[lo:hi].tolist(),
                                              events.bytes[lo:hi].tolist())
        ]))


def load_events(source) -> EventTable:
    """Parse the events of a path or an iterable of lines (`read_source`),
    a chunk of lines at a time; `_decode_events` defines the format.

    Each distinct flow's key text is parsed and validated once, and flows
    are numbered in order of first appearance.  Raises ParseError naming
    the first malformed line (see `_decode_events`), or OrderingError
    naming the line of the first event that is earlier than its
    predecessor.
    """
    columns = (array("d"), array("i"), array("q"))
    flow_ids: dict[FlowKey, int] = {}
    decode = partial(_decode_events, earlier=columns[0], interned={}, flow_ids=flow_ids)
    decode_source(source, decode, columns)
    return EventTable(*columns, list(flow_ids))


def _flow_id(text: str, flow_ids: dict[FlowKey, int]) -> int:
    """Parse, validate and intern the key columns `proto\tsrc\tsport\tdst\tdport`."""
    proto, src, sport, dst, dport = text.split("\t")
    key = FlowKey(protocol=ProtocolCategory.parse(proto), src_addr=src, dst_addr=dst,
                  src_port=int_token(sport, "port"), dst_port=int_token(dport, "port")).validate()
    # Texts such as "tcp" and "TCP" name one flow.
    return flow_ids.setdefault(key, len(flow_ids))


def _decode_events(chunk: bytes, earlier: array, interned: dict[bytes, int],
                   flow_ids: dict[FlowKey, int]):
    """The (timestamp, flow, bytes) columns of the lines of a chunk.

    An empty line is skipped.  Any other line holds seven tab-separated
    columns, checked in this order: five key columns that `_flow_id`
    accepts; a timestamp of bytes [0-9A-Za-z.+-] that numpy's float64
    cast reads; a byte count of decimal digits; a finite timestamp >= 0;
    a byte count in [1, 2**63 - 1]; a timestamp no earlier than the line
    before (for the first, the last of `earlier`, the timestamps of the
    chunks before).  Raises BadLine for the first line that fails (see
    `decode_lines`).
    """
    previous = earlier[-1] if earlier else 0.0
    codes, starts, ends = split_fields(chunk, b"\t", 7, "columns")
    lines = starts[:, 0]

    def text(row: int, column: int) -> str:
        return chunk[starts[row, column] : ends[row, column]].decode()

    def flow_id(token: bytes) -> int:
        if token not in interned:
            interned[token] = _flow_id(token.decode(), flow_ids)
        return interned[token]

    flows = intern_tokens(codes, starts[:, 1], ends[:, 5], lines, flow_id)
    timestamps, bad = float_values(codes, starts[:, 0], ends[:, 0])
    reject(bad, lines, lambda row: f"malformed timestamp: {text(row, 0)!r}")
    counts, bad = digit_values(codes, starts[:, 6], ends[:, 6])
    reject(bad, lines, lambda row: f"malformed event byte count: {text(row, 6)!r}")
    reject(~(np.isfinite(timestamps) & (timestamps >= 0)), lines, lambda row: (
        f"non-finite timestamp: {timestamps[row]}" if not np.isfinite(timestamps[row])
        else f"negative timestamp: {timestamps[row]}"))
    reject((counts < 1) | (counts > _MAX_BYTES), lines, lambda row: (
        f"event byte count must be >= 1, got {counts[row]}" if counts[row] < 1
        else f"event byte count does not fit int64: {text(row, 6)}"))
    reject(np.diff(timestamps, prepend=previous) < 0, lines, lambda row: (
        "events are not sorted by timestamp"
        f" ({timestamps[row]} after {timestamps[row - 1] if row else previous})"), OrderingError)
    return timestamps, flows, counts.astype(np.int64)


# --- chunked decoding --------------------------------------------------------------

# About how many bytes the text parsers decode at a time; a chunk ends at
# a line break.
CHUNK_BYTES = 256 * 1024
# Rows `dump_events` formats at a time: about CHUNK_BYTES of text, as an
# event line takes some 45 bytes.  `attack_windows` scans as many at a time.
DUMP_ROWS = CHUNK_BYTES // 48
# Longest line `decoder_chunks` leaves among others in a chunk.
_MAX_LINE = 255
_POWERS = np.array([10**k for k in range(18, -1, -1)], dtype=np.uint64)
_FLOAT_TEXT = "0123456789.+-abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_FLOAT_BYTES = np.zeros(256, dtype=bool)
_FLOAT_BYTES[list(_FLOAT_TEXT.encode())] = True


def read_source(source) -> Iterator[bytes]:
    """The bytes of a path (gzip when it ends in ".gz") or of an iterable of
    lines, each given a missing "\n".  Raises ParseError naming the file
    for corrupt or truncated gzip data."""
    if isinstance(source, (str, bytes, os.PathLike)):
        path = os.fsdecode(source)
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rb") as handle:
            try:
                yield from iter(partial(handle.read, CHUNK_BYTES), b"")
            except (EOFError, zlib.error) as exc:
                raise ParseError(f"{path}: corrupt or truncated gzip data: {exc}") from None
    else:
        for line in source:
            # A lone surrogate is kept, for the UTF-8 check to reject.
            yield line.encode("utf-8", "surrogatepass") + (b"" if line.endswith("\n") else b"\n")


def decode_source(source, decode: Callable[[bytes], tuple], columns) -> None:
    """The one loop of the text parsers: for each chunk of `source`, append
    each array of `decode_lines(decode, ...)` to the `array` column of the
    same position."""
    number = 0
    # Closed here, so that a file is closed as soon as a bad line stops the loop.
    with closing(read_source(source)) as blocks:
        for chunk in decoder_chunks(blocks):
            for column, values in zip(columns, decode_lines(decode, chunk, number)):
                column.frombytes(np.asarray(values, dtype=column.typecode).tobytes())
            number += chunk.count(b"\n")


def read_chunks(blocks: Iterable[bytes]) -> Iterator[bytes]:
    """Regroup byte blocks into chunks of about CHUNK_BYTES that each end at "\n".

    "\r\n" and a lone "\r" become "\n" first, because every text format
    counts either as one line break; a last line without a break gets one.
    """
    pending: list[bytes] = []
    size = 0
    for block in blocks:
        pending.append(block)
        size += len(block)
        if size < CHUNK_BYTES or not (b"\n" in block or b"\r" in block):
            continue
        data = b"".join(pending)
        # A final "\r" may be the first half of a "\r\n".
        held = data[-1:] if data.endswith(b"\r") else b""
        data = _unify_breaks(data[: len(data) - len(held)])
        end = data.rfind(b"\n") + 1
        if end:
            yield data[:end]
        pending = [data[end:], held]
        size = len(data) - end + len(held)
    data = _unify_breaks(b"".join(pending))
    if data:
        yield data if data.endswith(b"\n") else data + b"\n"


def _unify_breaks(data: bytes) -> bytes:
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def decoder_chunks(blocks: Iterable[bytes]) -> Iterator[bytes]:
    """The chunks of `read_chunks`, each line longer than _MAX_LINE bytes in
    a chunk of its own.

    A decoder pads a chunk's tokens to the widest one, so this bounds its
    arrays by _MAX_LINE + 1 bytes a line, or by one line.
    """
    for chunk in read_chunks(blocks):
        ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == 10) + 1
        starts = np.concatenate(([0], ends[:-1]))
        done = 0
        for line in np.flatnonzero(ends - starts > _MAX_LINE + 1).tolist():
            if starts[line] > done:
                yield chunk[done : starts[line]]
            yield chunk[starts[line] : ends[line]]
            done = ends[line]
        if done < len(chunk):
            yield chunk[done:]


class BadLine(Exception):
    """A chunk decoder's report that the line at chunk offset `offset` breaks
    its format; `decode_lines` turns it into an error of type `kind`."""

    def __init__(self, offset: int, message: str, kind: type[Error] = ParseError):
        super().__init__(message)
        self.offset, self.kind = offset, kind


def reject(bad: np.ndarray, offsets: np.ndarray, message: Callable[[int], str],
           kind: type[Error] = ParseError) -> None:
    """Raise BadLine for the first line i where `bad[i]` holds; `offsets[i]`
    is the chunk offset of line i and `message(i)` says what is wrong."""
    if bad.any():
        line = int(bad.argmax())
        raise BadLine(int(offsets[line]), message(line), kind)


def decode_lines(decode: Callable[[bytes], object], chunk: bytes, number: int):
    """`decode(chunk)` for a chunk that follows line `number` of its file.

    Every line is checked to be UTF-8 first.  A decoder checks all its
    lines for one condition at a time, in the order the conditions apply to
    one line, and raises BadLine for the first line that fails.  A line
    before it may fail a later condition, so the lines before it are
    decoded again first: the error raised names the first bad line of the
    file.  A rejected chunk yields nothing.
    """
    try:
        if not chunk.isascii():
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise BadLine(chunk.rfind(b"\n", 0, exc.start) + 1,
                              f"not UTF-8: byte {chunk[exc.start]:#04x}") from None
        return decode(chunk)
    except BadLine as bad:
        if bad.offset:
            decode_lines(decode, chunk[: bad.offset], number)
        line = number + chunk.count(b"\n", 0, bad.offset) + 1
        if bad.kind is ParseError:
            raise ParseError(str(bad), line=line) from None
        raise bad.kind(f"line {line}: {bad}") from None


def split_fields(chunk: bytes, separator: bytes, fields: int, name: str):
    """Field offsets of the non-empty lines of a chunk that ends in "\n".

    Returns the chunk as a uint8 array and two (non-empty lines, `fields`)
    int32 arrays of the start and end offsets of the fields.  Raises
    BadLine for the first non-empty line without `fields` fields
    ("expected 7 columns, got 6", with `name` "columns").
    """
    codes = np.frombuffer(chunk, dtype=np.uint8)
    breaks = np.flatnonzero(codes == 10)
    separators = np.flatnonzero(codes == separator[0])
    starts = np.concatenate(([0], breaks[:-1] + 1))
    filled = breaks > starts
    per_line = np.diff(np.searchsorted(separators, breaks), prepend=0)
    reject(per_line != filled * (fields - 1), starts,
           lambda line: f"expected {fields} {name}, got {per_line[line] + 1}")
    # Row i: the offset before line i's first field, its separators, its break.
    bounds = np.empty((np.count_nonzero(filled), fields + 1), dtype=np.int32)
    bounds[:, 0] = starts[filled] - 1
    bounds[:, 1:-1] = separators.reshape(-1, fields - 1)
    bounds[:, -1] = breaks[filled]
    return codes, bounds[:, :-1] + 1, bounds[:, 1:]


def padded_tokens(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The tokens codes[starts[i]:ends[i]] as the rows of a uint8 array, zero
    after each token and in at least the last column, and the mask of the
    bytes that belong to a token."""
    width = int((ends - starts).max(initial=0)) + 1
    index = starts[:, None] + np.arange(width, dtype=np.int32)
    inside = index < ends[:, None]
    return codes.take(index, mode="clip") * inside, inside


def float_values(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The float64 values of the tokens codes[starts:ends], and the mask of
    the tokens that hold a byte outside [0-9A-Za-z.+-] or that numpy's cast
    rejects (the cast alone also reads "1_0", " 1" and "1\x0b")."""
    padded, inside = padded_tokens(codes, starts, ends)
    bad = (inside > _FLOAT_BYTES.take(padded)).any(axis=-1)
    tokens = padded.view(f"S{padded.shape[1]}").ravel()
    tokens[bad] = b"0"
    try:
        return tokens.astype(np.float64), bad
    except ValueError:
        # Find the tokens the cast rejects, one at a time.
        for row in range(tokens.size):
            try:
                tokens[row : row + 1].astype(np.float64)
            except ValueError:
                bad[row], tokens[row] = True, b"0"
        return tokens.astype(np.float64), bad


def digit_values(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The values of the tokens codes[starts:ends] (arrays of any shape) as
    uint64, and the mask of the tokens that are empty or hold a byte other
    than a decimal digit.  A token of more than 19 digits reads as 2**64 - 1."""
    widths = ends - starts
    width = int(widths.max(initial=1))
    # Right-aligned digits, zero to the left of each token.
    index = ends[..., None] - width + np.arange(width, dtype=np.int32)
    digits = np.where(index >= starts[..., None], codes[np.maximum(index, 0)] - 48, 0)
    bad = (digits > 9).any(axis=-1) | (widths < 1)
    digits = digits[..., -_POWERS.size :]
    values = digits.astype(np.uint64) @ _POWERS[-digits.shape[-1] :]
    values[widths > _POWERS.size] = np.iinfo(np.uint64).max
    return values, bad


def int_token(token: str, name: str) -> int:
    """The value of an optional "-" and ASCII decimal digits (those that
    `digit_values` reads).  Raises ValueError naming `name` for any other token."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"malformed {name}: {token!r}")
    return int(token)


def float_token(token: str, name: str) -> float:
    """The value of a token of bytes [0-9A-Za-z.+-] that `float()` reads (the
    tokens `float_values` accepts).  Raises ValueError naming `name` for any other."""
    try:
        if not token.strip(_FLOAT_TEXT):
            return float(token)
    except ValueError:
        pass
    raise ValueError(f"malformed {name}: {token!r}")


def intern_tokens(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray, lines: np.ndarray,
                  ids: Callable[[bytes], int]) -> np.ndarray:
    """The id of each token codes[starts[i]:ends[i]].

    `ids` is called once per distinct token, in order of first appearance,
    and returns its id.  A ValueError it raises rejects the line of that
    first appearance (`lines[i]` is the chunk offset of token i's line).
    """
    padded, _ = padded_tokens(codes, starts, ends)
    # A 1 byte after each token: an "S" array ignores trailing NUL bytes,
    # which would make "SF" and "SF\x00" one token.
    padded[np.arange(starts.size), ends - starts] = 1
    distinct, first, inverse = np.unique(padded.view(f"S{padded.shape[1]}").ravel(),
                                         return_index=True, return_inverse=True)
    found = np.empty(distinct.size, dtype=np.int64)
    for position in np.argsort(first).tolist():
        try:
            found[position] = ids(distinct[position][:-1])
        except ValueError as exc:
            raise BadLine(int(lines[first[position]]), str(exc)) from None
    return found[inverse.reshape(-1)]


# --- small formats -----------------------------------------------------------------


def read_rows(text: str, columns: Collection[int], row: Callable[..., object],
              header: str | None = None, comments: bool = False) -> list:
    """`row(*fields)` for each line of `text` split at tabs, in file order;
    only an empty line is skipped, and with `comments` a line that starts
    with "#".  With `header`, the first line must be exactly that text.
    Raises ParseError naming the line of a row whose field count is not in
    `columns` or for which `row` raises ValueError or ParseError."""
    lines = text.split("\n")
    if header is not None and lines[0] != header:
        raise ParseError("missing header row", line=1)
    skip = int(header is not None)
    rows = []
    for number, line in enumerate(lines[skip:], start=skip + 1):
        if not line or comments and line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            if len(fields) not in columns:
                counts = " or ".join(map(str, columns))
                raise ParseError(f"expected {counts} columns, got {len(fields)}")
            rows.append(row(*fields))
        except (ValueError, ParseError) as exc:
            raise ParseError(str(exc), line=number) from None
    return rows


def dump_truth(truth: Mapping[FlowKey, str]) -> str:
    # Lines sorted as text, for an output that does not depend on the
    # mapping's order.
    return "".join(sorted(f"{key_columns(key)}\t{label}\n" for key, label in truth.items()))


def load_truth(text: str) -> dict[FlowKey, str]:
    """Parse a truth sidecar (`read_rows`).  Each row's key, read as the
    event format's key columns (`_flow_id`), is a flow not given before, so
    flows and labels pair up in file order; its label is `NORMAL_LABEL` or
    an attack name, non-empty, lowercase and without surrounding
    whitespace.  Raises ParseError naming the line of a malformed row or of
    a repeated flow."""
    flow_ids: dict[FlowKey, int] = {}

    def row(*fields: str) -> str:
        key_text, known = "\t".join(fields[:5]), len(flow_ids)
        if _flow_id(key_text, flow_ids) < known:
            raise ParseError(f"flow {key_text!r} given twice")
        label = fields[5]
        if not label or label != label.strip() or label != label.lower():
            raise ParseError(f"label must be {NORMAL_LABEL!r} or a lowercase attack name"
                             f" without padding, got {label!r}")
        return label

    return dict(zip(flow_ids, read_rows(text, (6,), row)))


def dump_window_truth(truth: Mapping[int, bool]) -> str:
    return "".join(f"{index}\t{'attack' if is_attack else 'normal'}\n"
                   for index, is_attack in sorted(truth.items()))


def load_window_truth(text: str) -> dict[int, bool]:
    """Parse a window-truth file (`read_rows`).  Raises ParseError naming the
    line of a malformed row or of a window index given before."""
    truth: dict[int, bool] = {}

    def row(index: str, label: str) -> None:
        if label not in ("attack", "normal"):
            raise ParseError(f"window label must be attack or normal, got {label!r}")
        index = int_token(index, "window index")
        if index in truth:
            raise ParseError(f"window {index} given twice")
        truth[index] = label == "attack"

    read_rows(text, (2,), row)
    return truth
