"""Text interchange formats for event streams and ground truth.

Event files carry one event per line, in timestamp order:

    timestamp<TAB>proto<TAB>src<TAB>sport<TAB>dst<TAB>dport<TAB>bytes

A truth sidecar maps flow keys, written as the same five key columns, to
labels (`proto<TAB>src<TAB>sport<TAB>dst<TAB>dport<TAB>label`), one per
line; a window-truth file maps window indices to labels.  All files are
UTF-8; "\n", "\r\n" and "\r" are the only line breaks.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import Error, OrderingError, ParseError
from .model import EventTable, FlowKey, GroundTruthLabel, ProtocolCategory

_MAX_BYTES = np.uint64(2**63 - 1)


def _key_columns(key: FlowKey) -> str:
    return f"{key.protocol}\t{key.src_addr}\t{key.src_port}\t{key.dst_addr}\t{key.dst_port}"


def dump_events(events: EventTable) -> str:
    # The key columns of each flow are formatted once.
    middles = [f"\t{_key_columns(k)}\t" for k in events.keys]
    return "".join([
        f"{timestamp!r}{middles[flow]}{count}\n"
        for timestamp, flow, count in zip(
            events.timestamp.tolist(), events.flow.tolist(), events.bytes.tolist()
        )
    ])


def load_events(text: str) -> EventTable:
    """Parse an event file into an EventTable, a chunk of lines at a time.

    `_decode_events` decodes each chunk and defines the format.  Each
    distinct flow's key text is parsed and validated once, and flows are
    numbered in order of first appearance.  Raises ParseError naming the
    first malformed line (see `_decode_events`), or OrderingError naming
    the line of the first event that is earlier than its predecessor.
    """
    columns = (array("d"), array("i"), array("q"))
    interned: dict[str, int] = {}
    flow_ids: dict[FlowKey, int] = {}
    number, previous = 0, 0.0
    blocks = (text[start : start + CHUNK_BYTES].encode("utf-8", "surrogatepass")
              for start in range(0, len(text), CHUNK_BYTES))
    for chunk in decoder_chunks(blocks):
        decode = partial(_decode_events, previous=previous, interned=interned, flow_ids=flow_ids)
        decoded = decode_lines(decode, chunk, number)
        append_columns(columns, decoded)
        number += chunk.count(b"\n")
        if len(decoded[0]):
            previous = float(decoded[0][-1])
    return EventTable(*columns, list(flow_ids))


def _flow_id(text: str, interned: dict[str, int], flow_ids: dict[FlowKey, int]) -> int:
    """Parse, validate and intern the key columns `proto\tsrc\tsport\tdst\tdport`."""
    proto, src, sport, dst, dport = text.split("\t")
    key = FlowKey(protocol=ProtocolCategory.parse(proto), src_addr=src, dst_addr=dst,
                  src_port=int(sport), dst_port=int(dport)).validate()
    # Texts such as "tcp" and "TCP" name one flow.
    flow = interned[text] = flow_ids.setdefault(key, len(flow_ids))
    return flow


def _decode_events(chunk: bytes, previous: float, interned: dict[str, int],
                   flow_ids: dict[FlowKey, int]):
    """The (timestamp, flow, bytes) columns of the lines of a chunk.

    An empty line is skipped.  Any other line holds seven tab-separated
    columns, checked in this order: five key columns that `_flow_id`
    accepts; a timestamp of bytes [0-9A-Za-z.+-] that numpy's float64
    cast reads; a byte count of decimal digits; a finite timestamp >= 0;
    a byte count in [1, 2**63 - 1]; a timestamp no earlier than the line
    before (`previous` for the first).  Raises BadLine for the first line
    that fails (see `decode_lines`).
    """
    codes, starts, ends = split_fields(chunk, b"\t", 7, "columns")
    lines = starts[:, 0]

    def text(row: int, column: int) -> str:
        return chunk[starts[row, column] : ends[row, column]].decode("utf-8", "surrogatepass")

    def flow_id(token: bytes) -> int:
        key_text = token.decode("utf-8", "surrogatepass")
        flow = interned.get(key_text)
        return _flow_id(key_text, interned, flow_ids) if flow is None else flow

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
# Longest line `decoder_chunks` leaves among others in a chunk.
_MAX_LINE = 255
_POWERS = np.array([10**k for k in range(18, -1, -1)], dtype=np.uint64)
_FLOAT_BYTES = np.zeros(256, dtype=bool)
_FLOAT_BYTES[list(b"0123456789.+-abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")] = True


def read_chunks(blocks: Iterable[bytes]) -> Iterator[bytes]:
    """Regroup byte blocks into chunks of about CHUNK_BYTES that each end at "\n".

    "\r\n" and a lone "\r" become "\n" first, because both text formats
    count either as one line break; a last line without a break gets one.
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


def decode_lines(decode: Callable[[bytes], tuple], chunk: bytes, number: int) -> tuple:
    """`decode(chunk)` for a chunk that follows line `number` of its file.

    A decoder checks all its lines for one condition at a time, in the
    order the conditions apply to one line, and raises BadLine for the
    first line that fails.  A line before it may fail a later condition,
    so the lines before it are decoded again first: the error raised
    names the first bad line of the file.  A rejected chunk yields nothing.
    """
    try:
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


def append_columns(columns, values) -> None:
    """Append each array of `values` to the `array` column of the same position."""
    for column, value in zip(columns, values):
        column.frombytes(np.asarray(value, dtype=column.typecode).tobytes())


# --- small formats -----------------------------------------------------------------


def dump_truth(truth: Mapping[FlowKey, GroundTruthLabel]) -> str:
    # Lines sorted as text, for an output that does not depend on the
    # mapping's order.
    return "".join(sorted(f"{_key_columns(key)}\t{label}\n" for key, label in truth.items()))


def load_truth(text: str) -> dict[FlowKey, GroundTruthLabel]:
    """Parse a truth sidecar; an empty line is skipped.  Each key is parsed
    as the event format's key columns (`_flow_id`)."""
    interned: dict[str, int] = {}
    flow_ids: dict[FlowKey, int] = {}
    labels: dict[int, GroundTruthLabel] = {}
    for number, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        columns = line.count("\t") + 1
        try:
            if columns != 6:
                raise ParseError(f"expected 6 columns, got {columns}")
            key_text, label = line.rsplit("\t", 1)
            labels[_flow_id(key_text, interned, flow_ids)] = GroundTruthLabel.parse(label)
        except (ValueError, ParseError) as exc:
            raise ParseError(str(exc), line=number) from None
    keys = list(flow_ids)
    return {keys[flow]: label for flow, label in labels.items()}


def dump_window_truth(truth: Mapping[int, bool]) -> str:
    lines = [
        f"{index}\t{'attack' if is_attack else 'normal'}"
        for index, is_attack in sorted(truth.items())
    ]
    return "".join(line + "\n" for line in lines)


def load_window_truth(text: str) -> dict[int, bool]:
    """Parse a window-truth file.  Raises ParseError naming the line of a
    malformed row or of a window index given before."""
    truth = {}
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in ("attack", "normal"):
            raise ParseError(f"malformed window-truth line: {line!r}", line=number)
        try:
            index = int(parts[0])
        except ValueError as exc:
            raise ParseError(str(exc), line=number) from None
        if index in truth:
            raise ParseError(f"window {index} given twice", line=number)
        truth[index] = parts[1] == "attack"
    return truth
