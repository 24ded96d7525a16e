"""Text interchange formats for event streams and ground truth.

Event files carry one event per line, in timestamp order:

    timestamp<TAB>proto<TAB>src<TAB>sport<TAB>dst<TAB>dport<TAB>bytes

A truth sidecar maps flow keys (``proto:src:sport:dst:dport``) to labels,
one per line; a window-truth file maps window indices to labels.  All
files are UTF-8 with LF line endings.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import OrderingError, ParseError
from .model import EventTable, FlowKey, GroundTruthLabel, ProtocolCategory

_MAX_BYTES = 2**63 - 1


def dump_events(events: EventTable) -> str:
    # The key columns of each flow are formatted once.
    middles = [
        f"\t{k.protocol}\t{k.src_addr}\t{k.src_port}\t{k.dst_addr}\t{k.dst_port}\t"
        for k in events.keys
    ]
    return "".join([
        f"{timestamp!r}{middles[flow]}{count}\n"
        for timestamp, flow, count in zip(
            events.timestamp.tolist(), events.flow.tolist(), events.bytes.tolist()
        )
    ])


def load_events(text: str) -> EventTable:
    """Parse an event file into an EventTable, a chunk of lines at a time.

    A regular chunk (see `_decode_events`) is decoded with array
    operations; any other chunk goes through the per-line loop
    `_parse_event_lines`.  Both intern the five key columns by their text,
    so each distinct flow's key is parsed and validated once, and number
    flows in order of first appearance.  Raises ParseError naming the line
    for a malformed line, a non-finite or negative timestamp or a byte
    count outside [1, 2**63 - 1], and OrderingError naming the line of the
    first event that is earlier than its predecessor.
    """
    columns = (array("d"), array("i"), array("q"))
    interned: dict[str, int] = {}
    flow_ids: dict[FlowKey, int] = {}
    number, previous = 0, 0.0
    blocks = (text[start : start + CHUNK_BYTES].encode("utf-8", "surrogatepass")
              for start in range(0, len(text), CHUNK_BYTES))
    for chunk in read_chunks(blocks):
        decoded = _decode_events(chunk, previous, interned, flow_ids)
        if decoded is None:
            number, previous = _parse_event_lines(chunk.decode("utf-8", "surrogatepass"), number,
                                                  previous, columns, interned, flow_ids)
            continue
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
    """The (timestamp, flow, bytes) columns of a regular chunk, or None.

    Regular: `split_fields` accepts it with seven columns, every timestamp
    casts to a finite float64 >= 0 and none is earlier than its
    predecessor (`previous` for the first), every byte count is 1-18
    digits and >= 1, and every new key text passes `_flow_id`.
    """
    split = split_fields(chunk, b"\t", 7)
    if split is None:
        return None
    codes, starts, ends = split
    column = token_column(codes, starts[:, 0], ends[:, 0])
    if column is None:
        return None
    try:
        timestamps = column.astype(np.float64)
    except ValueError:
        return None
    if not (np.isfinite(timestamps).all() and (timestamps >= 0).all()
            and (timestamps[:1] >= previous).all() and (np.diff(timestamps) >= 0).all()):
        return None
    counts = digit_values(codes, starts[:, 6], ends[:, 6])
    if counts is None or (counts < 1).any():
        return None

    def flow_id(token: bytes) -> int | None:
        text = token.decode()
        flow = interned.get(text)
        if flow is None:
            try:
                flow = _flow_id(text, interned, flow_ids)
            except ValueError:
                return None
        return flow

    flows = intern_tokens(token_column(codes, starts[:, 1], ends[:, 5]), flow_id)
    return None if flows is None else (timestamps, flows, counts)


def _parse_event_lines(text: str, number: int, previous: float, columns,
                       interned: dict[str, int], flow_ids: dict[FlowKey, int]) -> tuple[int, float]:
    """Parse the lines of `text` (`str.splitlines`) after line `number`, appending to
    `columns`; returns the last line number and timestamp."""
    timestamps, flows, counts = columns
    for number, line in enumerate(text.splitlines(), start=number + 1):
        first, last = line.find("\t"), line.rfind("\t")
        # An interned key text holds exactly four tabs, so a hit means the
        # line has seven columns.
        flow = interned.get(line[first + 1 : last])
        try:
            if flow is None:
                if not line.strip():
                    continue
                columns_found = line.count("\t") + 1
                if columns_found != 7:
                    raise ParseError(f"expected 7 columns, got {columns_found}")
                flow = _flow_id(line[first + 1 : last], interned, flow_ids)
            timestamp = float(line[:first])
            count = int(line[last + 1 :])
            if not 0.0 <= timestamp < math.inf:
                raise ParseError(
                    f"negative timestamp: {timestamp}" if -math.inf < timestamp < 0
                    else f"non-finite timestamp: {timestamp}"
                )
            if not 1 <= count <= _MAX_BYTES:
                raise ParseError(
                    f"event byte count must be >= 1, got {count}" if count < 1
                    else f"event byte count does not fit int64: {count}"
                )
        except (ValueError, ParseError) as exc:
            raise ParseError(str(exc), line=number) from None
        if timestamp < previous:
            raise OrderingError(
                f"line {number}: events are not sorted by timestamp ({timestamp} after {previous})"
            )
        previous = timestamp
        timestamps.append(timestamp)
        flows.append(flow)
        counts.append(count)
    return number, previous


# --- chunked reading ---------------------------------------------------------------

# About how many bytes the text parsers decode at a time; a chunk ends at
# a line break.
CHUNK_BYTES = 256 * 1024
# Widest token the chunk decoders pad into a fixed-width column; a chunk
# with a wider one is parsed line by line.
_MAX_TOKEN = 255
_PRINTABLE = bytes(range(0x21, 0x7F))
_POWERS = np.array([10**k for k in range(17, -1, -1)], dtype=np.int64)


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


def split_fields(chunk: bytes, separator: bytes, fields: int):
    """Field offsets of a chunk of regular lines, or None.

    Regular: every byte is printable ASCII, `separator` or "\n", and every
    non-empty line holds `fields` fields.  Returns the chunk as a uint8
    array and two (non-empty lines, `fields`) arrays of start and end
    offsets of the fields.
    """
    if chunk.translate(None, _PRINTABLE + separator + b"\n"):
        return None
    codes = np.frombuffer(chunk, dtype=np.uint8)
    breaks = np.flatnonzero(codes == 10)
    separators = np.flatnonzero(codes == separator[0])
    starts = np.concatenate(([0], breaks[:-1] + 1))
    filled = breaks > starts
    per_line = np.diff(np.searchsorted(separators, breaks), prepend=0)
    if not np.array_equal(per_line, filled * (fields - 1)):
        return None
    # Row i: the offset before line i's first field, its separators, its break.
    bounds = np.empty((np.count_nonzero(filled), fields + 1), dtype=np.int32)
    bounds[:, 0] = starts[filled] - 1
    bounds[:, 1:-1] = separators.reshape(-1, fields - 1)
    bounds[:, -1] = breaks[filled]
    return codes, bounds[:, :-1] + 1, bounds[:, 1:]


def token_column(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The tokens codes[starts[i]:ends[i]] as one fixed-width bytes ("S") array,
    or None when one is wider than _MAX_TOKEN bytes."""
    width = int((ends - starts).max(initial=1))
    if width > _MAX_TOKEN:
        return None
    index = starts[:, None] + np.arange(width, dtype=np.int32)
    padded = codes.take(index, mode="clip")
    padded *= index < ends[:, None]
    return padded.view(f"S{width}").ravel()


def digit_values(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The int64 values of the tokens codes[starts:ends] (arrays of any shape),
    or None unless each is 1 to 18 decimal digits."""
    widths = ends - starts
    width = int(widths.max(initial=1))
    if width > _POWERS.size or (widths < 1).any():
        return None
    # Right-aligned digits, zero to the left of each token.
    index = ends[..., None] - width + np.arange(width, dtype=np.int32)
    digits = np.where(index >= starts[..., None], codes[np.maximum(index, 0)] - 48, 0)
    if (digits > 9).any():
        return None
    return digits.astype(np.int64) @ _POWERS[-width:]


def intern_tokens(tokens: np.ndarray | None, ids: Callable[[bytes], int | None]) -> np.ndarray | None:
    """The id of each token of a bytes column, or None.

    `ids` is called once per distinct token, in order of first appearance,
    and returns its id, or None to reject the chunk.
    """
    if tokens is None:
        return None
    distinct, first, inverse = np.unique(tokens, return_index=True, return_inverse=True)
    found = np.empty(distinct.size, dtype=np.int64)
    for position in np.argsort(first).tolist():
        value = ids(distinct[position])
        if value is None:
            return None
        found[position] = value
    return found[inverse.reshape(-1)]


def append_columns(columns, values) -> None:
    """Append each array of `values` to the `array` column of the same position."""
    for column, value in zip(columns, values):
        column.frombytes(np.asarray(value, dtype=column.typecode).tobytes())


def flow_key_token(key: FlowKey) -> str:
    return f"{key.protocol}:{key.src_addr}:{key.src_port}:{key.dst_addr}:{key.dst_port}"


def parse_flow_key(token: str) -> FlowKey:
    parts = token.split(":")
    if len(parts) != 5:
        raise ParseError(f"malformed flow key token: {token!r}")
    proto, src, sport, dst, dport = parts
    return FlowKey(
        protocol=ProtocolCategory.parse(proto),
        src_addr=src,
        dst_addr=dst,
        src_port=int(sport),
        dst_port=int(dport),
    ).validate()


def dump_truth(truth: Mapping[FlowKey, GroundTruthLabel]) -> str:
    lines = [
        f"{flow_key_token(key)}\t{label}"
        for key, label in sorted(truth.items(), key=lambda item: flow_key_token(item[0]))
    ]
    return "".join(line + "\n" for line in lines)


def load_truth(text: str) -> dict[FlowKey, GroundTruthLabel]:
    truth = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 2 columns, got {len(parts)}", line=number)
        try:
            truth[parse_flow_key(parts[0])] = GroundTruthLabel.parse(parts[1])
        except (ValueError, ParseError) as exc:
            raise ParseError(str(exc), line=number) from None
    return truth


def dump_window_truth(truth: Mapping[int, bool]) -> str:
    lines = [
        f"{index}\t{'attack' if is_attack else 'normal'}"
        for index, is_attack in sorted(truth.items())
    ]
    return "".join(line + "\n" for line in lines)


def load_window_truth(text: str) -> dict[int, bool]:
    truth = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in ("attack", "normal"):
            raise ParseError(f"malformed window-truth line: {line!r}", line=number)
        try:
            truth[int(parts[0])] = parts[1] == "attack"
        except ValueError as exc:
            raise ParseError(str(exc), line=number) from None
    return truth
