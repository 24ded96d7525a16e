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
from itertools import chain
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
    decode = partial(_decode_events, earlier=columns[0],
                     flows=TokenIndex(partial(_flow_id, flow_ids=flow_ids)))
    decode_source(source, decode, columns)
    return EventTable(*columns, list(flow_ids))


def _flow_id(text: str, flow_ids: dict[FlowKey, int]) -> int:
    """Parse, validate and intern the key columns `proto\tsrc\tsport\tdst\tdport`."""
    proto, src, sport, dst, dport = text.split("\t")
    key = FlowKey(protocol=ProtocolCategory.parse(proto), src_addr=src, dst_addr=dst,
                  src_port=int_token(sport, "port"), dst_port=int_token(dport, "port")).validate()
    # Texts such as "tcp" and "TCP" name one flow.
    return flow_ids.setdefault(key, len(flow_ids))


def _decode_events(chunk: bytes, earlier: array, flows: TokenIndex):
    """The (timestamp, flow, bytes) columns of the lines of a chunk.

    An empty line is skipped.  Any other line holds seven tab-separated
    columns, checked in this order: five key columns that `_flow_id`
    accepts; a timestamp of bytes [0-9A-Za-z.+-] that `float_values` reads
    (as `float()` does); a byte count of decimal digits; a finite timestamp
    >= 0; a byte count in [1, 2**63 - 1]; a timestamp no earlier than the line
    before (for the first, the last of `earlier`, the timestamps of the
    chunks before).  Raises BadLine for the first line that fails (see
    `decode_lines`).
    """
    previous = earlier[-1] if earlier else 0.0
    codes, starts, ends = split_fields(chunk, b"\t", 7, "columns")
    lines = starts[:, 0]

    def text(row: int, column: int) -> str:
        return chunk[starts[row, column] : ends[row, column]].decode()

    flow = flows(codes, starts[:, 1], ends[:, 5], lines)
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
    return timestamps, flow, counts.astype(np.int64)


# --- chunked decoding --------------------------------------------------------------

# About how many bytes the text parsers decode at a time; a chunk ends at
# a line break.
CHUNK_BYTES = 256 * 1024
# Rows `dump_events` formats at a time: about 45 KiB of text, as an event
# line takes some 45 bytes.  A slice's Python objects take several times
# its text, so slices are kept small.  The simulator's `window_truth` scans
# as many at a time.
DUMP_ROWS = 1024
# Longest line `read_chunks` leaves among others in a chunk.
_MAX_LINE = 255
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_FLOAT_POW10 = _POW10.astype(np.float64)
_FIVES = np.array([5**k for k in range(20)], dtype=np.uint64)
# The values of the last three of a token's digit words.
_WORD_SCALES = _POW10[[16, 8, 0]]
# _WORD_MASKS[n] keeps the first n bytes of a little-endian word, _AFTER_MASKS[n]
# clears them and _FRONT_ZEROS[n] holds "0" in them; _ZEROS is "00000000".
_ZEROS = np.uint64(0x3030303030303030)
_WORD_MASKS = np.array([2 ** (8 * n) - 1 for n in range(9)], dtype=np.uint64)
_AFTER_MASKS = ~_WORD_MASKS
_FRONT_ZEROS = _ZEROS & _WORD_MASKS
_PAIR_MASK = np.uint64(0x000000FF000000FF)
_FRACTION_BITS, _HIDDEN_BIT = np.uint64(2**52 - 1), np.uint64(2**52)
# The mantissas m of the values m * 2**e that are two ulps or more from a
# power of two.
_SURE = np.uint64(2**52 + 2), np.uint64(2**53 - 3)
_FLOAT_TEXT = "0123456789.+-abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


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
        for chunk, lines in read_chunks(blocks):
            for column, values in zip(columns, decode_lines(decode, chunk, number)):
                column.frombytes(np.asarray(values, dtype=column.typecode).tobytes())
            number += lines


def read_chunks(blocks: Iterable[bytes]) -> Iterator[tuple[bytes, int]]:
    """Regroup byte blocks into chunks of about CHUNK_BYTES that each end at
    "\n", and yield each with its number of lines.

    "\r\n" and a lone "\r" become "\n" first, because every text format
    counts either as one line break; a last line without a break gets one.
    A line longer than _MAX_LINE bytes gets a chunk of its own: a word
    reader gives each token of a chunk the words of its widest token, so
    this bounds its arrays by about _MAX_LINE + 1 bytes a line, or by one line.
    """
    pending: list[bytes] = []
    size = 0
    # None marks the end of the blocks, after which all that is left is cut.
    for block in chain(blocks, [None]):
        if block is not None:
            pending.append(block)
            size += len(block)
            if size < CHUNK_BYTES or not (b"\n" in block or b"\r" in block):
                continue
        data = b"".join(pending)
        # A final "\r" may be the first half of a "\r\n".
        held = data[-1:] if block is not None and data.endswith(b"\r") else b""
        data = _unify_breaks(data[: len(data) - len(held)])
        if block is None and data and not data.endswith(b"\n"):
            data += b"\n"
        ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10) + 1
        end = int(ends[-1]) if ends.size else 0
        pending, size = [data[end:], held], len(data) - end + len(held)
        starts = np.concatenate(([0], ends[:-1]))
        # The offset and the index of the first line not yet yielded.
        done = first = 0
        for wide in np.flatnonzero(ends - starts > _MAX_LINE + 1).tolist():
            if starts[wide] > done:
                yield data[done : starts[wide]], wide - first
            yield data[starts[wide] : ends[wide]], 1
            done, first = int(ends[wide]), wide + 1
        if done < end:
            yield data[done:end], ends.size - first


def _unify_breaks(data: bytes) -> bytes:
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


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


def float_values(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The float64 values of the tokens codes[starts:ends], and the mask of
    the tokens that `float_token` rejects; its values are those of `float()`.

    A token of 1-19 decimal digits and at most one "." is read exactly from
    its digit words (`_digit_words`, `_eight_digits`), those before the "."
    and those after: its mantissa M and its k places after the "." give
    M / 10**k, correctly rounded (`_nearest` for M > 2**53).  Every other
    token, and one whose value is a tie or near a power of two, is read by
    `float_token` as latin-1 text, in which a byte >= 0x80 is outside its class.
    """
    # Each token's first "." at or after its start (the sentinel is past
    # every token); a second one is a non-digit after it.
    dots = np.append(np.flatnonzero(codes == 46), codes.size)
    point = dots[np.searchsorted(dots, starts)]
    dotted = point < ends
    point = np.minimum(point, ends)
    after = point + dotted
    whole, places = point - starts, ends - after
    digits = whole + places
    fast = (digits >= 1) & (digits <= 19)
    # As many words a side as the widest side of up to 19 digits needs.
    counts = [(min(int(side.max(initial=0)), 19) + 7) // 8 for side in (whole, places)]
    view = _word_view(codes)
    values, bad = _eight_digits(np.concatenate((_digit_words(view, starts, point, counts[0]),
                                                _digit_words(view, after, ends, counts[1]))))
    fast &= ~bad
    # Clipped to index the tables: a fast token has at most 19 places.
    places = np.minimum(places, 19)
    mantissas = (_WORD_SCALES[3 - counts[0] :] @ values[: counts[0]] * _POW10[places]
                 + _WORD_SCALES[3 - counts[1] :] @ values[counts[0] :])
    # 0 for the other tokens, whose words may overflow the casts below.
    mantissas *= fast
    # M = hi + lo exactly.  Up to 2**53, lo is 0 and the quotient M / 10**k
    # correctly rounded; above, `_nearest` corrects the sum.
    hi = mantissas.astype(np.float64)
    lo = (mantissas - hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    scales = _FLOAT_POW10[places]
    result = hi / scales + lo / scales
    large = np.flatnonzero(mantissas > 2**53)
    result[large], unsure = _nearest(result[large], mantissas[large], places[large])
    fast[large[unsure]] = False
    bad = np.zeros(fast.shape, dtype=bool)
    rest = np.flatnonzero(~fast)
    if rest.size:
        chunk = codes.tobytes()
        for row, start, end in zip(rest.tolist(), starts[rest].tolist(), ends[rest].tolist()):
            try:
                result[row] = float_token(chunk[start:end].decode("latin-1"), "timestamp")
            except ValueError:
                bad[row] = True
    return result, bad


def _nearest(values: np.ndarray, mantissas: np.ndarray, places: np.ndarray):
    """The nearest float64 to each x = M / 10**k, M = mantissas[i] in
    (2**53, 10**19) and k = places[i] <= 19, from c = values[i], the sum of
    the quotients hi / 10**k and lo / 10**k (`float_values`), and the mask
    of those it leaves unsure: an exact tie, or a c within two ulps of a
    power of two, where the ulp changes.

    c is within 1.25 ulps of x: hi / 10**k and the sum each round by at
    most half an ulp, lo / 10**k by far less.  With c = m * 2**e (m < 2**53
    an integer), r = M * 2**(1 - e - k) - 2m * 5**k is x - c in units of
    2**(e - 1) / 5**k, so x passes the midpoint to a neighbour of c as r
    passes +-5**k, and |r| < 2.5 * 5**k.  Both sides are scaled by a power
    of two, at most 2**11, to integers, so |r| < 2**63: its low 64 bits,
    which uint64 arithmetic keeps, are r.
    """
    bits = values.view(np.uint64)
    m = bits & _FRACTION_BITS | _HIDDEN_BIT
    shift = 1076 - (bits >> np.uint64(52)).astype(np.int64) - places
    left = np.maximum(shift, 0).astype(np.uint64)
    right = np.maximum(-shift, 0).astype(np.uint64)
    fives = _FIVES[places]
    r = ((mantissas << left) - (m * fives << right + np.uint64(1))).view(np.int64)
    half = (fives << right).view(np.int64)
    unsure = (m < _SURE[0]) | (m > _SURE[1]) | (np.abs(r) == half)
    return (bits + (r > half) - (r < -half)).view(np.float64), unsure


def digit_values(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The values of the tokens codes[starts:ends] (arrays of any shape) as
    uint64, and the mask of the tokens that are empty or hold a byte other
    than a decimal digit.  A token of more than 19 digits reads as 2**64 - 1."""
    widths = (ends - starts).ravel()
    count = max(1, (int(widths.max(initial=0)) + 7) // 8)
    values, bad = _eight_digits(_digit_words(_word_view(codes), starts.ravel(), ends.ravel(),
                                             count))
    bad |= widths < 1
    # Only the last three words of a token of up to 24 bytes count.
    used = min(count, 3)
    values = _WORD_SCALES[3 - used :] @ values[count - used :]
    values[widths > 19] = np.iinfo(np.uint64).max
    return values.reshape(starts.shape), bad.reshape(starts.shape)


def int_token(token: str, name: str) -> int:
    """The value of an optional "-" and ASCII decimal digits (those that
    `digit_values` reads).  Raises ValueError naming `name` for any other token."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"malformed {name}: {token!r}")
    return int(token)


def window_index_token(token: str) -> int:
    """The `int_token` value of a window index; raises ValueError unless it fits int64."""
    index = int_token(token, "window index")
    if not -2**63 <= index < 2**63:
        raise ValueError(f"window index {index} does not fit int64")
    return index


def float_token(token: str, name: str) -> float:
    """The value of a token of bytes [0-9A-Za-z.+-] that `float()` reads (the
    tokens `float_values` accepts).  Raises ValueError naming `name` for any other."""
    try:
        if not token.strip(_FLOAT_TEXT):
            return float(token)
    except ValueError:
        pass
    raise ValueError(f"malformed {name}: {token!r}")


_HASH_BASE = np.uint64(0x9E3779B97F4A7C15)


def _word_view(codes: np.ndarray) -> np.ndarray:
    """The chunk `codes` as aligned little-endian uint64 words, after 8 zero
    bytes and before 9 to 16, for `_read_words`."""
    return np.concatenate((np.zeros(8, dtype=np.uint8), codes,
                           np.zeros(16 - codes.size % 8, dtype=np.uint8))).view("<u8")


def _read_words(view: np.ndarray, offsets: np.ndarray, count: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Words of a chunk from its `_word_view`, `count` from each offset:
    row j, column i holds bytes offsets[i] + 8j to offsets[i] + 8j + 7, read
    little-endian, and joins two aligned words.  A word that starts before
    byte -8 or ends past the view reads other bytes, for the caller to mask."""
    aligned = view.take((offsets >> 3) + 1 + np.arange(count + 1)[:, None], mode="clip")
    shift = ((offsets & 7) << 3).astype(np.uint64)
    # In place, so that few chunk-sized temporaries are alive at once.
    words = np.right_shift(aligned[:-1], shift, out=out)
    high = aligned[1:]
    high <<= 63 - shift
    high <<= np.uint64(1)
    words |= high
    return words


def token_keys(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The tokens codes[starts[i]:ends[i]] as the columns of a uint64 array:
    row 0 holds each token's length and row k + 1 its word k, its bytes 8k
    to 8k + 7 read little-endian, zero past the token's end."""
    lengths = ends - starts
    offsets = np.arange(max(1, (int(lengths.max(initial=0)) + 7) // 8))[:, None]
    keys = np.empty((offsets.size + 1, starts.size), dtype=np.uint64)
    keys[0] = lengths
    words = _read_words(_word_view(codes), starts, offsets.size, out=keys[1:])
    words &= _WORD_MASKS[np.clip(lengths - 8 * offsets, 0, 8)]
    return keys


def _digit_words(view: np.ndarray, starts: np.ndarray, ends: np.ndarray, count: int):
    """The bytes codes[starts[i]:ends[i]] right-aligned in `count` words, "0"
    in front (`_read_words`), the most significant word first: the digit
    words of a token for `_eight_digits`."""
    words = _read_words(view, ends - 8 * count, count)
    # The bytes of each word before the token, clipped to 0-8 by `take`.
    front = starts - ends + 8 * np.arange(count, 0, -1)[:, None]
    words &= _AFTER_MASKS.take(front, mode="clip")
    words |= _FRONT_ZEROS.take(front, mode="clip")
    return words


def _eight_digits(words: np.ndarray):
    """The values of words of eight ASCII digits, the first the most
    significant, and the mask of the columns (tokens) with a byte that is
    not a digit (0x30-0x39)."""
    digits = words ^ _ZEROS
    # Adding 0x76 sets the top bit of a byte above 9 that lacks it; only a
    # byte that has it carries into the next.
    bad = digits + np.uint64(0x7676767676767676)
    bad |= digits
    bad = np.bitwise_or.reduce(bad, axis=0) & np.uint64(0x8080808080808080)
    # Pairs of digits in bytes 0, 2, 4 and 6, then the four pairs in the
    # high half: 10**6 * p0 + 10**4 * p1 + 100 * p2 + p3.
    pairs = digits * np.uint64(10)
    pairs += digits >> np.uint64(8)
    values = pairs & _PAIR_MASK
    values *= np.uint64(100 + (10**6 << 32))
    pairs >>= np.uint64(16)
    pairs &= _PAIR_MASK
    pairs *= np.uint64(1 + (10**4 << 32))
    values += pairs
    values >>= np.uint64(32)
    return values, bad.astype(bool)


def _token_hash(keys: np.ndarray) -> np.ndarray:
    """A wrapping multiply-sum of each column of `token_keys`."""
    return np.cumprod(np.full(keys.shape[0], _HASH_BASE, dtype=np.uint64)) @ keys


class TokenIndex:
    """The ids of the tokens of one file, each parsed once.

    `parse` is called once per distinct token text, in order of first
    appearance, and returns its id; a ValueError it raises rejects the line
    of that first appearance.  The hash of a token's key (`token_keys`)
    routes it to one entry of a table sorted by hash, and the key decides
    whether the token is that entry's; tokens that are not (new ones,
    collisions) are looked up by their bytes.  A token goes first to the
    first entry of its bucket, the top bits of its hash, and only when that
    entry is not its own to the one `np.searchsorted` finds.
    """

    def __init__(self, parse: Callable[[str], int]):
        self.parse = parse
        self.ids: dict[bytes, int] = {}
        # `hashes` holds the entries' hashes, sorted, and `order` the entry of
        # each; column e of `table` is entry e, its id and then its key, and
        # the columns after the last entry are spare.  Entry 0 has the largest
        # hash, so that every token finds an entry, and matches none (its
        # length is 2**64 - 1).
        self.table = np.array([[0], [np.iinfo(np.uint64).max]], dtype=np.uint64)
        self.hashes = np.array([np.iinfo(np.uint64).max], dtype=np.uint64)
        self.order = np.zeros(1, dtype=np.int64)
        self._bucket()

    def __call__(self, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 lines: np.ndarray) -> np.ndarray:
        """The id of each token codes[starts[i]:ends[i]]; `lines[i]` is the
        chunk offset of token i's line."""
        keys = token_keys(codes, starts, ends)
        hashes = _token_hash(keys)
        positions = self.first.take(hashes >> self.shift)
        missed = self._misses(positions, keys)
        positions[missed] = np.searchsorted(self.hashes, hashes[missed])
        missed = missed[self._misses(positions[missed], keys[:, missed])]
        found = self.table[0].take(self.order.take(positions)).astype(np.int64)
        if missed.size:
            chunk, ids, values, new = codes.tobytes(), self.ids, [], []
            for row, start, end in zip(missed.tolist(), starts[missed].tolist(),
                                       ends[missed].tolist()):
                token = chunk[start:end]
                value = ids.get(token)
                if value is None:
                    try:
                        value = ids[token] = self.parse(token.decode())
                    except ValueError as exc:
                        raise BadLine(int(lines[row]), str(exc)) from None
                    new.append(row)
                values.append(value)
            found[missed] = values
            self._insert(hashes[new], keys[:, new], found[new])
        return found

    def _misses(self, positions: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The indices of the keys that differ from the key of the entry at
        their position in hash order."""
        entries = self.table.take(self.order.take(positions), axis=1)
        height = min(keys.shape[0], entries.shape[0] - 1)
        return np.flatnonzero(np.logical_or.reduce(entries[1 : height + 1] != keys[:height]))

    def _bucket(self) -> None:
        # 16 to 32 buckets an entry, but no more than 2**12 (a 32 KiB array):
        # `first` holds the position of the first hash in or after each bucket.
        bits = min(12, self.order.size.bit_length() + 4)
        self.shift = np.uint64(64 - bits)
        self.first = np.searchsorted(self.hashes,
                                     np.arange(2**bits, dtype=np.uint64) << self.shift)

    def _insert(self, hashes: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
        old, size = self.order.size, self.order.size + hashes.size
        # A stable sort keeps entries of one hash in order of insertion.
        hashes = np.concatenate((self.hashes, hashes))
        sort = np.argsort(hashes, kind="stable")
        self.hashes = hashes[sort]
        self.order = np.concatenate((self.order, np.arange(old, size)))[sort]
        self._bucket()
        if size > self.table.shape[1] or keys.shape[0] >= self.table.shape[0]:
            # Room for as many entries again, so that a file's inserts copy
            # the table O(log entries) times.
            table = np.zeros((max(keys.shape[0] + 1, self.table.shape[0]), 2 * size),
                             dtype=np.uint64)
            table[: self.table.shape[0], :old] = self.table[:, :old]
            self.table = table
        self.table[0, old:size] = values
        self.table[1 : keys.shape[0] + 1, old:size] = keys


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
    line of a malformed row, a window index outside int64 or one given before."""
    truth: dict[int, bool] = {}

    def row(index: str, label: str) -> None:
        if label not in ("attack", "normal"):
            raise ParseError(f"window label must be attack or normal, got {label!r}")
        index = window_index_token(index)
        if index in truth:
            raise ParseError(f"window {index} given twice")
        truth[index] = label == "attack"

    read_rows(text, (2,), row)
    return truth
