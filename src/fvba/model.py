"""Core domain types: flow identities, event tables, window series, ground truth.

All types are value types that are not changed after construction; they
are safe to share between threads and to use as dictionary keys where
hashable.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OrderingError, ParameterError


class ProtocolCategory(enum.Enum):
    """Protocol category of a flow: TCP, UDP or ICMP."""

    TCP = "TCP"
    UDP = "UDP"
    ICMP = "ICMP"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, token: str) -> "ProtocolCategory":
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ParameterError(f"unknown protocol category: {token!r}") from None


# The detection series in output order: each protocol, then the aggregate.
SERIES: tuple[ProtocolCategory | None, ...] = (*ProtocolCategory, None)


def series_token(protocol: ProtocolCategory | None) -> str:
    """A series' name in the text formats: its protocol, or "ALL" if aggregate."""
    return "ALL" if protocol is None else protocol.value


def parse_series(token: str) -> ProtocolCategory | None:
    """The series that `series_token` names: exactly "TCP", "UDP", "ICMP" or "ALL"."""
    if token == "ALL":
        return None
    try:
        return ProtocolCategory(token)
    except ValueError:
        raise ParameterError(f"unknown series: {token!r}") from None


# Ground truth labels a flow or a KDD-99 record "normal" or with the
# lowercase name of an attack ("smurf", "neptune", "highrate", ...).
NORMAL_LABEL = "normal"


class FlowKey(NamedTuple):
    """5-tuple flow identity.

    Addresses are opaque tokens (the toolkit never interprets them), but
    hold no tab, line break or lone surrogate, so that the event format,
    UTF-8 text, can carry them.
    ICMP flows carry port 0 on both sides.
    """

    protocol: ProtocolCategory
    src_addr: str
    dst_addr: str
    src_port: int = 0
    dst_port: int = 0

    def validate(self) -> "FlowKey":
        for address in (self.src_addr, self.dst_addr):
            # splitlines drops exactly the characters it splits on.
            if "\t" in address or "".join(address.splitlines()) != address:
                raise ParameterError(f"flow address holds a tab or line break: {address!r}")
            try:
                # Encoding fails exactly for a lone surrogate.
                address.encode()
            except UnicodeEncodeError:
                raise ParameterError(f"flow address holds a lone surrogate: {address!r}") from None
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ParameterError(f"port out of range: {port}")
        if self.protocol is ProtocolCategory.ICMP and (self.src_port or self.dst_port):
            raise ParameterError("ICMP flow keys must use port 0 on both sides")
        return self


class EventTable:
    """A time-sorted event stream, stored as columns.

    Event i is `bytes[i]` bytes of flow `keys[flow[i]]` arriving at
    `timestamp[i]`; its protocol is that flow key's.  The columns are a
    float64, an int32 and an int64 array of one length; `keys` holds each
    flow key once.  This is the toolkit's only in-memory form of an event
    stream.  Treat the arrays as read-only.

    Raises ParameterError, naming the first offending event, for a non-finite or
    negative timestamp, a byte count below 1 or a flow id outside `keys`, for
    repeated keys and for a key that fails `FlowKey.validate`; OrderingError for
    the first event earlier than the one before it (ties are kept).  So
    `profiler.windowize`, `window_truth` and `dump_events` rely on time order.
    """

    __slots__ = ("timestamp", "flow", "bytes", "keys")

    def __init__(self, timestamp, flow, bytes, keys: Sequence[FlowKey]):
        self.timestamp = np.asarray(timestamp, dtype=np.float64)
        self.flow = np.asarray(flow, dtype=np.int32)
        self.bytes = np.asarray(bytes, dtype=np.int64)
        self.keys = tuple(keys)
        size = self.timestamp.shape
        if len(size) != 1 or self.flow.shape != size or self.bytes.shape != size:
            raise ParameterError("event columns must be one-dimensional and of one length")
        if len(set(self.keys)) != len(self.keys):
            raise ParameterError("flow keys must be distinct")
        for key in self.keys:
            key.validate()
        _reject_first(~(np.isfinite(self.timestamp) & (self.timestamp >= 0)), self.timestamp,
                      "timestamp must be finite and non-negative, got {}")
        _reject_first(np.concatenate(([False], self.timestamp[1:] < self.timestamp[:-1])),
                      self.timestamp, "events are not sorted by timestamp ({} after {})",
                      OrderingError)
        _reject_first(self.bytes < 1, self.bytes, "event byte count must be >= 1, got {}")
        _reject_first((self.flow < 0) | (self.flow >= len(self.keys)), self.flow,
                      f"flow id {{}} outside the {len(self.keys)} flow keys")

    def __len__(self) -> int:
        return self.timestamp.size

    def __eq__(self, other) -> bool:
        """Equal when both hold the same events in the same order."""
        if not isinstance(other, EventTable):
            return NotImplemented
        if not (np.array_equal(self.timestamp, other.timestamp)
                and np.array_equal(self.bytes, other.bytes)):
            return False
        # Flow ids may differ between tables; compare the keys they name.
        position = {key: index for index, key in enumerate(self.keys)}
        remap = np.array([position.get(key, -1) for key in other.keys], dtype=np.int64)
        return np.array_equal(self.flow, remap[other.flow])

    def __repr__(self) -> str:
        return f"EventTable({len(self)} events, {len(self.keys)} flows)"

    def protocols(self) -> set[ProtocolCategory]:
        """Protocols of the flows that have at least one event."""
        present = np.flatnonzero(np.bincount(self.flow, minlength=len(self.keys)))
        return {self.keys[f].protocol for f in present.tolist()}


def _reject_first(invalid: np.ndarray, values: np.ndarray, message: str,
                  error: type[Exception] = ParameterError) -> None:
    """Raise `error` at the first marked event, formatting its value and its predecessor's."""
    if invalid.any():
        index = int(np.argmax(invalid))
        raise error(f"event {index}: " + message.format(values[index], values[index - 1]))


class Window(NamedTuple):
    """One window of a `WindowSeries`, as iterating the series yields it."""

    index: int
    volume: int
    flow_count: int


@dataclass(frozen=True, eq=False)
class WindowSeries:
    """Per-protocol traffic aggregates of consecutive monitoring windows, as columns.

    Window i of the series is window `first + i` of the stream, `window_length`
    long.  `volume[i]` is its total byte count and `flow_count[i]` the number
    of distinct flows seen (int64 columns).  Its rows are
    `bounds[i]:bounds[i + 1]` of `flow` (ids into `keys`) and `bytes`.
    `protocol` is None for a series aggregated over all protocol categories
    (see `profiler.windowize`).  Treat the arrays as read-only.
    """

    protocol: ProtocolCategory | None
    window_length: float
    first: int
    volume: np.ndarray
    flow_count: np.ndarray
    bounds: np.ndarray
    flow: np.ndarray
    bytes: np.ndarray
    keys: Sequence[FlowKey]

    def __len__(self) -> int:
        return self.volume.size

    def __iter__(self) -> Iterator[Window]:
        return map(Window, range(self.first, self.first + len(self)), self.volume.tolist(),
                   self.flow_count.tolist())

    @property
    def window_index(self) -> np.ndarray:
        """The stream's window index of each window, as int64."""
        return np.arange(self.first, self.first + len(self), dtype=np.int64)

    def flow_totals(self, start: int, stop: int) -> "FlowTotals":
        """Per-(window, flow) byte totals of windows start..stop-1 of the series,
        in order of window and, within a window, of each flow's first row."""
        bounds = self.bounds[start:stop + 1]
        lo, hi = bounds[0], bounds[-1]
        window = np.repeat(np.arange(start, stop), bounds[1:] - bounds[:-1])
        # One code per (window, flow) pair, as profiler.window_samples forms
        # them; the totals are exact, as it checked that the series total fits.
        codes = window * len(self.keys)
        codes += self.flow[lo:hi]
        # Sorted stably, a pair keeps its rows' order and starts where the code changes.
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        new = np.empty(codes.size, dtype=bool)
        new[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        first = order[starts]
        by_row = np.argsort(first)
        rows = first[by_row]
        totals = np.add.reduceat(self.bytes[lo:hi][order], starts)[by_row]
        return FlowTotals(window[rows], self.flow[lo:hi][rows], totals, self.keys)


@dataclass(frozen=True, eq=False)
class FlowTotals:
    """Byte totals of (window, flow) pairs of a series, as columns.

    Row j is `bytes[j]` bytes (int64) of flow `keys[flow[j]]` in window
    `window[j]` of the series (its position, not the stream's window
    index).  Treat the arrays as read-only.
    """

    window: np.ndarray
    flow: np.ndarray
    bytes: np.ndarray
    keys: Sequence[FlowKey]

    def __len__(self) -> int:
        return self.bytes.size
