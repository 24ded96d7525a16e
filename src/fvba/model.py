"""Core domain types: flow identities, event tables, windowed samples, ground truth.

All types are value types that are not changed after construction; they
are safe to share between threads and to use as dictionary keys where
hashable.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError


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
            if any("\ud800" <= char <= "\udfff" for char in address):
                raise ParameterError(f"flow address holds a lone surrogate: {address!r}")
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

    Raises ParameterError, naming the first offending event, for a
    non-finite or negative timestamp, a byte count below 1 or a flow id
    outside `keys`, for repeated keys and for a key that fails
    `FlowKey.validate`.  Time order is checked where it
    is relied on (`profiler.windowize`).
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


def _reject_first(invalid: np.ndarray, values: np.ndarray, message: str) -> None:
    if invalid.any():
        index = int(np.argmax(invalid))
        raise ParameterError(f"event {index}: " + message.format(values[index]))


class WindowFlows(Mapping[FlowKey, int]):
    """Per-flow byte totals of one window, read from event-table columns.

    The dict is built on first read, keyed in order of each flow's first
    event in the window, so a window whose flows are never read costs only
    two array views.
    """

    __slots__ = ("_keys", "_flow", "_bytes", "_totals")

    def __init__(self, keys: Sequence[FlowKey], flow: np.ndarray, counts: np.ndarray):
        self._keys, self._flow, self._bytes = keys, flow, counts
        self._totals: dict[FlowKey, int] | None = None

    def _built(self) -> dict[FlowKey, int]:
        if self._totals is None:
            totals: dict[FlowKey, int] = {}
            keys = self._keys
            for f, count in zip(self._flow.tolist(), self._bytes.tolist()):
                key = keys[f]
                totals[key] = totals.get(key, 0) + count
            self._totals = totals
        return self._totals

    def __getitem__(self, key: FlowKey) -> int:
        return self._built()[key]

    def __contains__(self, key) -> bool:
        return key in self._built()

    def __iter__(self) -> Iterator[FlowKey]:
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())

    def __repr__(self) -> str:
        return f"WindowFlows({self._built()!r})"


@dataclass(frozen=True)
class WindowSample:
    """Per-protocol traffic aggregate for one monitoring window.

    `volume` is the total byte count over the window, `flow_count` the
    number of distinct flows seen, and `per_flow_bytes` the byte total of
    each of those flows.  `protocol` is None for a sample aggregated over
    all protocol categories (see `profiler.windowize`).  The volume and
    flow count are checked against a plain flow map; a `WindowFlows` view
    from `windowize` is derived from the same columns as they are.
    """

    window_index: int
    window_start: float
    window_length: float
    protocol: ProtocolCategory | None
    volume: int
    flow_count: int
    per_flow_bytes: Mapping[FlowKey, int]

    def __post_init__(self):
        if isinstance(self.per_flow_bytes, WindowFlows):
            return
        if self.volume != sum(self.per_flow_bytes.values()):
            raise ParameterError("window volume must equal the sum of per-flow bytes")
        if self.flow_count != len(self.per_flow_bytes):
            raise ParameterError("flow_count must equal the number of per-flow entries")


@dataclass(frozen=True)
class GroundTruthLabel:
    """Ground truth for a flow or window: normal traffic or a named attack.

    Attack names are lowercase tokens ("smurf", "neptune", "highrate", ...).
    """

    attack: str | None = None

    def __post_init__(self):
        if self.attack is not None and self.attack != self.attack.lower():
            raise ParameterError(f"attack names are lowercase tokens: {self.attack!r}")

    @property
    def is_attack(self) -> bool:
        return self.attack is not None

    def __str__(self) -> str:
        return self.attack if self.attack is not None else "normal"

    @classmethod
    def parse(cls, token: str) -> "GroundTruthLabel":
        token = token.strip()
        return cls() if token == "normal" else cls(attack=token)


NORMAL = GroundTruthLabel()
