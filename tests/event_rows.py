"""Row-wise building and reading of event tables and verdicts, for the tests."""

import io
from collections.abc import Sequence
from typing import Mapping, NamedTuple

import numpy as np

from fvba import io as fio
from fvba.detector import Verdicts
from fvba.model import EventTable, FlowKey, ProtocolCategory, WindowSeries
from fvba.profiler import windowize


class Row(NamedTuple):
    """One event: `bytes` bytes of flow `key` arriving at `timestamp`."""

    timestamp: float
    key: FlowKey
    bytes: int


def table(events) -> EventTable:
    """The EventTable of `Row`s, flow ids numbered by first appearance."""
    events = list(events)
    ids: dict[FlowKey, int] = {}
    flows = [ids.setdefault(e.key, len(ids)) for e in events]
    return EventTable([e.timestamp for e in events], flows, [e.bytes for e in events], list(ids))


def rows(events: EventTable) -> list[Row]:
    """The events of a table as `Row`s, in table order."""
    keys = events.keys
    return [
        Row(t, keys[f], b)
        for t, f, b in zip(events.timestamp.tolist(), events.flow.tolist(), events.bytes.tolist())
    ]


def event_text(events: EventTable) -> str:
    """The event file text `fio.dump_events` writes for a table."""
    handle = io.StringIO()
    fio.dump_events(events, handle)
    return handle.getvalue()


def series(windows: list[Mapping[FlowKey, int]], protocol: ProtocolCategory | None,
           length: float = 0.2, first: int = 0) -> WindowSeries:
    """`windowize(table, length, protocol)` of a table whose window first + i
    holds one event per entry (flow key: bytes) of windows[i], at its middle.

    For a protocol series each window also holds an event of another
    protocol, so that an empty window still lies in the table's span.
    """
    filler = None if protocol is None else FlowKey(
        next(p for p in ProtocolCategory if p is not protocol), "filler", "filler")
    events = []
    for index, flows in enumerate(windows, start=first):
        middle = (index + 0.5) * length
        events += [Row(middle, key, count) for key, count in flows.items()]
        if filler is not None:
            events.append(Row(middle, filler, 1))
    return windowize(table(events), length, protocol)


def window_flows(series: WindowSeries, i: int) -> list[tuple[FlowKey, int]]:
    """Window i's (flow key, byte total) pairs of `series.flow_totals`, in
    order of each flow's first row."""
    totals = series.flow_totals(i, i + 1)
    return [(series.keys[f], count)
            for f, count in zip(totals.flow.tolist(), totals.bytes.tolist())]


def attack_verdicts(protocol: ProtocolCategory | None, indices: Sequence[int],
                    attacked: Sequence[bool]) -> Verdicts:
    """Verdicts of windows `indices` in which an attacked window fired the
    upper volume condition and nothing else fired."""
    triggered = np.zeros((len(indices), 3), dtype=bool)
    triggered[:, 0] = attacked
    zeros = np.zeros(len(indices))
    return Verdicts(protocol, np.array(indices, dtype=np.int64), triggered, zeros, zeros)
