"""Row-wise building and reading of event tables, for the tests."""

from typing import NamedTuple

from fvba.model import EventTable, FlowKey


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
