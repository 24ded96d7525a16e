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
from typing import Mapping

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
    """Parse an event file into an EventTable, filling its columns line by line.

    The five key columns are interned by their text, so each distinct
    flow's key is parsed and validated once.  Raises ParseError naming the
    line for a malformed line, a non-finite or negative timestamp or a
    byte count outside [1, 2**63 - 1], and OrderingError naming the line
    of the first event that is earlier than its predecessor.
    """
    timestamps = array("d")
    flows = array("i")
    counts = array("q")
    interned: dict[str, int] = {}
    flow_ids: dict[FlowKey, int] = {}
    previous = 0.0
    for number, line in enumerate(text.splitlines(), start=1):
        first, last = line.find("\t"), line.rfind("\t")
        # An interned key text holds exactly four tabs, so a hit means the
        # line has seven columns.
        flow = interned.get(line[first + 1 : last])
        try:
            if flow is None:
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 7:
                    raise ParseError(f"expected 7 columns, got {len(parts)}")
                _, proto, src, sport, dst, dport, _ = parts
                key = FlowKey(
                    protocol=ProtocolCategory.parse(proto),
                    src_addr=src,
                    dst_addr=dst,
                    src_port=int(sport),
                    dst_port=int(dport),
                ).validate()
                # Texts such as "tcp" and "TCP" name one flow.
                flow = interned[line[first + 1 : last]] = flow_ids.setdefault(key, len(flow_ids))
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
    return EventTable(timestamps, flows, counts, list(flow_ids))


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
