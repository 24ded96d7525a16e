"""KDD-99 connection-record ingestion and evaluation pipeline.

Parses the benchmark's comma-separated connection records (41 features
plus a label), filters the denial-of-service category, and maps records
onto synthetic monitoring windows of a fixed record count per protocol.
Records carry no timestamps, so consecutive groups of `record_window`
records (per protocol, in file order) form one window.

Within a window a flow is the distinct (protocol, service, flag)
combination; a record contributes src_bytes + dst_bytes to its flow.
This keeps the flow-count metric informative: port-scanning SYN floods
(neptune) spread across many services, while normal traffic concentrates
on a few.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from typing import Collection, Iterator, Mapping, NamedTuple

import numpy as np

from . import io as fio
from .detector import DEFAULT_FACTORS, ToleranceFactors, detect_profiled
from .errors import ParameterError
from .evaluation import BreakdownRow, ScoreReport
from .model import NORMAL_LABEL, FlowKey, ProtocolCategory, WindowSeries
from .profiler import NormalProfile, build_profile, window_samples

FEATURE_COUNT = 41
# Positions of the symbolic features in the standard 41-feature layout.
PROTOCOL_INDEX, SERVICE_INDEX, FLAG_INDEX = 1, 2, 3
SRC_BYTES_INDEX, DST_BYTES_INDEX = 4, 5
# Maps ".", "," and "\n" to themselves and every other byte to "a".
_MARKS = bytes(b if b in b".,\n" else ord("a") for b in range(256))
_BYTE_FIELDS = {SRC_BYTES_INDEX: "src_bytes", DST_BYTES_INDEX: "dst_bytes"}
_MAX_BYTES = np.uint64(2**63 - 1)

# A record's protocol code is its category's position in PROTOCOLS.
PROTOCOLS = tuple(ProtocolCategory)
_PROTOCOL_TYPES = {p.value.lower(): p for p in PROTOCOLS}

TRAINING_ATTACKS = frozenset({"back", "land", "neptune", "pod", "smurf", "teardrop"})
TESTING_ATTACKS = TRAINING_ATTACKS | {"apache2", "mailbomb", "processtable", "udpstorm"}


class KddRecord(NamedTuple):
    """One record of a KddTable, holding the fields the pipeline reads."""

    protocol: ProtocolCategory
    service: str
    flag: str
    src_bytes: int
    dst_bytes: int
    label: str


class KddTable:
    """Connection records in file order, stored as columns.

    Record i has flow `keys[flow[i]]` (a `FlowKey(protocol, service, flag,
    0, 0)`), byte counts `src_bytes[i]` and `dst_bytes[i]`, and label
    `labels[label[i]]` (lowercase, trailing dot stripped).  The columns are
    int32, int64, int64 and int32 arrays of one length.  This is the
    toolkit's only in-memory form of KDD records.  Treat the arrays as
    read-only.
    """

    __slots__ = ("flow", "src_bytes", "dst_bytes", "label", "keys", "labels")

    def __init__(self, flow, src_bytes, dst_bytes, label,
                 keys: tuple[FlowKey, ...], labels: tuple[str, ...]):
        self.flow = np.asarray(flow, dtype=np.int32)
        self.src_bytes = np.asarray(src_bytes, dtype=np.int64)
        self.dst_bytes = np.asarray(dst_bytes, dtype=np.int64)
        self.label = np.asarray(label, dtype=np.int32)
        self.keys, self.labels = keys, labels

    def __len__(self) -> int:
        return self.label.size

    def __getitem__(self, rows) -> "KddTable":
        """The records picked by a slice, boolean mask or index array."""
        return KddTable(self.flow[rows], self.src_bytes[rows], self.dst_bytes[rows],
                        self.label[rows], self.keys, self.labels)

    @property
    def protocol(self) -> np.ndarray:
        """Each record's protocol, its flow key's, as an int8 index into PROTOCOLS."""
        codes = np.array([PROTOCOLS.index(key.protocol) for key in self.keys], dtype=np.int8)
        return codes[self.flow]

    def __iter__(self) -> Iterator[KddRecord]:
        for flow, src, dst, label in zip(self.flow.tolist(), self.src_bytes.tolist(),
                                         self.dst_bytes.tolist(), self.label.tolist()):
            key = self.keys[flow]
            yield KddRecord(key.protocol, key.src_addr, key.dst_addr, src, dst, self.labels[label])

    def label_mask(self, names: Collection[str]) -> np.ndarray:
        """Boolean mask of the records labelled with one of `names`."""
        return np.array([name in names for name in self.labels], dtype=bool)[self.label]


def parse(source) -> KddTable:
    """Parse connection records from a path or an iterable of lines
    (`io.read_source`), a chunk of lines at a time; `_decode_chunk` defines
    the format.

    Flows and labels are numbered in order of first appearance.  Raises
    ParseError naming the first malformed line (see `_decode_chunk`).
    """
    columns = tuple(array(t) for t in ("i", "q", "q", "i"))
    flow_ids: dict[FlowKey, int] = {}
    names: dict[str, int] = {}
    fio.decode_source(source, partial(_decode_chunk, flow_ids=flow_ids, names=names), columns)
    return KddTable(*columns, tuple(flow_ids), tuple(names))


def _decode_chunk(chunk: bytes, flow_ids: dict[FlowKey, int], names: dict[str, int]):
    """The (flow, src_bytes, dst_bytes, label) columns of the lines of a chunk.

    An empty line is skipped.  Any other line is checked in this order,
    after the UTF-8 check of `io.decode_lines`: it holds 42 comma-separated
    fields; protocol_type is exactly tcp, udp or icmp; continuous fields 0
    and 6-40 are decimal digits with at most one "." (and at least one
    digit); src_bytes and dst_bytes are decimal digits within int64.
    Service, flag and label may hold any byte but a comma or a line break,
    except that a label does not start or end with whitespace; it is
    lowercased and loses its trailing dots.  Raises io.BadLine for the first line that fails (see
    `io.decode_lines`).
    """
    codes, starts, ends = fio.split_fields(chunk, b",", FEATURE_COUNT + 1, "fields")
    lines = starts[:, 0]

    def text(row: int, field: int) -> str:
        return chunk[starts[row, field] : ends[row, field]].decode()

    def flow_id(token: bytes) -> int:
        protocol, service, flag = token.decode().split(",")
        category = _PROTOCOL_TYPES.get(protocol)
        if category is None:
            raise ValueError(f"unknown protocol_type {protocol!r}")
        return flow_ids.setdefault(FlowKey(category, service, flag, 0, 0), len(flow_ids))

    def label_id(token: bytes) -> int:
        label = token.decode()
        if label != label.strip():
            raise ValueError(f"label padded with whitespace: {label!r}")
        return names.setdefault(label.rstrip(".").lower(), len(names))

    flows = fio.intern_tokens(codes, starts[:, PROTOCOL_INDEX], ends[:, FLAG_INDEX], lines,
                              flow_id)
    # With digits deleted and every byte but ".", "," and "\n" made "a", a
    # continuous field must read "" or "." and be wider in the chunk (hold a
    # digit).  Field k ends at comma k; field 0 starts its line, field k > 0
    # after comma k - 1.
    marks = np.frombuffer(chunk.translate(_MARKS, b"0123456789"), dtype=np.uint8)
    commas = np.flatnonzero(marks == 44).reshape(-1, FEATURE_COUNT)
    breaks = np.flatnonzero(marks == 10)
    first = np.concatenate(([0], breaks + 1))[np.searchsorted(breaks, commas[:, 0])]
    widths = ends - starts
    # Field 0, then fields 6-40, the ones after the byte counts.
    for field, lefts, rights in ((0, first[:, None], commas[:, :1]),
                                 (DST_BYTES_INDEX + 1, commas[:, DST_BYTES_INDEX:-1] + 1,
                                  commas[:, DST_BYTES_INDEX + 1 :])):
        kept = rights - lefts
        bad = ((kept > 1) | (kept == 1) & (marks[lefts] != 46)
               | (widths[:, field : field + kept.shape[1]] <= kept))
        fio.reject(bad.any(axis=-1), lines, lambda row: (
            f"non-numeric continuous field {field + bad[row].argmax()}:"
            f" {text(row, field + bad[row].argmax())!r}"))
    counts, bad = fio.digit_values(codes, starts[:, SRC_BYTES_INDEX : DST_BYTES_INDEX + 1],
                                   ends[:, SRC_BYTES_INDEX : DST_BYTES_INDEX + 1])
    bad |= counts > _MAX_BYTES

    def bad_count(row: int) -> str:
        field = SRC_BYTES_INDEX + int(bad[row].argmax())
        return (f"{_BYTE_FIELDS[field]} must be a non-negative count within int64,"
                f" got {text(row, field)!r}")

    fio.reject(bad.any(axis=-1), lines, bad_count)
    labels = fio.intern_tokens(codes, starts[:, FEATURE_COUNT], ends[:, FEATURE_COUNT], lines,
                               label_id)
    return flows, counts[:, 0].astype(np.int64), counts[:, 1].astype(np.int64), labels


def select_dos_and_normal(records: KddTable, attacks: Collection[str]) -> KddTable:
    """Records labelled normal or with a name in `attacks` (TRAINING_ATTACKS or
    TESTING_ATTACKS), in original file order (the detection stream)."""
    return records[records.label_mask({NORMAL_LABEL, *attacks})]


def to_flow_windows(
    records: KddTable, record_window: int = 100
) -> dict[ProtocolCategory, WindowSeries]:
    """Group records per protocol into windows of `record_window` records.

    Window w of a protocol holds its records w * record_window onwards, in
    file order, and each record contributes src_bytes + dst_bytes to its
    flow's window total.  A trailing group shorter than `record_window` is
    dropped (its artificially low volume and flow count would skew
    lower-bound detection).  Raises ParameterError when a protocol's byte
    total does not fit int64.
    """
    if record_window <= 0:
        raise ParameterError(f"record window must be positive, got {record_window}")
    windows: dict[ProtocolCategory, WindowSeries] = {}
    protocols = records.protocol
    for code, protocol in enumerate(PROTOCOLS):
        rows = np.flatnonzero(protocols == code)
        count = rows.size // record_window
        if not count:
            continue
        # Record i of the protocol stream lies in window i // record_window.
        rows = rows[: count * record_window]
        windows[protocol] = window_samples(
            np.arange(rows.size) // record_window, records.flow[rows],
            records.src_bytes[rows] + records.dst_bytes[rows], records.keys, 0, count,
            float(record_window), protocol,
        )
    return windows


def build_profiles(
    normal_records: KddTable, record_window: int = 100
) -> dict[ProtocolCategory, NormalProfile]:
    """Per-protocol normal profiles from normal-labelled records only.

    Protocols with fewer than two full windows of normal traffic are
    skipped (no profile, no detection on that protocol).
    """
    windows = to_flow_windows(normal_records, record_window)
    return {protocol: build_profile(series) for protocol, series in windows.items()
            if len(series) >= 2}


@dataclass(frozen=True)
class KddEvaluation:
    """Per-protocol (in PROTOCOLS order) and overall record-level scores plus per-attack rows."""

    per_protocol: dict[ProtocolCategory, ScoreReport]
    overall: ScoreReport
    breakdown: list[BreakdownRow]


def _score(counts: np.ndarray, attack: np.ndarray, normal: np.ndarray) -> ScoreReport:
    """The report of per-label record counts: row 0 of `counts` over all
    records, row 1 over the records of flagged windows."""
    (actual, detected), (normals, false_alarms) = (counts[:, attack].sum(axis=1).tolist(),
                                                    counts[:, normal].sum(axis=1).tolist())
    return ScoreReport(detected, actual, false_alarms, normals)


def evaluate_split(
    records: KddTable,
    attack_names: frozenset[str],
    profiles: dict[ProtocolCategory, NormalProfile],
    factors: Mapping[ProtocolCategory | None, ToleranceFactors] = DEFAULT_FACTORS,
    record_window: int = 100,
) -> KddEvaluation:
    """Detect over a DoS+normal record stream and score per record.

    `records` must already be filtered to DoS plus normal (file order
    preserved).  A window's verdict holds for every record in it: a record
    labelled with a name in `attack_names` is detected, and a normal one a
    false alarm, when its window is flagged.  Only the records of full
    windows count, and protocols without a profile are never flagged.
    """
    windows = to_flow_windows(records, record_window)
    verdicts = detect_profiled(windows, profiles, factors)
    attack = np.array([name in attack_names for name in records.labels], dtype=bool)
    normal = np.array([name == NORMAL_LABEL for name in records.labels], dtype=bool) & ~attack
    per_protocol: dict[ProtocolCategory, ScoreReport] = {}
    totals = np.zeros((2, len(records.labels)), dtype=np.int64)
    breakdown = []
    protocols = records.protocol
    for code, protocol in enumerate(PROTOCOLS):
        if protocol not in windows:
            continue
        count = len(windows[protocol])
        labels = records.label[protocols == code][: count * record_window]
        flags = verdicts[protocol].is_attack if protocol in verdicts else np.zeros(count, bool)
        flagged = np.repeat(flags, record_window)
        counts = np.stack([np.bincount(labels, minlength=totals.shape[1]),
                           np.bincount(labels[flagged], minlength=totals.shape[1])])
        per_protocol[protocol] = _score(counts, attack, normal)
        totals += counts
        breakdown.extend(
            BreakdownRow(attack=name, protocol=protocol, detected=detected, total=total)
            for name, is_attack, total, detected in zip(records.labels, attack.tolist(),
                                                          *counts.tolist())
            if is_attack and total
        )
    breakdown.sort(key=lambda row: (row.attack, row.protocol.value))
    return KddEvaluation(per_protocol=per_protocol, overall=_score(totals, attack, normal),
                         breakdown=breakdown)
