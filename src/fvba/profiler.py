"""Windowed aggregation of flow events and normal-profile construction.

The profile of a protocol's attack-free traffic is the mean and population
standard deviation of the per-window byte volume and distinct-flow count,
plus the mean/std of per-flow byte totals used for flow characterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, OrderingError, ParameterError, ParseError
from .model import EventTable, ProtocolCategory, WindowFlows, WindowSample

PROFILE_FORMAT_VERSION = 1

# Guards against float-division jitter when a timestamp sits exactly on a
# window boundary (e.g. 25.0 / 0.2 evaluating just below 125).
_BIN_EPSILON = 1e-9

# Most windows one series may span.  A 24 h capture at 0.1 s windows fits;
# a stray far-future timestamp is rejected before per-window arrays are
# allocated.
MAX_WINDOWS = 1_000_000


def window_indices(timestamps: np.ndarray, window_length: float) -> np.ndarray:
    """Index w of the window [w*L, (w+1)*L) containing each timestamp."""
    return ((timestamps + _BIN_EPSILON) / window_length).astype(np.int64)


def window_totals(
    windows: np.ndarray, flow: np.ndarray, counts: np.ndarray, window_count: int, key_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row bounds, byte volumes and distinct-flow counts of windows 0..window_count-1.

    `windows` holds each row's window index in ascending order, `flow` its
    flow id (below `key_count`) and `counts` its non-negative byte count;
    window w spans rows bounds[w]:bounds[w + 1].  Raises ParameterError
    when the byte total of all rows does not fit int64.
    """
    bounds = np.searchsorted(windows, np.arange(window_count + 1))
    running = np.concatenate(([0], np.cumsum(counts)))
    # Counts are non-negative, so the running total only falls on overflow.
    if not (running[1:] >= running[:-1]).all():
        raise ParameterError("byte total of the series does not fit int64")
    volumes = running[bounds[1:]] - running[bounds[:-1]]
    pairs = np.unique(windows * key_count + flow)
    flow_counts = np.bincount(pairs // key_count, minlength=window_count)
    return bounds, volumes, flow_counts


def windowize(
    events: EventTable,
    window_length: float,
    protocol: ProtocolCategory | None = None,
) -> list[WindowSample]:
    """Aggregate a time-sorted event stream into fixed-length window samples.

    One sample is returned for every window covering the span of `events`,
    empty windows included, so that all protocols of the same stream share
    one window indexing.  Only events whose flow key matches `protocol` are
    aggregated; `protocol=None` aggregates every event into a single
    protocol-agnostic series.  Volumes and flow counts are computed on the
    columns; each sample's `per_flow_bytes` is a `WindowFlows` view that
    builds its map only when read.

    Raises OrderingError, naming the first event that is earlier than its
    predecessor, if the events are not sorted by timestamp, and
    ParameterError for a window length that is not positive and finite,
    a timestamp span of more than MAX_WINDOWS windows or a series byte
    total beyond int64.
    """
    if not 0 < window_length < math.inf:
        raise ParameterError(f"window length must be positive and finite, got {window_length}")
    if not len(events):
        return []
    timestamps = events.timestamp
    unsorted = np.flatnonzero(np.diff(timestamps) < 0)
    if unsorted.size:
        index = int(unsorted[0]) + 1
        raise OrderingError(
            f"event {index}: events are not sorted by timestamp"
            f" ({float(timestamps[index])} after {float(timestamps[index - 1])})"
        )

    # The same IEEE operations as window_indices, on Python floats, so the
    # span is known before anything is allocated for it.
    start, end = float(timestamps[0]), float(timestamps[-1])
    first, last = (int((t + _BIN_EPSILON) / window_length) for t in (start, end))
    if last - first >= MAX_WINDOWS:
        raise ParameterError(
            f"timestamps span {start!r} to {end!r} s, {last - first + 1} windows of"
            f" {window_length} s; at most {MAX_WINDOWS} windows are supported"
        )
    windows = window_indices(timestamps, window_length) - first
    flow, counts = events.flow, events.bytes
    if protocol is not None:
        chosen = np.array([k.protocol is protocol for k in events.keys], dtype=bool)[flow]
        windows, flow, counts = windows[chosen], flow[chosen], counts[chosen]

    bounds, volumes, flow_counts = window_totals(
        windows, flow, counts, last - first + 1, len(events.keys)
    )
    bounds = bounds.tolist()
    return [
        WindowSample(
            window_index=w,
            window_start=w * window_length,
            window_length=window_length,
            protocol=protocol,
            volume=volume,
            flow_count=flow_count,
            per_flow_bytes=WindowFlows(events.keys, flow[lo:hi], counts[lo:hi]),
        )
        for w, volume, flow_count, lo, hi in zip(
            range(first, last + 1), volumes.tolist(), flow_counts.tolist(),
            bounds[:-1], bounds[1:],
        )
    ]


@dataclass(frozen=True)
class NormalProfile:
    """Statistical profile of attack-free traffic for one protocol series.

    Means and standard deviations are taken over the training windows;
    `per_flow_mean`/`per_flow_std` describe per-flow byte totals and feed
    the six-sigma characterization limits.  `protocol` is None for a
    profile of the all-protocol aggregate series.
    """

    protocol: ProtocolCategory | None
    window_length: float
    training_windows: int
    volume_mean: float
    volume_std: float
    flow_mean: float
    flow_std: float
    per_flow_mean: float
    per_flow_std: float

    def __post_init__(self):
        for name in ("window_length", "volume_mean", "volume_std", "flow_mean", "flow_std",
                     "per_flow_mean", "per_flow_std"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("volume_std", "flow_std", "per_flow_std"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")
        if self.volume_mean < 0 or self.flow_mean < 0:
            raise ParameterError("means of non-negative quantities cannot be negative")


def build_profile(
    samples: Sequence[WindowSample],
    per_flow_scope: str = "capture",
) -> NormalProfile:
    """Compute a NormalProfile from training-window samples.

    Standard deviations are population standard deviations (divide by N).
    With the default `per_flow_scope="capture"`, each flow's bytes are
    summed across all training windows before taking the per-flow
    mean/std; `"window"` instead treats every (flow, window) total as one
    observation.

    Raises InsufficientDataError for fewer than two samples and
    ParameterError for mixed protocols or window lengths.
    """
    if len(samples) < 2:
        raise InsufficientDataError(
            f"profile needs at least 2 windows, got {len(samples)}"
        )
    if per_flow_scope not in ("capture", "window"):
        raise ParameterError(f"unknown per-flow scope: {per_flow_scope!r}")
    protocol = samples[0].protocol
    window_length = samples[0].window_length
    for sample in samples:
        if sample.protocol is not protocol:
            raise ParameterError("profile samples must share one protocol")
        if sample.window_length != window_length:
            raise ParameterError("profile samples must share one window length")

    volumes = np.array([s.volume for s in samples], dtype=np.float64)
    counts = np.array([s.flow_count for s in samples], dtype=np.float64)

    if per_flow_scope == "capture":
        totals: dict = {}
        for sample in samples:
            for key, count in sample.per_flow_bytes.items():
                totals[key] = totals.get(key, 0) + count
        # Sorted, so that the statistics do not depend on flow numbering.
        observations = np.sort(np.array(list(totals.values()), dtype=np.float64))
    else:
        observations = np.array(
            [b for s in samples for b in s.per_flow_bytes.values()], dtype=np.float64
        )
    if observations.size:
        per_flow_mean = float(observations.mean())
        per_flow_std = float(observations.std())
    else:
        per_flow_mean = per_flow_std = 0.0

    return NormalProfile(
        protocol=protocol,
        window_length=window_length,
        training_windows=len(samples),
        volume_mean=float(volumes.mean()),
        volume_std=float(volumes.std()),
        flow_mean=float(counts.mean()),
        flow_std=float(counts.std()),
        per_flow_mean=per_flow_mean,
        per_flow_std=per_flow_std,
    )


# --- plain-text serialization -------------------------------------------------
#
# One field per line, `field=value`; one block per protocol, blocks separated
# by a blank line; a version line leads the document.  Floats are written with
# repr() and therefore round-trip exactly.

_PROTOCOL_ORDER = {ProtocolCategory.TCP: 0, ProtocolCategory.UDP: 1, ProtocolCategory.ICMP: 2, None: 3}
_AGGREGATE_TOKEN = "ALL"


def _protocol_token(protocol: ProtocolCategory | None) -> str:
    return _AGGREGATE_TOKEN if protocol is None else protocol.value


def dump_profiles(profiles: Iterable[NormalProfile]) -> str:
    """Serialize profiles to the plain-text profile document."""
    blocks = [f"version={PROFILE_FORMAT_VERSION}"]
    for profile in sorted(profiles, key=lambda p: _PROTOCOL_ORDER[p.protocol]):
        blocks.append(
            "\n".join(
                [
                    f"protocol={_protocol_token(profile.protocol)}",
                    f"window_length={profile.window_length!r}",
                    f"training_windows={profile.training_windows}",
                    f"volume_mean={profile.volume_mean!r}",
                    f"volume_std={profile.volume_std!r}",
                    f"flow_mean={profile.flow_mean!r}",
                    f"flow_std={profile.flow_std!r}",
                    f"per_flow_mean={profile.per_flow_mean!r}",
                    f"per_flow_std={profile.per_flow_std!r}",
                ]
            )
        )
    return "\n\n".join(blocks) + "\n"


def load_profiles(text: str) -> dict[ProtocolCategory | None, NormalProfile]:
    """Parse a profile document back into profiles keyed by protocol.

    Raises ParseError, naming the first line of the block, for a block
    with a missing, malformed or out-of-range field (such as a non-finite
    statistic) and for a repeated protocol.
    """
    fields: dict[str, str] = {}
    blocks: list[tuple[int, dict[str, str]]] = []
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            if fields:
                blocks.append((start, fields))
                fields = {}
            continue
        if "=" not in line:
            raise ParseError(f"expected field=value, got {line!r}", line=number)
        if not fields:
            start = number
        name, value = line.split("=", 1)
        fields[name.strip()] = value.strip()
    if fields:
        blocks.append((start, fields))

    if not blocks or blocks[0][1].get("version") != str(PROFILE_FORMAT_VERSION):
        raise ParseError(
            f"missing or unsupported profile version (expected {PROFILE_FORMAT_VERSION})"
        )
    profile_blocks = blocks[1:]
    # A single block may carry version plus the first profile.
    if "protocol" in blocks[0][1]:
        profile_blocks.insert(0, blocks[0])

    profiles: dict[ProtocolCategory | None, NormalProfile] = {}
    for start, block in profile_blocks:
        try:
            token = block["protocol"]
            protocol = None if token == _AGGREGATE_TOKEN else ProtocolCategory.parse(token)
            profile = NormalProfile(
                protocol=protocol,
                window_length=float(block["window_length"]),
                training_windows=int(block["training_windows"]),
                volume_mean=float(block["volume_mean"]),
                volume_std=float(block["volume_std"]),
                flow_mean=float(block["flow_mean"]),
                flow_std=float(block["flow_std"]),
                per_flow_mean=float(block["per_flow_mean"]),
                per_flow_std=float(block["per_flow_std"]),
            )
        except KeyError as missing:
            raise ParseError(f"profile block missing field {missing}", line=start) from None
        except ValueError as bad:
            raise ParseError(f"bad profile block: {bad}", line=start) from None
        if profile.protocol in profiles:
            raise ParseError(f"duplicate profile block for {token}", line=start)
        profiles[profile.protocol] = profile
    return profiles
