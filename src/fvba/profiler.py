"""Windowed aggregation of flow events and normal-profile construction.

The profile of a protocol's attack-free traffic is the mean and population
standard deviation of the per-window byte volume and distinct-flow count,
plus the mean/std of per-flow byte totals used for flow characterization.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError, ParseError
from .io import float_token, int_token
from .model import (SERIES, EventTable, FlowKey, ProtocolCategory, WindowSeries, parse_series,
                    series_token)

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
    scaled = timestamps + _BIN_EPSILON
    scaled /= window_length
    return scaled.astype(np.int64)


def window_span(timestamps: np.ndarray, window_length: float) -> tuple[int, int]:
    """Indices of the windows of the first and the last of the ascending
    `timestamps`; (0, -1) when there are none.

    Raises ParameterError for a window length that is not positive and
    finite, a span of more than MAX_WINDOWS windows or a window index
    beyond int64.
    """
    if not 0 < window_length < math.inf:
        raise ParameterError(f"window length must be positive and finite, got {window_length}")
    if not timestamps.size:
        return 0, -1
    # The same IEEE operations as window_indices, on Python floats, so the
    # span is known before anything is allocated for it.
    start, end = float(timestamps[0]), float(timestamps[-1])
    first, last = ((t + _BIN_EPSILON) / window_length for t in (start, end))
    # An index that overflows to inf has no int(); it does not fit int64 either.
    if last < math.inf and int(last) - int(first) >= MAX_WINDOWS:
        raise ParameterError(
            f"timestamps span {start!r} to {end!r} s, {int(last) - int(first) + 1} windows of"
            f" {window_length} s; at most {MAX_WINDOWS} windows are supported"
        )
    if last > np.iinfo(np.int64).max:
        raise ParameterError(f"the window index of timestamp {end!r} s at {window_length} s"
                             " windows does not fit int64")
    return int(first), int(last)


def window_samples(
    windows: np.ndarray,
    flow: np.ndarray,
    counts: np.ndarray,
    keys: Sequence[FlowKey],
    first: int,
    window_count: int,
    window_length: float,
    protocol: ProtocolCategory | None,
) -> WindowSeries:
    """The series of windows first..first+window_count-1, each `window_length` long.

    `windows` holds each row's window index, less `first`, in ascending
    order, `flow` its flow id into `keys` and `counts` its non-negative byte
    count; the series keeps `flow` and `counts` as its rows.  Raises
    ParameterError when the byte total of all rows does not fit int64.
    """
    bounds = np.searchsorted(windows, np.arange(window_count + 1))
    running = np.empty(counts.size + 1, dtype=np.int64)
    running[0] = 0
    np.cumsum(counts, out=running[1:])
    # Counts are non-negative, so the running total only falls on overflow.
    if not (running[1:] >= running[:-1]).all():
        raise ParameterError("byte total of the series does not fit int64")
    volumes = running[bounds[1:]] - running[bounds[:-1]]
    del running
    # Sorted in place: `windows` ascends, so each row keeps its window, and
    # a pair is new where it differs from the row before.
    pairs = windows * len(keys)
    pairs += flow
    pairs.sort()
    new = np.empty(pairs.size, dtype=bool)
    new[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
    del pairs
    flow_counts = np.bincount(windows[new], minlength=window_count).astype(np.int64, copy=False)
    return WindowSeries(protocol, window_length, first, volumes, flow_counts, bounds, flow,
                        counts, keys)


def windowize(
    events: EventTable,
    window_length: float,
    protocol: ProtocolCategory | None = None,
) -> WindowSeries:
    """Aggregate a time-sorted event stream into a series of fixed-length windows.

    The series holds every window covering the span of `events`,
    empty windows included, so that all protocols of the same stream share
    one window indexing.  Only events whose flow key matches `protocol` are
    aggregated; `protocol=None` aggregates every event into a single
    protocol-agnostic series.  Volumes and flow counts are computed on the
    columns (`window_samples`).

    Raises ParameterError for a window length or span that `window_span`
    rejects or a series byte total beyond int64.
    """
    first, last = window_span(events.timestamp, window_length)
    windows = window_indices(events.timestamp, window_length)
    windows -= first
    flow, counts = events.flow, events.bytes
    if protocol is not None:
        chosen = np.array([k.protocol is protocol for k in events.keys], dtype=bool)[flow]
        windows, flow, counts = windows[chosen], flow[chosen], counts[chosen]
    return window_samples(windows, flow, counts, events.keys, first, last - first + 1,
                          window_length, protocol)


@dataclasses.dataclass(frozen=True)
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
        if self.training_windows < 2:
            raise ParameterError(
                f"training_windows must be at least 2, got {self.training_windows}")
        for name in ("window_length", "volume_mean", "volume_std", "flow_mean", "flow_std",
                     "per_flow_mean", "per_flow_std"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.window_length > 0:
            raise ParameterError(f"window_length must be positive, got {self.window_length}")
        for name in ("volume_std", "flow_std", "per_flow_std"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")
        if self.volume_mean < 0 or self.flow_mean < 0 or self.per_flow_mean < 0:
            raise ParameterError("means of non-negative quantities cannot be negative")


def build_profile(series: WindowSeries, per_flow_scope: str = "capture") -> NormalProfile:
    """Compute a NormalProfile from a series of training windows.

    Standard deviations are population standard deviations (divide by N).
    With the default `per_flow_scope="capture"`, each flow's bytes are
    summed across all training windows before taking the per-flow
    mean/std; `"window"` instead treats every (flow, window) total as one
    observation.

    Raises InsufficientDataError for fewer than two windows.
    """
    if len(series) < 2:
        raise InsufficientDataError(f"profile needs at least 2 windows, got {len(series)}")
    if per_flow_scope not in ("capture", "window"):
        raise ParameterError(f"unknown per-flow scope: {per_flow_scope!r}")

    volumes = series.volume.astype(np.float64)
    counts = series.flow_count.astype(np.float64)

    # Per (window, flow) pair in order of first row, as the pairwise sum of
    # `mean` depends on it; or per flow present, in ascending order, so that
    # flow numbering does not count.  Exact in int64, as window_samples
    # checked that the series total fits.
    if per_flow_scope == "window":
        totals = series.flow_totals(0, len(series)).bytes
    else:
        totals = np.zeros(len(series.keys), dtype=np.int64)
        np.add.at(totals, series.flow, series.bytes)
        totals = np.sort(totals[np.bincount(series.flow, minlength=len(series.keys)) > 0])
    observations = totals.astype(np.float64)
    if observations.size:
        per_flow_mean = float(observations.mean())
        per_flow_std = float(observations.std())
    else:
        per_flow_mean = per_flow_std = 0.0

    return NormalProfile(
        protocol=series.protocol,
        window_length=series.window_length,
        training_windows=len(series),
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

_FIELDS = tuple(field.name for field in dataclasses.fields(NormalProfile))


def dump_profiles(profiles: Iterable[NormalProfile]) -> str:
    """Serialize profiles to the plain-text profile document, in SERIES order."""
    blocks = [f"version={PROFILE_FORMAT_VERSION}"]
    for profile in sorted(profiles, key=lambda p: SERIES.index(p.protocol)):
        blocks.append("\n".join([f"protocol={series_token(profile.protocol)}"]
                                + [f"{name}={getattr(profile, name)!r}" for name in _FIELDS[1:]]))
    return "\n\n".join(blocks) + "\n"


def load_profiles(text: str) -> dict[ProtocolCategory | None, NormalProfile]:
    """Parse a profile document back into profiles keyed by protocol.

    Raises ParseError naming the line of a repeated field, or of a field
    that is not a profile field (`version` only opens the first block);
    naming the first line of the block for a block with a missing,
    malformed or out-of-range field (such as a non-finite statistic or
    fewer than two training windows), for a repeated protocol and for a
    window length other than the first block's.
    """
    # Each block is (its first line, its fields); a skipped line closes it.
    blocks: list[tuple[int, dict[str, str]]] = []
    fields: dict[str, str] | None = None
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            fields = None
            continue
        if "=" not in line:
            raise ParseError(f"expected field=value, got {line!r}", line=number)
        if fields is None:
            fields = {}
            blocks.append((number, fields))
        name, value = (part.strip() for part in line.split("=", 1))
        if name in fields:
            raise ParseError(f"repeated field {name!r}", line=number)
        if name not in _FIELDS and not (name == "version" and len(blocks) == 1):
            raise ParseError(f"unknown profile field {name!r}", line=number)
        fields[name] = value

    if not blocks or blocks[0][1].get("version") != str(PROFILE_FORMAT_VERSION):
        raise ParseError("missing or unsupported profile version"
                         f" (expected {PROFILE_FORMAT_VERSION})")
    # The first block is a profile block too unless it holds only the version.
    profile_blocks = blocks[0 if len(blocks[0][1]) > 1 else 1 :]
    if not profile_blocks:
        raise ParseError("the profile document holds no profile block")

    profiles: dict[ProtocolCategory | None, NormalProfile] = {}
    for start, block in profile_blocks:
        try:
            token = block["protocol"]
            profile = NormalProfile(parse_series(token), *(
                (int_token if name == "training_windows" else float_token)(block[name], name)
                for name in _FIELDS[1:]
            ))
        except KeyError as missing:
            raise ParseError(f"profile block missing field {missing}", line=start) from None
        except ValueError as bad:
            raise ParseError(f"bad profile block: {bad}", line=start) from None
        if profile.protocol in profiles:
            raise ParseError(f"duplicate profile block for {token}", line=start)
        # Verdicts of all series merge by window index, so one length for all.
        if profiles and profile.window_length != next(iter(profiles.values())).window_length:
            raise ParseError(f"window_length {profile.window_length!r} differs from the"
                             " first profile block's", line=start)
        profiles[profile.protocol] = profile
    return profiles
