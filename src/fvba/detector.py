"""Threshold computation and the attack verdicts of window series.

Detection compares a window's volume/flow deviation from the normal
profile against thresholds derived from tolerance factors:

    upper volume threshold = r1 * volume_std
    flow threshold         = r2 * flow_std
    lower volume threshold = r3 * volume_std   (UDP only)

A window is flagged when a deviation strictly exceeds its threshold;
equality counts as attack-free.  UDP traffic additionally alarms when its
volume drops more than the lower threshold below normal.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ParameterError
from .io import float_token, int_token, read_rows
from .model import ProtocolCategory, WindowSeries, parse_series, series_token
from .profiler import NormalProfile


@dataclass(frozen=True)
class ToleranceFactors:
    """Tolerance factors scaling the profile standard deviations.

    `r3` (the lower volume factor) is required for UDP and rejected for
    every other protocol series.
    """

    r1: float
    r2: float
    r3: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "r1", float(self.r1))
        object.__setattr__(self, "r2", float(self.r2))
        if self.r3 is not None:
            object.__setattr__(self, "r3", float(self.r3))
        if not (0 < self.r1 < math.inf and 0 < self.r2 < math.inf):
            raise ParameterError(
                f"tolerance factors must be positive and finite, got r1={self.r1}, r2={self.r2}"
            )
        if self.r3 is not None and not 0 < self.r3 < math.inf:
            raise ParameterError(
                f"lower volume factor must be positive and finite when present, got {self.r3}"
            )


# Default operating points: tuned per-protocol values for dataset runs,
# r1 = r2 = 6 for the protocol-agnostic aggregate series.
DEFAULT_FACTORS: dict[ProtocolCategory | None, ToleranceFactors] = {
    ProtocolCategory.TCP: ToleranceFactors(r1=1.0, r2=5.0),
    ProtocolCategory.UDP: ToleranceFactors(r1=6.0, r2=8.0, r3=1.5),
    ProtocolCategory.ICMP: ToleranceFactors(r1=5.0, r2=6.0),
    None: ToleranceFactors(r1=6.0, r2=6.0),
}


@dataclass(frozen=True)
class Thresholds:
    """Detection thresholds for one protocol series, derived from its profile."""

    x_th: float
    v_th: float
    x_th_lower: float | None = None

    def __post_init__(self):
        if self.x_th < 0 or self.v_th < 0:
            raise ParameterError("thresholds must be non-negative")
        if self.x_th_lower is not None and self.x_th_lower < 0:
            raise ParameterError("lower volume threshold must be non-negative")


class TriggerCondition(enum.Enum):
    """Which detection condition fired for a window."""

    VOLUME_UPPER = "volume_upper"
    VOLUME_LOWER = "volume_lower"
    FLOW = "flow"

    def __str__(self) -> str:
        return self.value


class VerdictReport(NamedTuple):
    """One window's detection outcome, as iterating `Verdicts` yields it."""

    window_index: int
    protocol: ProtocolCategory | None
    is_attack: bool
    triggered: frozenset[TriggerCondition]
    volume_deviation: float
    flow_deviation: float


_TRIGGER_ORDER = (TriggerCondition.VOLUME_UPPER, TriggerCondition.VOLUME_LOWER,
                  TriggerCondition.FLOW)
# The verdict format's triggered token of each row of fired flags (one per
# condition in _TRIGGER_ORDER), in the order of the rows read as binary numbers.
_TRIGGER_TOKENS = {
    ",".join(t.value for t, hit in zip(_TRIGGER_ORDER, fired) if hit) or "-": fired
    for fired in itertools.product((False, True), repeat=len(_TRIGGER_ORDER))
}


@dataclass(frozen=True, eq=False)
class Verdicts:
    """Detection outcomes of the windows of one series, as columns.

    Row i is window `window_index[i]` (int64); `triggered[i]` holds one bool
    per condition in `_TRIGGER_ORDER`, and `volume_deviation[i]` and
    `flow_deviation[i]` (float64) the window's distance from the profile
    means.  A window is an attack when any condition fired.  Treat the
    arrays as read-only.
    """

    protocol: ProtocolCategory | None
    window_index: np.ndarray
    triggered: np.ndarray
    volume_deviation: np.ndarray
    flow_deviation: np.ndarray

    def __len__(self) -> int:
        return self.window_index.size

    @property
    def is_attack(self) -> np.ndarray:
        return self.triggered.any(axis=1)

    def fired(self, triggers: Collection[TriggerCondition]) -> np.ndarray:
        """Per window, whether any of `triggers` fired."""
        return self.triggered[:, [t in triggers for t in _TRIGGER_ORDER]].any(axis=1)

    def __iter__(self) -> Iterator[VerdictReport]:
        for index, fired, volume, flow in zip(self.window_index.tolist(), self.triggered.tolist(),
                                              self.volume_deviation.tolist(),
                                              self.flow_deviation.tolist()):
            triggered = frozenset(t for t, hit in zip(_TRIGGER_ORDER, fired) if hit)
            yield VerdictReport(index, self.protocol, bool(triggered), triggered, volume, flow)


def compute_thresholds(profile: NormalProfile, factors: ToleranceFactors) -> Thresholds:
    """Derive detection thresholds from a profile and tolerance factors.

    Raises ParameterError when `r3` is missing for a UDP profile or
    supplied for any other protocol (strictness catches configuration
    mistakes).
    """
    if profile.protocol is ProtocolCategory.UDP:
        if factors.r3 is None:
            raise ParameterError("UDP detection requires the lower volume factor r3")
        lower = factors.r3 * profile.volume_std
    else:
        if factors.r3 is not None:
            series = profile.protocol or "the aggregate series"
            raise ParameterError(f"lower volume factor r3 only applies to UDP, not {series}")
        lower = None
    return Thresholds(factors.r1 * profile.volume_std, factors.r2 * profile.flow_std, lower)


def detect_series(
    series: WindowSeries, profile: NormalProfile, thresholds: Thresholds
) -> Verdicts:
    """Render the attack/no-attack verdict of every window of a series.

    No state is kept across windows.  The UDP lower-bound condition fires
    when the volume falls below normal by more than the lower threshold
    (a drop, not the literal signed comparison, which would hold for all
    normal traffic).
    """
    if series.protocol is not profile.protocol:
        raise ParameterError("series and profile must describe the same protocol series")
    if series.window_length != profile.window_length:
        raise ParameterError("series and profile window lengths differ")

    volume_deviation = series.volume - profile.volume_mean
    flow_deviation = series.flow_count - profile.flow_mean
    lower = thresholds.x_th_lower
    triggered = np.column_stack([
        volume_deviation > thresholds.x_th,
        np.zeros(len(series), dtype=bool) if lower is None else -volume_deviation > lower,
        flow_deviation > thresholds.v_th,
    ])
    return Verdicts(series.protocol, series.window_index, triggered, volume_deviation,
                    flow_deviation)


def detect_profiled(
    series: Mapping[ProtocolCategory | None, WindowSeries],
    profiles: Mapping[ProtocolCategory | None, NormalProfile],
    factors: Mapping[ProtocolCategory | None, ToleranceFactors] = DEFAULT_FACTORS,
) -> dict[ProtocolCategory | None, Verdicts]:
    """Verdicts for every series that has a profile, in the order of `series`.

    Each series is thresholded with its own protocol's factors; a series
    without a profile gets no entry.
    """
    verdicts = {}
    for protocol, windows in series.items():
        if protocol in profiles:
            thresholds = compute_thresholds(profiles[protocol], factors[protocol])
            verdicts[protocol] = detect_series(windows, profiles[protocol], thresholds)
    return verdicts


def flagged_windows(
    verdicts: Collection[Verdicts],
    triggers: Collection[TriggerCondition] = frozenset(TriggerCondition),
) -> tuple[np.ndarray, np.ndarray]:
    """Merge verdicts into per-window flags: the ascending window indices of
    all verdicts and, for each, whether any of its verdicts (any protocol)
    fired one of `triggers`, by default any."""
    indices = np.concatenate([np.empty(0, np.int64), *(v.window_index for v in verdicts)])
    fired = np.concatenate([np.empty(0, bool), *(v.fired(triggers) for v in verdicts)])
    windows, position = np.unique(indices, return_inverse=True)
    flags = np.zeros(windows.size, dtype=bool)
    flags[position[fired]] = True
    return windows, flags


# --- tab-separated serialization ----------------------------------------------

_VERDICT_HEADER = "window_index\tprotocol\tis_attack\ttriggered\tvolume_deviation\tflow_deviation"


def dump_verdicts(verdicts: Iterable[Verdicts]) -> str:
    """Serialize the verdicts of each series as tab-separated lines with a header row."""
    lines = [_VERDICT_HEADER]
    weights = 1 << np.arange(len(_TRIGGER_ORDER) - 1, -1, -1)
    for series in verdicts:
        # The columns between index and deviations, per pattern of fired flags.
        middles = [f"\t{series_token(series.protocol)}\t{int(any(fired))}\t{token}\t"
                   for token, fired in _TRIGGER_TOKENS.items()]
        lines.extend(f"{index}{middles[pattern]}{volume!r}\t{flow!r}"
                     for index, pattern, volume, flow in zip(
                         series.window_index.tolist(), (series.triggered @ weights).tolist(),
                         series.volume_deviation.tolist(), series.flow_deviation.tolist()))
    return "\n".join(lines) + "\n"


def load_verdicts(text: str) -> dict[ProtocolCategory | None, Verdicts]:
    """Parse the verdict format (`read_rows`) into the verdicts of each
    series, keyed in order of first appearance.  Raises ParseError naming
    the line of a malformed row, a window index outside int64, an is_attack
    other than 0 or 1 or not mirroring the triggers, a deviation that is
    not finite and a window given before in its series."""
    # Per series, each window's columns in file order.
    rows: dict[ProtocolCategory | None, dict[int, tuple]] = {}

    def row(index, series, attack, triggers, volume, flow):
        index = int_token(index, "window index")
        if not -2**63 <= index < 2**63:
            raise ValueError(f"window index {index} does not fit int64")
        protocol = parse_series(series)
        if attack not in ("0", "1"):
            raise ValueError(f"is_attack must be 0 or 1, got {attack!r}")
        fired = _TRIGGER_TOKENS.get(triggers)
        if fired is None:
            raise ValueError(f"{triggers!r} is not a valid triggered set")
        volume, flow = float_token(volume, "volume deviation"), float_token(flow, "flow deviation")
        if (attack == "1") != any(fired):
            raise ValueError("is_attack must mirror the triggered set")
        if not (math.isfinite(volume) and math.isfinite(flow)):
            raise ValueError(f"deviations must be finite, got {volume} and {flow}")
        windows = rows.setdefault(protocol, {})
        if index in windows:
            raise ValueError(f"window {index} of the {series_token(protocol)} series given twice")
        windows[index] = (fired, volume, flow)

    read_rows(text, (6,), row, header=_VERDICT_HEADER)
    return {protocol: Verdicts(protocol, np.array(list(windows), dtype=np.int64),
                               *map(np.array, zip(*windows.values())))
            for protocol, windows in rows.items()}
