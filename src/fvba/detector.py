"""Threshold computation and per-window attack verdicts.

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
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .errors import ParameterError, ParseError
from .model import ProtocolCategory, WindowSample
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
    """Detection thresholds for one protocol series."""

    protocol: ProtocolCategory | None
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


@dataclass(frozen=True)
class VerdictReport:
    """Per-window detection outcome."""

    window_index: int
    protocol: ProtocolCategory | None
    is_attack: bool
    triggered: frozenset[TriggerCondition]
    volume_deviation: float
    flow_deviation: float

    def __post_init__(self):
        if self.is_attack != bool(self.triggered):
            raise ParameterError("is_attack must mirror the triggered set")
        if not (math.isfinite(self.volume_deviation) and math.isfinite(self.flow_deviation)):
            raise ParameterError(f"deviations must be finite, got {self.volume_deviation}"
                                 f" and {self.flow_deviation}")


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
    return Thresholds(
        protocol=profile.protocol,
        x_th=factors.r1 * profile.volume_std,
        v_th=factors.r2 * profile.flow_std,
        x_th_lower=lower,
    )


def detect(
    sample: WindowSample, profile: NormalProfile, thresholds: Thresholds
) -> VerdictReport:
    """Render the attack/no-attack verdict for one window.

    The UDP lower-bound condition fires when the volume falls below
    normal by more than the lower threshold (a drop, not the literal
    signed comparison, which would hold for all normal traffic).
    """
    if not (sample.protocol is profile.protocol is thresholds.protocol):
        raise ParameterError(
            "sample, profile and thresholds must describe the same protocol series"
        )
    if sample.window_length != profile.window_length:
        raise ParameterError("sample and profile window lengths differ")

    volume_deviation = sample.volume - profile.volume_mean
    flow_deviation = sample.flow_count - profile.flow_mean

    triggered = set()
    if volume_deviation > thresholds.x_th:
        triggered.add(TriggerCondition.VOLUME_UPPER)
    if flow_deviation > thresholds.v_th:
        triggered.add(TriggerCondition.FLOW)
    if thresholds.x_th_lower is not None and -volume_deviation > thresholds.x_th_lower:
        triggered.add(TriggerCondition.VOLUME_LOWER)

    return VerdictReport(
        window_index=sample.window_index,
        protocol=sample.protocol,
        is_attack=bool(triggered),
        triggered=frozenset(triggered),
        volume_deviation=volume_deviation,
        flow_deviation=flow_deviation,
    )


def detect_series(
    samples: Iterable[WindowSample],
    profile: NormalProfile,
    thresholds: Thresholds,
) -> list[VerdictReport]:
    """Detect over consecutive windows; no state is kept across windows."""
    return [detect(sample, profile, thresholds) for sample in samples]


def detect_profiled(
    series: Mapping[ProtocolCategory | None, Sequence[WindowSample]],
    profiles: Mapping[ProtocolCategory | None, NormalProfile],
    factors: Mapping[ProtocolCategory | None, ToleranceFactors] = DEFAULT_FACTORS,
) -> dict[ProtocolCategory | None, list[VerdictReport]]:
    """Verdicts for every series that has a profile, in the order of `series`.

    Each series is thresholded with its own protocol's factors; a series
    without a profile gets no entry.
    """
    verdicts = {}
    for protocol, samples in series.items():
        if protocol in profiles:
            thresholds = compute_thresholds(profiles[protocol], factors[protocol])
            verdicts[protocol] = detect_series(samples, profiles[protocol], thresholds)
    return verdicts


def flagged_windows(
    reports: Iterable[VerdictReport],
    triggers: Collection[TriggerCondition] = frozenset(TriggerCondition),
) -> dict[int, bool]:
    """Merge verdicts into per-window flags: a window is flagged when any of
    its verdicts (any protocol) fired one of `triggers`, by default any."""
    flags: dict[int, bool] = {}
    for report in reports:
        fired = not report.triggered.isdisjoint(triggers)
        flags[report.window_index] = flags.get(report.window_index, False) or fired
    return flags


# --- tab-separated serialization ----------------------------------------------

_VERDICT_HEADER = "window_index\tprotocol\tis_attack\ttriggered\tvolume_deviation\tflow_deviation"
_TRIGGER_ORDER = [TriggerCondition.VOLUME_UPPER, TriggerCondition.VOLUME_LOWER, TriggerCondition.FLOW]


def dump_verdicts(reports: Iterable[VerdictReport]) -> str:
    """Serialize verdict reports as tab-separated lines with a header row."""
    lines = [_VERDICT_HEADER]
    for r in reports:
        triggers = ",".join(t.value for t in _TRIGGER_ORDER if t in r.triggered) or "-"
        protocol = "ALL" if r.protocol is None else r.protocol.value
        lines.append(
            f"{r.window_index}\t{protocol}\t{int(r.is_attack)}\t{triggers}"
            f"\t{r.volume_deviation!r}\t{r.flow_deviation!r}"
        )
    return "\n".join(lines) + "\n"


def load_verdicts(text: str) -> list[VerdictReport]:
    """Parse the tab-separated verdict format."""
    reports = []
    lines = text.split("\n")
    if lines[0] != _VERDICT_HEADER:
        raise ParseError("missing verdict header row", line=1)
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ParseError(f"expected 6 columns, got {len(parts)}", line=number)
        index, protocol, attack, triggers, volume_dev, flow_dev = parts
        try:
            reports.append(
                VerdictReport(
                    window_index=int(index),
                    protocol=None if protocol == "ALL" else ProtocolCategory.parse(protocol),
                    is_attack=bool(int(attack)),
                    triggered=frozenset(TriggerCondition(token)
                                        for token in triggers.split(",") if token != "-"),
                    volume_deviation=float(volume_dev),
                    flow_deviation=float(flow_dev),
                )
            )
        except ValueError as exc:
            raise ParseError(str(exc), line=number) from None
    return reports
