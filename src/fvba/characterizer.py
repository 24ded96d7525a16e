"""Per-flow characterization inside attack-flagged windows.

Flows are banded by their window byte totals against six-sigma control
limits on the training per-flow statistics: within three sigma of the
mean is normal, beyond six sigma is attack traffic, in between is
suspicious.  Flows already active in the previous window are never
labelled attack (flash-crowd mitigation); suspicious flows receive a
rate-throttle recommendation scaled by attack strength.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping

import numpy as np

from .detector import Verdicts
from .errors import ParameterError
from .io import key_columns
from .model import FlowKey, WindowSeries
from .profiler import NormalProfile

_STRENGTH_EPSILON = 1e-9


@dataclass(frozen=True)
class SigmaLimits:
    """Control limits at three and six standard deviations around the mean."""

    ucl_ss: float
    lcl_ss: float
    ucl_as: float
    lcl_as: float

    def __post_init__(self):
        if not self.lcl_as <= self.lcl_ss <= self.ucl_ss <= self.ucl_as:
            raise ParameterError("control limits must be ordered lcl_as <= lcl_ss <= ucl_ss <= ucl_as")


class FlowBand(enum.Enum):
    NORMAL = "normal"
    SUSPICIOUS = "suspicious"
    ATTACK = "attack"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FlowClassification:
    """Band assignment for one flow in one window."""

    key: FlowKey
    bytes: int
    band: FlowBand
    excluded_by_history: bool = False


@dataclass(frozen=True)
class ThrottleDirective:
    """Recommendation to throttle a suspicious flow to a fraction of its rate."""

    flow: FlowKey
    rate_multiplier: float

    def __post_init__(self):
        if not 0 < self.rate_multiplier <= 1:
            raise ParameterError("rate multiplier must lie in (0, 1]")


def sigma_limits(per_flow_mean: float, per_flow_std: float) -> SigmaLimits:
    """Control limits m +/- 3s (suspicious state) and m +/- 6s (attack state).

    Lower limits may be negative, and then the lower branches never fire.
    They fire when the mean is large against the deviation: the default
    capture-scope profile's mean and deviation are those of whole-capture
    flow totals, so its lower limits (18.2 and 23.2 MB for the README's
    seed-11 training run) lie above every flow's bytes in one window, and
    every flow falls below them.  Raises ParameterError for a negative
    standard deviation.
    """
    if per_flow_std < 0:
        raise ParameterError("per-flow standard deviation must be non-negative")
    return SigmaLimits(
        ucl_ss=per_flow_mean + 3 * per_flow_std,
        lcl_ss=per_flow_mean - 3 * per_flow_std,
        ucl_as=per_flow_mean + 6 * per_flow_std,
        lcl_as=per_flow_mean - 6 * per_flow_std,
    )


def classify_flows(
    per_flow_bytes: Mapping[FlowKey, int],
    limits: SigmaLimits,
    previously_active: Container[FlowKey] = frozenset(),
) -> list[FlowClassification]:
    """Partition a window's flows into normal / suspicious / attack bands.

    Attack requires strict exceedance of the six-sigma limits; the closed
    interval [lcl_ss, ucl_ss] is normal; everything between is suspicious
    (ties resolve toward the less severe band).  A flow banded attack that
    was active in the previous window of the same series is demoted to
    suspicious with `excluded_by_history` set.
    """
    classifications = []
    for key, count in per_flow_bytes.items():
        excluded = False
        if count > limits.ucl_as or count < limits.lcl_as:
            band = FlowBand.ATTACK
            if key in previously_active:
                band = FlowBand.SUSPICIOUS
                excluded = True
        elif limits.lcl_ss <= count <= limits.ucl_ss:
            band = FlowBand.NORMAL
        else:
            band = FlowBand.SUSPICIOUS
        classifications.append(
            FlowClassification(key=key, bytes=count, band=band, excluded_by_history=excluded)
        )
    return classifications


def volume_excess_ratio(volume: float, volume_mean: float) -> float:
    """Attack strength as the window's relative volume excess, floored at 0."""
    return max(0.0, volume - volume_mean) / max(volume_mean, _STRENGTH_EPSILON)


def throttle_directives(
    suspicious: Iterable[FlowKey], attack_strength: float
) -> list[ThrottleDirective]:
    """Uniform rate-throttle recommendations for suspicious flows.

    The multiplier 1/(1 + strength) is 1 at strength 0 (no throttling)
    and decreases monotonically with attack strength.  Output is sorted
    by flow key so serialization is deterministic.
    """
    if attack_strength < 0:
        raise ParameterError("attack strength must be non-negative")
    multiplier = 1.0 / (1.0 + attack_strength)
    return [
        ThrottleDirective(flow=key, rate_multiplier=multiplier)
        for key in sorted(suspicious, key=_flow_sort_key)
    ]


def characterize(
    series: WindowSeries,
    verdicts: Verdicts,
    profile: NormalProfile,
) -> Iterator[tuple[int, list[FlowClassification], list[ThrottleDirective]]]:
    """(window_index, classifications, directives) for each flagged window of one series.

    `verdicts` are the series' verdicts (`detector.detect_series`).  Flows
    are banded by the profile's six-sigma limits with the previous window
    as history; suspicious flows are throttled by the window's volume
    excess over the profile mean.
    """
    limits = sigma_limits(profile.per_flow_mean, profile.per_flow_std)
    # The flow map of the last flagged window is the history of the next
    # window, if that is flagged too; the first window's history is empty.
    flows: Container[FlowKey] = frozenset()
    last = -1
    for i in np.flatnonzero(verdicts.is_attack).tolist():
        previous = flows if last == i - 1 else series.flows(i - 1)
        flows, last = series.flows(i), i
        classifications = classify_flows(flows, limits, previous)
        suspicious = [c.key for c in classifications if c.band is FlowBand.SUSPICIOUS]
        strength = volume_excess_ratio(int(series.volume[i]), profile.volume_mean)
        yield (int(verdicts.window_index[i]), classifications,
               throttle_directives(suspicious, strength))


def _flow_sort_key(key: FlowKey):
    return (key.protocol.value, key.src_addr, key.dst_addr, key.src_port, key.dst_port)


# --- tab-separated serialization ----------------------------------------------

CLASSIFICATION_HEADER = (
    "window_index\tprotocol\tsrc\tsport\tdst\tdport\tbytes\tband\texcluded_by_history"
)
THROTTLE_HEADER = "window_index\tprotocol\tsrc\tsport\tdst\tdport\trate_multiplier"


def classification_line(window_index: int, c: FlowClassification) -> str:
    return (f"{window_index}\t{key_columns(c.key)}\t{c.bytes}\t{c.band}"
            f"\t{int(c.excluded_by_history)}")


def throttle_line(window_index: int, directive: ThrottleDirective) -> str:
    return f"{window_index}\t{key_columns(directive.flow)}\t{directive.rate_multiplier!r}"
