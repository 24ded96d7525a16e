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
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .detector import Verdicts
from .errors import ParameterError
from .io import key_columns
from .model import FlowKey, FlowTotals, WindowSeries
from .profiler import NormalProfile

_STRENGTH_EPSILON = 1e-9


@dataclass(frozen=True)
class SigmaLimits:
    """Control limits at three and six standard deviations around the mean.  `cuts`
    holds ceil(lcl_as) - 1, ceil(lcl_ss) - 1, floor(ucl_ss) and floor(ucl_as) in int64:
    a byte total reaches a lower limit, or passes an upper one, exactly when it exceeds its cut."""

    ucl_ss: float
    lcl_ss: float
    ucl_as: float
    lcl_as: float
    cuts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lcl_as <= self.lcl_ss <= self.ucl_ss <= self.ucl_as:
            raise ParameterError("control limits must be ordered lcl_as <= lcl_ss <= ucl_ss <= ucl_as")
        # Limits are clamped so that +/-inf rounds, and cuts as Python ints, for
        # numpy before 2 compares int64 with a larger int as float64.
        edges = [max(-2.0**63, min(limit, 2.0**63))
                 for limit in (self.lcl_as, self.lcl_ss, self.ucl_ss, self.ucl_as)]
        cuts = [math.ceil(e) - 1 for e in edges[:2]] + [math.floor(e) for e in edges[2:]]
        object.__setattr__(self, "cuts", np.array(
            [max(-2**63, min(cut, 2**63 - 1)) for cut in cuts], dtype=np.int64))


class FlowBand(enum.Enum):
    NORMAL = "normal"
    SUSPICIOUS = "suspicious"
    ATTACK = "attack"

    def __str__(self) -> str:
        return self.value


# A band's code in the `band` column of FlowClassifications: its index here.
BANDS = (FlowBand.NORMAL, FlowBand.SUSPICIOUS, FlowBand.ATTACK)


class FlowClassification(NamedTuple):
    """One flow's band in one window, as iterating `FlowClassifications` yields it."""

    key: FlowKey
    bytes: int
    band: FlowBand
    excluded_by_history: bool


@dataclass(frozen=True, eq=False)
class FlowClassifications(FlowTotals):
    """The flows of one window with their bands, as columns: row j is in band
    `BANDS[band[j]]` (int8 codes), and `excluded_by_history[j]` marks an
    attack flow demoted to suspicious by history."""

    band: np.ndarray
    excluded_by_history: np.ndarray

    def __iter__(self) -> Iterator[FlowClassification]:
        return map(FlowClassification, map(self.keys.__getitem__, self.flow.tolist()),
                   self.bytes.tolist(), map(BANDS.__getitem__, self.band.tolist()),
                   self.excluded_by_history.tolist())


@dataclass(frozen=True, eq=False)
class ThrottleDirectives:
    """The throttle recommendations of one window, as columns: each flow `keys[f]`,
    f in `flow` (ids in flow-key order), to `rate_multiplier` times its rate."""

    flow: np.ndarray
    rate_multiplier: float
    keys: Sequence[FlowKey]

    def __post_init__(self):
        if not 0 < self.rate_multiplier <= 1:
            raise ParameterError("rate multiplier must lie in (0, 1]")

    def __len__(self) -> int:
        return self.flow.size


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


# The band code of a total by the number of `SigmaLimits.cuts` it exceeds.
_CUT_BANDS = np.array([BANDS.index(FlowBand[name]) for name in (
    "ATTACK", "SUSPICIOUS", "NORMAL", "SUSPICIOUS", "ATTACK")], dtype=np.int8)


def classify_flows(
    flows: FlowTotals,
    limits: SigmaLimits,
    previously_active: np.ndarray,
) -> FlowClassifications:
    """Partition a window's flows into normal / suspicious / attack bands.

    `flows` holds one row per flow of the window, and `previously_active`
    one bool per row: whether the flow was active in the previous window
    of the same series.  Attack requires strict exceedance of the
    six-sigma limits; the closed interval [lcl_ss, ucl_ss] is normal;
    everything between is suspicious (ties resolve toward the less severe
    band).  An attack flow that was previously active is demoted to
    suspicious with `excluded_by_history` set.
    """
    band = _CUT_BANDS[np.searchsorted(limits.cuts, flows.bytes)]
    excluded = (band == BANDS.index(FlowBand.ATTACK)) & previously_active
    band -= excluded  # BANDS order: an excluded flow's code drops from attack to suspicious
    return FlowClassifications(flows.window, flows.flow, flows.bytes, flows.keys, band, excluded)


def volume_excess_ratio(volume: float, volume_mean: float) -> float:
    """Attack strength as the window's relative volume excess, floored at 0."""
    return max(0.0, volume - volume_mean) / max(volume_mean, _STRENGTH_EPSILON)


def throttle_directives(suspicious: np.ndarray, rank: np.ndarray, keys: Sequence[FlowKey],
                        attack_strength: float) -> ThrottleDirectives:
    """Uniform rate-throttle recommendations for the flows `suspicious` (ids into
    `keys`), put in flow-key order by their `rank`: the multiplier 1/(1 + strength)
    is 1 at strength 0 (no throttling) and decreases monotonically with strength."""
    if attack_strength < 0:
        raise ParameterError("attack strength must be non-negative")
    return ThrottleDirectives(suspicious[np.argsort(rank[suspicious])],
                              1.0 / (1.0 + attack_strength), keys)


def characterize(
    series: WindowSeries,
    verdicts: Verdicts,
    profile: NormalProfile,
) -> Iterator[tuple[int, FlowClassifications, ThrottleDirectives]]:
    """(window_index, classifications, directives) for each flagged window of one series.

    `verdicts` are the series' verdicts (`detector.detect_series`).  Flows
    are banded by the profile's six-sigma limits with the previous window
    as history; suspicious flows are throttled by the window's volume
    excess over the profile mean.
    """
    limits = sigma_limits(profile.per_flow_mean, profile.per_flow_std)
    # Each flow id's position in flow-key order.
    rank = np.argsort(sorted(range(len(series.keys)), key=lambda f: _flow_sort_key(series.keys[f])))
    active = np.zeros(len(series.keys), dtype=bool)
    for i in np.flatnonzero(verdicts.is_attack).tolist():
        flows = series.flow_totals(i, i + 1)
        # The flows of the window before are the history; window 0 has none.
        previous = series.flow[series.bounds[max(i - 1, 0)]:series.bounds[i]]
        active[previous] = True
        classifications = classify_flows(flows, limits, active[flows.flow])
        active[previous] = False
        suspicious = flows.flow[classifications.band == BANDS.index(FlowBand.SUSPICIOUS)]
        strength = volume_excess_ratio(int(series.volume[i]), profile.volume_mean)
        yield (int(verdicts.window_index[i]), classifications,
               throttle_directives(suspicious, rank, series.keys, strength))


def _flow_sort_key(key: FlowKey):
    return (key.protocol.value, key.src_addr, key.dst_addr, key.src_port, key.dst_port)


# --- tab-separated serialization ----------------------------------------------

CLASSIFICATION_HEADER = (
    "window_index\tprotocol\tsrc\tsport\tdst\tdport\tbytes\tband\texcluded_by_history"
)
THROTTLE_HEADER = "window_index\tprotocol\tsrc\tsport\tdst\tdport\trate_multiplier"

# The band and excluded_by_history columns of a classification line, by its
# band code plus 3 if excluded by history.
_BAND_TOKENS = [f"{band}\t{excluded}" for excluded in (0, 1) for band in BANDS]


def dump_characterization(series: WindowSeries, verdicts: Verdicts, profile: NormalProfile,
                          out: TextIO, throttles: TextIO) -> int:
    """Write the classification and throttle lines of each flagged window of
    one series (`characterize`) to the text handles `out` and `throttles`,
    a window at a time; returns the number of flagged windows."""
    # The key columns of each flow are formatted once, as io.dump_events does.
    middles = [f"\t{key_columns(k)}\t" for k in series.keys]
    windows = 0
    for window, classifications, directives in characterize(series, verdicts, profile):
        windows += 1
        tokens = classifications.band + 3 * classifications.excluded_by_history
        out.write("".join([
            f"{window}{middles[f]}{count}\t{_BAND_TOKENS[token]}\n"
            for f, count, token in zip(classifications.flow.tolist(),
                                       classifications.bytes.tolist(), tokens.tolist())
        ]))
        throttles.write("".join([f"{window}{middles[f]}{directives.rate_multiplier!r}\n"
                                 for f in directives.flow.tolist()]))
    return windows
