"""Scoring of detector output against ground truth, and threshold sweeps.

Detection rate is the fraction of actual attacks detected; false-positive
rate the fraction of normal traffic flagged.  Scoring here runs per
window (simulation streams); `kdd.evaluate_split` scores dataset runs per
record, where a window verdict propagates to every record inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .detector import (
    ToleranceFactors,
    TriggerCondition,
    Verdicts,
    compute_thresholds,
    detect_series,
    flagged_windows,
)
from .errors import ParameterError
from .model import ProtocolCategory, WindowSeries
from .profiler import NormalProfile

_VOLUME_TRIGGERS = frozenset({TriggerCondition.VOLUME_UPPER, TriggerCondition.VOLUME_LOWER})


@dataclass(frozen=True)
class ScoreReport:
    """Detection/false-positive counts of one run, and the rates they give."""

    detected: int
    actual_attacks: int
    false_alarms: int
    normal_events: int

    def __post_init__(self):
        if not 0 <= self.detected <= self.actual_attacks:
            raise ParameterError("detected count must lie in [0, actual_attacks]")
        if not 0 <= self.false_alarms <= self.normal_events:
            raise ParameterError("false alarms must lie in [0, normal_events]")

    @property
    def detection_rate(self) -> float | None:
        """Detected over actual attacks; None when there are none."""
        return self.detected / self.actual_attacks if self.actual_attacks else None

    @property
    def false_positive_rate(self) -> float | None:
        """False alarms over normal events; None when there are none."""
        return self.false_alarms / self.normal_events if self.normal_events else None


@dataclass(frozen=True)
class RocPoint(ScoreReport):
    """One operating point of a tolerance-factor sweep: the counts scored at `factors`."""

    factors: ToleranceFactors


def _aligned_truth(windows: np.ndarray, truth: Mapping[int, bool]) -> np.ndarray:
    """The truth of each of the distinct `windows`, which must be exactly
    the windows of `truth`."""
    attacked = [truth.get(w) for w in windows.tolist()]
    if len(truth) != len(attacked) or None in attacked:
        raise ParameterError("verdicts and ground truth cover different window sets")
    return np.array(attacked, dtype=bool)


def _flag_counts(flags: np.ndarray, attacked: np.ndarray) -> tuple[int, int, int, int]:
    """The ScoreReport counts of per-window flags against per-window truth."""
    attacks = int(attacked.sum())
    return (int((flags & attacked).sum()), attacks, int((flags & ~attacked).sum()),
            attacked.size - attacks)


def score(verdicts: Collection[Verdicts], truth: Mapping[int, bool]) -> ScoreReport:
    """Score the verdicts of one or more series against per-window ground truth.

    A window counts as flagged when any of its verdicts alarms.  The
    verdict window set must equal the truth window set.
    """
    windows, flags = flagged_windows(verdicts)
    return ScoreReport(*_flag_counts(flags, _aligned_truth(windows, truth)))


@dataclass(frozen=True)
class BreakdownRow:
    """Per-attack detection summary."""

    attack: str
    protocol: ProtocolCategory
    detected: int
    total: int

    @property
    def rate(self) -> float:
        return self.detected / self.total


def sweep(
    series: WindowSeries,
    profile: NormalProfile,
    truth: Mapping[int, bool],
    grid: Sequence[ToleranceFactors],
    volume_only: bool = False,
) -> list[RocPoint]:
    """Re-threshold and re-score one window series for every grid entry.

    The profile stays fixed; only thresholds are recomputed.  With
    `volume_only` the flow condition is ignored when flagging windows
    (single-metric sweeps).  Output order follows the grid.
    """
    if not grid:
        raise ParameterError("sweep grid must be non-empty")
    triggers = _VOLUME_TRIGGERS if volume_only else frozenset(TriggerCondition)
    attacked = _aligned_truth(series.window_index, truth)
    points = []
    for factors in grid:
        verdicts = detect_series(series, profile, compute_thresholds(profile, factors))
        points.append(RocPoint(*_flag_counts(verdicts.fired(triggers), attacked), factors))
    return points


# --- tab-separated tables -------------------------------------------------------

SCORE_HEADER = "detected\tactual_attacks\tfalse_alarms\tnormal_events\tdetection_rate\tfalse_positive_rate"
ROC_HEADER = "r1\tr2\tr3\tdetection_rate\tfalse_positive_rate"
BREAKDOWN_HEADER = "attack\tprotocol\tdetected\ttotal\tdetection_rate"


def _rate_token(rate: float | None) -> str:
    return "undefined" if rate is None else repr(rate)


def _score_row(report: ScoreReport) -> str:
    return (f"{report.detected}\t{report.actual_attacks}\t{report.false_alarms}"
            f"\t{report.normal_events}\t{_rate_token(report.detection_rate)}"
            f"\t{_rate_token(report.false_positive_rate)}")


def dump_score(report: ScoreReport) -> str:
    return SCORE_HEADER + "\n" + _score_row(report) + "\n"


def dump_score_table(labeled_reports: Iterable[tuple[str, ScoreReport]]) -> str:
    rows = [f"{label}\t{_score_row(report)}" for label, report in labeled_reports]
    return "\n".join(["series\t" + SCORE_HEADER, *rows]) + "\n"


def dump_roc(points: Iterable[RocPoint]) -> str:
    lines = [ROC_HEADER]
    for point in points:
        f = point.factors
        r3 = "-" if f.r3 is None else repr(f.r3)
        lines.append(f"{f.r1!r}\t{f.r2!r}\t{r3}\t{_rate_token(point.detection_rate)}"
                     f"\t{_rate_token(point.false_positive_rate)}")
    return "\n".join(lines) + "\n"


def dump_breakdown(rows: Iterable[BreakdownRow]) -> str:
    lines = [f"{r.attack}\t{r.protocol}\t{r.detected}\t{r.total}\t{r.rate!r}" for r in rows]
    return "\n".join([BREAKDOWN_HEADER, *lines]) + "\n"
