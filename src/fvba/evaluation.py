"""Scoring of detector output against ground truth, and threshold sweeps.

Detection rate is the fraction of actual attacks detected; false-positive
rate the fraction of normal traffic flagged.  Both pipelines count scored
units by label id: a simulated window is 0 (normal) or 1 (attack), and a KDD-99
record (`kdd.evaluate_split`) has its label's id and is flagged when its window is.
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


# The masks of the attack and the normal label ids of window truth: 1 and 0.
_WINDOW_LABELS = (np.array([False, True]), np.array([True, False]))


def _aligned_truth(windows: np.ndarray, truth: Mapping[int, bool]) -> np.ndarray:
    """The label (0 normal, 1 attack) of each of the distinct `windows`,
    which must be exactly the windows of `truth`."""
    attacked = [truth.get(w) for w in windows.tolist()]
    if len(truth) != len(attacked) or None in attacked:
        raise ParameterError("verdicts and ground truth cover different window sets")
    return np.array(attacked, dtype=np.int8)


def label_counts(labels: np.ndarray, flags: np.ndarray, label_count: int) -> np.ndarray:
    """Per label id below `label_count`, its units (row 0) and flagged units (row 1)."""
    return np.stack([np.bincount(labels, minlength=label_count),
                     np.bincount(labels[flags], minlength=label_count)])


def report_counts(counts: np.ndarray, attack: np.ndarray,
                  normal: np.ndarray) -> tuple[int, int, int, int]:
    """The ScoreReport counts of `label_counts` rows: the flagged units of the
    label ids in mask `attack` are detected, those in mask `normal` false alarms."""
    (actual, detected), (normals, false_alarms) = (counts[:, attack].sum(axis=1).tolist(),
                                                    counts[:, normal].sum(axis=1).tolist())
    return detected, actual, false_alarms, normals


def score(verdicts: Collection[Verdicts], truth: Mapping[int, bool]) -> ScoreReport:
    """Score the verdicts of one or more series against per-window ground truth.

    A window counts as flagged when any of its verdicts alarms.  The
    verdict window set must equal the truth window set.
    """
    windows, flags = flagged_windows(verdicts)
    counts = label_counts(_aligned_truth(windows, truth), flags, 2)
    return ScoreReport(*report_counts(counts, *_WINDOW_LABELS))


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
    labels = _aligned_truth(series.window_index, truth)
    points = []
    for factors in grid:
        verdicts = detect_series(series, profile, compute_thresholds(profile, factors))
        counts = label_counts(labels, verdicts.fired(triggers), 2)
        points.append(RocPoint(*report_counts(counts, *_WINDOW_LABELS), factors))
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
