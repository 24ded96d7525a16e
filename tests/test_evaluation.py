import math
import random

import pytest

from fvba.detector import (
    ToleranceFactors,
    TriggerCondition,
    VerdictReport,
    compute_thresholds,
    detect_series,
    flagged_windows,
)
from fvba.errors import ParameterError
from fvba.evaluation import (
    ScoreReport,
    dump_roc,
    dump_score,
    score,
    sweep,
)
from event_rows import series
from fvba.model import FlowKey, ProtocolCategory
from fvba.profiler import NormalProfile

TCP = ProtocolCategory.TCP


def verdict(index, attack, triggered=frozenset()):
    if attack and not triggered:
        triggered = frozenset({TriggerCondition.VOLUME_UPPER})
    return VerdictReport(
        window_index=index,
        protocol=TCP,
        is_attack=attack,
        triggered=frozenset(triggered),
        volume_deviation=0.0,
        flow_deviation=0.0,
    )


class TestScore:
    def test_perfect_detector(self):
        truth = {w: w < 10 for w in range(100)}
        verdicts = [verdict(w, w < 10) for w in range(100)]
        report = score(verdicts, truth)
        assert report.detection_rate == 1.0
        assert report.false_positive_rate == 0.0
        assert (report.detected, report.actual_attacks) == (10, 10)
        assert (report.false_alarms, report.normal_events) == (0, 90)

    def test_window_ordering_invariance(self):
        truth = {w: w % 3 == 0 for w in range(30)}
        verdicts = [verdict(w, w % 2 == 0) for w in range(30)]
        shuffled = list(verdicts)
        random.Random(4).shuffle(shuffled)
        assert score(verdicts, truth) == score(shuffled, truth)

    def test_window_set_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            score([verdict(0, False)], {0: False, 1: True})

    def test_no_attacks_rate_undefined(self):
        report = score([verdict(0, False)], {0: False})
        assert report.detection_rate is None
        assert report.false_positive_rate == 0.0

    def test_counts_bounded(self):
        with pytest.raises(ParameterError):
            ScoreReport(detected=5, actual_attacks=3, false_alarms=0,
                        normal_events=0, detection_rate=None, false_positive_rate=None)


class TestPrintedRatios:
    # The published per-protocol test summary truncates percentages.
    def test_tcp_ratio(self):
        rate = ScoreReport.from_counts(58675, 65661, 0, 1).detection_rate
        assert math.floor(rate * 100 * 100) / 100 == 89.36

    def test_overall_ratio(self):
        rate = ScoreReport.from_counts(222867, 229853, 0, 1).detection_rate
        assert math.floor(rate * 100 * 10) / 10 == 96.9

    def test_neptune_ratio(self):
        rate = ScoreReport.from_counts(56973, 58001, 0, 1).detection_rate
        assert math.floor(rate * 100 * 100) / 100 == 98.22


def series_fixture():
    """A fixed sample series with a known profile for sweep tests."""
    profile = NormalProfile(
        protocol=TCP, window_length=0.2, training_windows=100,
        volume_mean=1000.0, volume_std=10.0, flow_mean=20.0, flow_std=2.0,
        per_flow_mean=50.0, per_flow_std=5.0,
    )
    rng = random.Random(17)
    windows = []
    truth = {}
    for w in range(120):
        attacked = 40 <= w < 80
        volume = 1000 + (rng.randint(30, 200) if attacked else rng.randint(-25, 25))
        flows = 20 + (rng.randint(5, 40) if attacked else rng.randint(-3, 3))
        per_flow = {FlowKey(TCP, f"h{i}", "srv", 1000 + i, 80): 1 for i in range(flows)}
        first = FlowKey(TCP, "h0", "srv", 1000, 80)
        per_flow[first] = volume - (flows - 1)
        windows.append(per_flow)
        truth[w] = attacked
    return profile, series(windows, TCP), truth


class TestSweep:
    def test_single_point_equals_direct_score(self):
        profile, samples, truth = series_fixture()
        factors = ToleranceFactors(3, 3)
        (point,) = sweep(samples, profile, truth, [factors])
        thresholds = compute_thresholds(profile, factors)
        direct = score(detect_series(samples, profile, thresholds), truth)
        assert point.detection_rate == direct.detection_rate
        assert point.false_positive_rate == direct.false_positive_rate

    def test_matches_independent_per_point_runs(self):
        profile, samples, truth = series_fixture()
        grid = [ToleranceFactors(float(r), float(r)) for r in range(1, 9)]
        points = sweep(samples, profile, truth, grid)
        for factors, point in zip(grid, points):
            report = score(
                detect_series(samples, profile, compute_thresholds(profile, factors)),
                truth,
            )
            assert point.detection_rate == report.detection_rate
            assert point.false_positive_rate == report.false_positive_rate
        assert [p.factors for p in points] == grid

    def test_empty_grid_rejected(self):
        profile, samples, truth = series_fixture()
        with pytest.raises(ParameterError):
            sweep(samples, profile, truth, [])

    def test_volume_only_fp_monotone_in_r1(self):
        # Single-metric sub-sweep: raising r1 can only un-flag windows.
        profile, samples, truth = series_fixture()
        grid = [ToleranceFactors(0.5 + r / 2, 5.0) for r in range(16)]
        points = sweep(samples, profile, truth, grid, volume_only=True)
        rates = [p.false_positive_rate for p in points]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_volume_only_ignores_flow_triggers(self):
        profile, samples, truth = series_fixture()
        factors = ToleranceFactors(1000.0, 0.1)  # only the flow condition can fire
        reports = detect_series(samples, profile, compute_thresholds(profile, factors))
        assert any(r.is_attack for r in reports)
        volume = {TriggerCondition.VOLUME_UPPER, TriggerCondition.VOLUME_LOWER}
        assert not any(flagged_windows(reports, volume).values())
        (point,) = sweep(samples, profile, truth, [factors], volume_only=True)
        assert point.detection_rate == 0.0 and point.false_positive_rate == 0.0


class TestTables:
    def test_score_table(self):
        text = dump_score(ScoreReport.from_counts(5, 10, 0, 20))
        lines = text.splitlines()
        assert lines[0].startswith("detected\t")
        assert lines[1] == "5\t10\t0\t20\t0.5\t0.0"

    def test_undefined_rate_token(self):
        text = dump_score(ScoreReport.from_counts(0, 0, 0, 20))
        assert "undefined" in text.splitlines()[1]

    def test_roc_table_rows_follow_grid(self):
        profile, samples, truth = series_fixture()
        grid = [ToleranceFactors(2, 2), ToleranceFactors(4, 4), ToleranceFactors(6, 6)]
        text = dump_roc(sweep(samples, profile, truth, grid))
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("2.0\t2.0\t-")
