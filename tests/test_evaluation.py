import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from event_rows import attack_verdicts, series
from fvba.model import FlowKey, ProtocolCategory
from fvba.profiler import NormalProfile

TCP = ProtocolCategory.TCP
UDP = ProtocolCategory.UDP
ICMP = ProtocolCategory.ICMP
ALL_TRIGGERS = frozenset(TriggerCondition)
VOLUME_TRIGGERS = frozenset({TriggerCondition.VOLUME_UPPER, TriggerCondition.VOLUME_LOWER})


def verdicts(rows):
    """TCP verdicts of (window, attacked) rows."""
    return attack_verdicts(TCP, *zip(*rows))


class TestScore:
    def test_perfect_detector(self):
        truth = {w: w < 10 for w in range(100)}
        report = score([verdicts([(w, w < 10) for w in range(100)])], truth)
        assert report.detection_rate == 1.0
        assert report.false_positive_rate == 0.0
        assert (report.detected, report.actual_attacks) == (10, 10)
        assert (report.false_alarms, report.normal_events) == (0, 90)

    def test_window_ordering_invariance(self):
        truth = {w: w % 3 == 0 for w in range(30)}
        rows = [(w, w % 2 == 0) for w in range(30)]
        shuffled = list(rows)
        random.Random(4).shuffle(shuffled)
        assert score([verdicts(rows)], truth) == score([verdicts(shuffled)], truth)

    def test_window_set_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="different window sets"):
            score([verdicts([(0, False)])], {0: False, 1: True})
        with pytest.raises(ParameterError, match="different window sets"):
            score([verdicts([(0, False), (1, False)])], {0: False, 2: True})

    def test_no_attacks_rate_undefined(self):
        report = score([verdicts([(0, False)])], {0: False})
        assert report.detection_rate is None
        assert report.false_positive_rate == 0.0

    def test_counts_bounded(self):
        with pytest.raises(ParameterError):
            ScoreReport(detected=5, actual_attacks=3, false_alarms=0, normal_events=0)


class TestPrintedRatios:
    # The published per-protocol test summary truncates percentages.
    def test_tcp_ratio(self):
        rate = ScoreReport(58675, 65661, 0, 1).detection_rate
        assert math.floor(rate * 100 * 100) / 100 == 89.36

    def test_overall_ratio(self):
        rate = ScoreReport(222867, 229853, 0, 1).detection_rate
        assert math.floor(rate * 100 * 10) / 10 == 96.9

    def test_neptune_ratio(self):
        rate = ScoreReport(56973, 58001, 0, 1).detection_rate
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
        direct = score([detect_series(samples, profile, thresholds)], truth)
        assert point.detection_rate == direct.detection_rate
        assert point.false_positive_rate == direct.false_positive_rate

    def test_matches_independent_per_point_runs(self):
        profile, samples, truth = series_fixture()
        grid = [ToleranceFactors(float(r), float(r)) for r in range(1, 9)]
        points = sweep(samples, profile, truth, grid)
        for factors, point in zip(grid, points):
            report = score(
                [detect_series(samples, profile, compute_thresholds(profile, factors))],
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
        assert not flagged_windows([reports], volume)[1].any()
        (point,) = sweep(samples, profile, truth, [factors], volume_only=True)
        assert point.detection_rate == 0.0 and point.false_positive_rate == 0.0


def flow_key(protocol, i):
    port = 0 if protocol is ICMP else 1000 + i
    return FlowKey(protocol or TCP, f"h{i}", "srv", port, port)


@st.composite
def scored_series(draw):
    """Per-window flow maps of one series from window `first` on, its
    profile, a tolerance-factor grid and per-window truth."""
    protocol = draw(st.sampled_from([*ProtocolCategory, None]))
    first = draw(st.integers(0, 3))
    # The aggregate series spans only its own events: no empty end windows.
    windows = draw(st.lists(st.dictionaries(st.integers(0, 4), st.integers(1, 60),
                                            min_size=protocol is None, max_size=5),
                            min_size=1, max_size=10))
    flows = [{flow_key(protocol, i): count for i, count in window.items()} for window in windows]
    # Whole numbers make deviations hit thresholds exactly now and then.
    def stat(high):
        return draw(st.one_of(st.integers(0, high).map(float), st.floats(0, high)))

    profile = NormalProfile(protocol, 0.2, 10, stat(150), stat(40), stat(5), stat(2), 1.0, 1.0)
    factor = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.25, 4.0))
    grid = draw(st.lists(st.builds(ToleranceFactors, factor, factor,
                                   factor if protocol is UDP else st.none()),
                         min_size=1, max_size=4))
    truth = {first + i: draw(st.booleans()) for i in range(len(flows))}
    return flows, first, protocol, profile, grid, truth


def loop_verdicts(flows, first, protocol, profile, thresholds):
    """detect_series as a loop over the windows' flow maps, the oracle."""
    reports = []
    for index, window in enumerate(flows, start=first):
        volume_deviation = sum(window.values()) - profile.volume_mean
        flow_deviation = len(window) - profile.flow_mean
        triggered = set()
        if volume_deviation > thresholds.x_th:
            triggered.add(TriggerCondition.VOLUME_UPPER)
        if flow_deviation > thresholds.v_th:
            triggered.add(TriggerCondition.FLOW)
        if thresholds.x_th_lower is not None and -volume_deviation > thresholds.x_th_lower:
            triggered.add(TriggerCondition.VOLUME_LOWER)
        reports.append(VerdictReport(index, protocol, bool(triggered), frozenset(triggered),
                                     volume_deviation, flow_deviation))
    return reports


def loop_flags(reports, triggers):
    """flagged_windows as a dict loop, the oracle."""
    flags = {}
    for report in reports:
        fired = not report.triggered.isdisjoint(triggers)
        flags[report.window_index] = flags.get(report.window_index, False) or fired
    return flags


def loop_score(flags, truth):
    """score as a loop over the truth, the oracle."""
    assert set(flags) == set(truth)
    detected = sum(1 for w, attacked in truth.items() if attacked and flags[w])
    false_alarms = sum(1 for w, attacked in truth.items() if not attacked and flags[w])
    attacks = sum(truth.values())
    return ScoreReport(detected, attacks, false_alarms, len(truth) - attacks)


class TestArrayPathOracle:
    @given(scored_series(), st.sets(st.sampled_from(list(TriggerCondition))))
    @settings(max_examples=200, deadline=None)
    def test_matches_window_loop(self, case, triggers):
        flows, first, protocol, profile, grid, truth = case
        windows = series(flows, protocol, first=first)
        outcomes, expected = [], []
        for factors in grid:
            thresholds = compute_thresholds(profile, factors)
            outcome = detect_series(windows, profile, thresholds)
            reports = loop_verdicts(flows, first, protocol, profile, thresholds)
            assert list(outcome) == reports
            outcomes.append(outcome)
            expected.extend(reports)
        # The grid rows' verdicts cover the same windows, so they merge.
        indices, flags = flagged_windows(outcomes, triggers)
        assert indices.tolist() == sorted(truth)
        assert dict(zip(indices.tolist(), flags.tolist())) == loop_flags(expected, triggers)
        assert score(outcomes, truth) == loop_score(loop_flags(expected, ALL_TRIGGERS), truth)
        for volume_only, chosen in ((False, ALL_TRIGGERS), (True, VOLUME_TRIGGERS)):
            points = sweep(windows, profile, truth, grid, volume_only=volume_only)
            for factors, point in zip(grid, points):
                reports = loop_verdicts(flows, first, protocol, profile,
                                        compute_thresholds(profile, factors))
                report = loop_score(loop_flags(reports, chosen), truth)
                assert point.factors == factors
                assert point.detection_rate == report.detection_rate
                assert point.false_positive_rate == report.false_positive_rate


class TestTables:
    def test_score_table(self):
        text = dump_score(ScoreReport(5, 10, 0, 20))
        lines = text.splitlines()
        assert lines[0].startswith("detected\t")
        assert lines[1] == "5\t10\t0\t20\t0.5\t0.0"

    def test_undefined_rate_token(self):
        text = dump_score(ScoreReport(0, 0, 0, 20))
        assert "undefined" in text.splitlines()[1]

    def test_roc_table_rows_follow_grid(self):
        profile, samples, truth = series_fixture()
        grid = [ToleranceFactors(2, 2), ToleranceFactors(4, 4), ToleranceFactors(6, 6)]
        text = dump_roc(sweep(samples, profile, truth, grid))
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("2.0\t2.0\t-")
