import itertools
import random
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvba.detector import (
    DEFAULT_FACTORS,
    Thresholds,
    ToleranceFactors,
    TriggerCondition,
    Verdicts,
    compute_thresholds,
    detect_profiled,
    detect_series,
    dump_verdicts,
    flagged_windows,
    load_verdicts,
)
from fvba.errors import ParameterError, ParseError
from event_rows import series
from fvba.model import FlowKey, ProtocolCategory
from fvba.profiler import NormalProfile

TCP = ProtocolCategory.TCP
UDP = ProtocolCategory.UDP
ICMP = ProtocolCategory.ICMP

VOLUME_UPPER = TriggerCondition.VOLUME_UPPER
VOLUME_LOWER = TriggerCondition.VOLUME_LOWER
FLOW = TriggerCondition.FLOW


def profile(proto=TCP, volume_mean=1000.0, volume_std=10.0, flow_mean=20.0, flow_std=2.0):
    return NormalProfile(
        protocol=proto,
        window_length=0.2,
        training_windows=300,
        volume_mean=volume_mean,
        volume_std=volume_std,
        flow_mean=flow_mean,
        flow_std=flow_std,
        per_flow_mean=100.0,
        per_flow_std=10.0,
    )


def window(proto=TCP, volume=1000, flows=20):
    # First flow absorbs the remainder; needs volume >= flows.
    per_flow = {}
    for i in range(flows):
        port = 0 if proto is ICMP else 1000 + i
        share = volume - (flows - 1) if i == 0 else 1
        per_flow[FlowKey(proto or TCP, f"h{i}", "srv", port, port)] = share
    return per_flow


def sample(proto=TCP, volume=1000, flows=20, index=0):
    """A series of one window, window `index`."""
    return series([window(proto, volume, flows)], proto, first=index)


def detect(one_window, profile, thresholds):
    """The verdict of a series of one window."""
    (report,) = detect_series(one_window, profile, thresholds)
    return report


class TestToleranceFactors:
    def test_positive_required(self):
        with pytest.raises(ParameterError):
            ToleranceFactors(0, 5)
        with pytest.raises(ParameterError):
            ToleranceFactors(1, -2)
        with pytest.raises(ParameterError):
            ToleranceFactors(1, 2, r3=0)

    @pytest.mark.parametrize("r1,r2,r3", [
        (float("nan"), 5, None), (1, float("inf"), None), (1, 5, float("nan")),
        (1, 5, float("inf")),
    ])
    def test_non_finite_rejected(self, r1, r2, r3):
        with pytest.raises(ParameterError, match="finite"):
            ToleranceFactors(r1, r2, r3)

    def test_table_defaults(self):
        assert DEFAULT_FACTORS[TCP] == ToleranceFactors(1, 5)
        assert DEFAULT_FACTORS[UDP] == ToleranceFactors(6, 8, 1.5)
        assert DEFAULT_FACTORS[ICMP] == ToleranceFactors(5, 6)


class TestComputeThresholds:
    def test_zero_variance_profile(self):
        th = compute_thresholds(profile(volume_std=0.0, flow_std=0.0), ToleranceFactors(3, 9))
        assert th.x_th == 0 and th.v_th == 0

    def test_tcp_operating_point(self):
        th = compute_thresholds(
            profile(volume_std=10.0, flow_std=2.0), ToleranceFactors(6, 6)
        )
        assert th.x_th == 60 and th.v_th == 12 and th.x_th_lower is None

    def test_udp_with_lower_factor(self):
        th = compute_thresholds(
            profile(UDP, volume_std=10.0, flow_std=2.0), ToleranceFactors(6, 8, 1.5)
        )
        assert (th.x_th, th.v_th, th.x_th_lower) == (60, 16, 15)

    def test_udp_requires_r3(self):
        with pytest.raises(ParameterError):
            compute_thresholds(profile(UDP), ToleranceFactors(6, 8))

    def test_r3_rejected_for_tcp(self):
        with pytest.raises(ParameterError):
            compute_thresholds(profile(TCP), ToleranceFactors(1, 5, 1.5))

    def test_exact_products(self):
        rng = random.Random(3)
        for _ in range(200):
            sv, sf = rng.uniform(0, 1e6), rng.uniform(0, 1e3)
            r1, r2, r3 = rng.uniform(0.1, 9), rng.uniform(0.1, 9), rng.uniform(0.1, 9)
            th = compute_thresholds(
                profile(UDP, volume_std=sv, flow_std=sf), ToleranceFactors(r1, r2, r3)
            )
            assert th.x_th == r1 * sv
            assert th.v_th == r2 * sf
            assert th.x_th_lower == r3 * sv


class TestDetect:
    def test_no_deviation_is_attack_free(self):
        th = Thresholds(x_th=60, v_th=12)
        report = detect(sample(volume=1000, flows=20), profile(), th)
        assert not report.is_attack and not report.triggered

    def test_volume_upper_triggers(self):
        th = Thresholds(x_th=60, v_th=12)
        report = detect(sample(volume=1100, flows=20), profile(), th)
        assert report.is_attack and report.triggered == {VOLUME_UPPER}
        assert report.volume_deviation == 100

    def test_flow_catches_diluted_attack(self):
        # Volume stays inside the bound; the flow count jump alone alarms.
        th = Thresholds(x_th=60, v_th=12)
        report = detect(sample(volume=1010, flows=70), profile(), th)
        assert report.is_attack and report.triggered == {FLOW}
        assert report.flow_deviation == 50

    def test_udp_lower_bound_drop(self):
        th = Thresholds(x_th=60, v_th=16, x_th_lower=15)
        report = detect(sample(UDP, volume=980, flows=20), profile(UDP), th)
        assert report.is_attack and report.triggered == {VOLUME_LOWER}
        assert report.volume_deviation == -20

    def test_equality_is_attack_free(self):
        th = Thresholds(x_th=60, v_th=12)
        report = detect(sample(volume=1060, flows=32), profile(), th)
        assert report.volume_deviation == 60 and report.flow_deviation == 12
        assert not report.is_attack

    def test_udp_equality_at_lower_bound_attack_free(self):
        th = Thresholds(x_th=60, v_th=16, x_th_lower=15)
        report = detect(sample(UDP, volume=985, flows=20), profile(UDP), th)
        assert report.volume_deviation == -15
        assert not report.is_attack

    def test_protocol_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="same protocol series"):
            detect_series(sample(UDP), profile(TCP), Thresholds(60, 12))

    def test_window_length_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="window lengths differ"):
            detect_series(series([{}], TCP, length=0.5), profile(), Thresholds(60, 12))

    def test_pure_function(self):
        th = Thresholds(x_th=60, v_th=12)
        s = sample(volume=1100, flows=25)
        assert list(detect_series(s, profile(), th)) == list(detect_series(s, profile(), th))


class TestAlgorithmTruthTable:
    """Enumerated deviation cases against an independent restatement of
    the detection branches (strict exceedance, equality attack-free)."""

    def expected(self, proto, vol_dev, flow_dev, th):
        triggered = set()
        if vol_dev > th.x_th:
            triggered.add(VOLUME_UPPER)
        if flow_dev > th.v_th:
            triggered.add(FLOW)
        if proto is UDP and (-vol_dev) > th.x_th_lower:
            triggered.add(VOLUME_LOWER)
        return triggered

    def test_enumerated_cases(self):
        mismatches = 0
        for proto in (TCP, UDP, ICMP, None):
            if proto is UDP:
                th = Thresholds(x_th=60, v_th=12, x_th_lower=15)
            else:
                th = Thresholds(x_th=60, v_th=12)
            base = profile(proto, volume_mean=1000.0, volume_std=10.0,
                           flow_mean=20.0, flow_std=2.0)
            vol_cases = [-16, -15, -14, 0, 59, 60, 61]
            flow_cases = [-5, 0, 11, 12, 13]
            for vol_dev in vol_cases:
                for flow_dev in flow_cases:
                    s = sample(proto, volume=1000 + vol_dev, flows=20 + flow_dev)
                    report = detect(s, base, th)
                    want = self.expected(proto, vol_dev, flow_dev, th)
                    if report.triggered != want or report.is_attack != bool(want):
                        mismatches += 1
        assert mismatches == 0


class TestVerdictProperties:
    @given(
        st.integers(-500, 500),
        st.integers(-50, 50),
        st.floats(0.5, 20, allow_nan=False),
        st.floats(0.5, 20, allow_nan=False),
        st.floats(0, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_factors(self, vol_dev, flow_dev, r1, r2, bump):
        base = profile(volume_mean=1000.0, volume_std=7.0, flow_mean=60.0, flow_std=3.0)
        s = sample(volume=1000 + vol_dev, flows=60 + flow_dev)
        low = detect(s, base, compute_thresholds(base, ToleranceFactors(r1, r2)))
        high = detect(s, base, compute_thresholds(base, ToleranceFactors(r1 + bump, r2 + bump)))
        # Raising thresholds can only un-flag, never newly flag.
        if not low.is_attack:
            assert not high.is_attack

    def test_flagged_windows_merge(self):
        th = Thresholds(x_th=60, v_th=12)
        udp_th = Thresholds(x_th=60, v_th=16, x_th_lower=15)
        tcp = detect_series(series([window(volume=1000), window(volume=1100)], TCP), profile(), th)
        udp = detect_series(series([window(UDP), window(UDP)], UDP), profile(UDP), udp_th)
        windows, flags = flagged_windows([tcp, udp])
        assert windows.tolist() == [0, 1] and flags.tolist() == [False, True]

    def test_flagged_windows_trigger_filter(self):
        def verdicts(protocol, rows):
            """Verdicts of (window, triggers) rows; triggers in _TRIGGER_ORDER."""
            indices, triggered = zip(*rows)
            zeros = np.zeros(len(rows))
            return Verdicts(protocol, np.array(indices), np.array(triggered), zeros, zeros)

        reports = [verdicts(TCP, [(3, (0, 0, 0)), (2, (1, 0, 1)), (1, (0, 1, 0))]),
                   verdicts(UDP, [(0, (0, 0, 1)), (3, (0, 0, 1))])]
        volume = {VOLUME_UPPER, VOLUME_LOWER}
        windows, flags = flagged_windows(reports, volume)
        assert windows.tolist() == [0, 1, 2, 3] and flags.tolist() == [False, True, True, False]
        assert flagged_windows(reports)[1].tolist() == [True, True, True, True]
        windows, flags = flagged_windows([])
        assert windows.size == flags.size == 0


class TestDetectProfiled:
    def test_series_without_profile_gets_no_entry(self):
        verdicts = detect_profiled({TCP: sample(), ICMP: sample(ICMP)}, {TCP: profile()})
        assert list(verdicts) == [TCP]

    def test_keeps_series_order(self):
        profiles = {p: profile(p) for p in (TCP, UDP, ICMP)}
        for order in ([UDP, ICMP, TCP], [ICMP, TCP, UDP]):
            verdicts = detect_profiled({p: sample(p) for p in order}, profiles)
            assert list(verdicts) == order

    def test_each_protocol_thresholded_with_its_factors(self):
        # A rise of 50 is beyond TCP's r1 = 1 (10 bytes) but not ICMP's
        # r1 = 5; a drop of 50 fires only UDP's lower factor r3 = 1.5.
        windows = {p: series([window(p, volume=1050), window(p, volume=950)], p)
                   for p in (TCP, UDP, ICMP)}
        profiles = {p: profile(p) for p in windows}
        verdicts = detect_profiled(windows, profiles)
        assert {p: [r.triggered for r in reports] for p, reports in verdicts.items()} == {
            TCP: [{VOLUME_UPPER}, set()],
            UDP: [set(), {VOLUME_LOWER}],
            ICMP: [set(), set()],
        }
        for p, reports in verdicts.items():
            thresholds = compute_thresholds(profiles[p], DEFAULT_FACTORS[p])
            assert list(reports) == list(detect_series(windows[p], profiles[p], thresholds))
        wider = {TCP: ToleranceFactors(6, 6)}
        verdicts = detect_profiled({TCP: windows[TCP]}, profiles, wider)
        assert not any(r.is_attack for r in verdicts[TCP])


def rows(verdicts):
    """The verdicts of each series as lists of rows."""
    return {protocol: list(series) for protocol, series in verdicts.items()}


@st.composite
def verdict_series(draw):
    """Verdicts of distinct series, each of one or more windows, with any
    values the verdict format carries: distinct int64 window indices, any
    triggers and finite deviations."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    protocols = draw(st.lists(st.sampled_from([*ProtocolCategory, None]), unique=True))
    verdicts = {}
    for protocol in protocols:
        size = draw(st.integers(1, 5))
        column = partial(st.lists, min_size=size, max_size=size)
        verdicts[protocol] = Verdicts(
            protocol,
            np.array(draw(column(st.integers(-2**63, 2**63 - 1), unique=True)), dtype=np.int64),
            np.array(draw(column(st.lists(st.booleans(), min_size=3, max_size=3)))),
            np.array(draw(column(finite))), np.array(draw(column(finite))))
    return verdicts


class TestVerdictSerialization:
    @given(verdict_series())
    def test_every_verdict_round_trips(self, verdicts):
        loaded = load_verdicts(dump_verdicts(verdicts.values()))
        assert list(loaded) == list(verdicts)
        assert rows(loaded) == rows(verdicts)

    def test_round_trip(self):
        th = Thresholds(x_th=60, v_th=12)
        verdicts = detect_series(series([window(volume=1000 + d) for d in (0, 100, -3)], TCP),
                                 profile(), th)
        assert [r.is_attack for r in verdicts] == [False, True, False]
        assert rows(load_verdicts(dump_verdicts([verdicts]))) == {TCP: list(verdicts)}

    def test_header_required(self):
        with pytest.raises(Exception):
            load_verdicts("1\tTCP\t0\t-\t0.0\t0.0\n")

    def test_triggered_token_of_every_condition_set(self):
        fired = np.array(list(itertools.product((False, True), repeat=3)))
        text = dump_verdicts([Verdicts(None, np.arange(8), fired, np.zeros(8), np.zeros(8))])
        assert [line.split("\t")[2:4] for line in text.splitlines()[1:]] == [
            ["0", "-"], ["1", "flow"], ["1", "volume_lower"], ["1", "volume_lower,flow"],
            ["1", "volume_upper"], ["1", "volume_upper,flow"], ["1", "volume_upper,volume_lower"],
            ["1", "volume_upper,volume_lower,flow"],
        ]
        assert np.array_equal(load_verdicts(text)[None].triggered, fired)

    @pytest.mark.parametrize("row,message", [
        ("1_0\tTCP\t0\t-\t0.0\t0.0", "malformed window index: '1_0'"),
        ("1\tTCP\t0\t-\t+1_0\t0.0", "malformed volume deviation: '+1_0'"),
        ("1\tTCP\t0\t-\t0.0\t1_0", "malformed flow deviation: '1_0'"),
        ("1\tTCP\t2\tflow\t0.0\t0.0", "is_attack must be 0 or 1, got '2'"),
        ("1\tTCP\t01\tflow\t0.0\t0.0", "is_attack must be 0 or 1, got '01'"),
        ("0\ttcp\t1\tflow\t0.0\t0.0", "unknown series: 'tcp'"),
        ("0\tTCP\t1\tflow\t0.0\t0.0", "window 0 of the TCP series given twice"),
        (" ", "expected 6 columns, got 1"),
    ])
    def test_malformed_row_named_by_line(self, row, message):
        text = dump_verdicts([Verdicts(TCP, np.array([0]), np.zeros((1, 3), bool),
                                       np.zeros(1), np.zeros(1))])
        with pytest.raises(ParseError, match=f"^line 3: {re.escape(message)}$"):
            load_verdicts(text + row + "\n")

    def test_same_window_in_two_series(self):
        rows = ["0\tTCP\t0\t-\t0.0\t0.0", "0\tALL\t0\t-\t0.0\t0.0"]
        loaded = load_verdicts(dump_verdicts([]) + "".join(row + "\n" for row in rows))
        assert [v.window_index.tolist() for v in loaded.values()] == [[0], [0]]
