import hashlib
import io
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fvba.characterizer import (
    FlowBand,
    SigmaLimits,
    _flow_sort_key,
    characterize,
    classify_flows,
    dump_characterization,
    sigma_limits,
    throttle_directives,
    volume_excess_ratio,
)
from fvba.detector import detect_profiled
from fvba.errors import ParameterError
from event_rows import Row, attack_verdicts, series, table
from fvba.io import key_columns
from fvba.model import SERIES, FlowKey, FlowTotals, ProtocolCategory
from fvba.profiler import NormalProfile, build_profile, windowize
from fvba.simulator import ScenarioConfig, ScenarioKind, generate


def key(i):
    return FlowKey(ProtocolCategory.TCP, f"h{i}", "srv", 1000 + i, 80)


def flows_of(counts, keys=None):
    """A FlowTotals of one window whose row j is flow j with counts[j] bytes."""
    keys = keys or [key(i) for i in range(len(counts))]
    return FlowTotals(np.zeros(len(counts), dtype=np.int64), np.arange(len(counts)),
                      np.array(counts, dtype=np.int64), keys)


# --- the dict path characterize replaced, kept as the reference --------------

def reference_flows(windows, i):
    """Per-flow byte totals of window i of the series, keyed in order of each
    flow's first row in the window."""
    lo, hi = windows.bounds[i], windows.bounds[i + 1]
    totals = {}
    for f, count in zip(windows.flow[lo:hi].tolist(), windows.bytes[lo:hi].tolist()):
        totals[windows.keys[f]] = totals.get(windows.keys[f], 0) + count
    return totals


def reference_classify(per_flow_bytes, limits, previously_active):
    """(key, bytes, band, excluded_by_history) of each flow, by Python's comparisons."""
    classifications = []
    for k, count in per_flow_bytes.items():
        excluded = False
        if count > limits.ucl_as or count < limits.lcl_as:
            band = FlowBand.ATTACK
            if k in previously_active:
                band = FlowBand.SUSPICIOUS
                excluded = True
        elif limits.lcl_ss <= count <= limits.ucl_ss:
            band = FlowBand.NORMAL
        else:
            band = FlowBand.SUSPICIOUS
        classifications.append((k, count, band, excluded))
    return classifications


def reference_characterize(windows, verdicts, profile):
    """The classification and throttle lines of the dict path, one string each."""
    limits = sigma_limits(profile.per_flow_mean, profile.per_flow_std)
    lines, throttles = [], []
    for i in np.flatnonzero(verdicts.is_attack).tolist():
        window = int(verdicts.window_index[i])
        history = reference_flows(windows, i - 1) if i else {}
        suspicious = []
        for k, count, band, excluded in reference_classify(reference_flows(windows, i), limits,
                                                           history):
            lines.append(f"{window}\t{key_columns(k)}\t{count}\t{band}\t{int(excluded)}\n")
            if band is FlowBand.SUSPICIOUS:
                suspicious.append(k)
        multiplier = 1.0 / (1.0 + volume_excess_ratio(int(windows.volume[i]), profile.volume_mean))
        throttles += [f"{window}\t{key_columns(k)}\t{multiplier!r}\n" for k in sorted(
            suspicious, key=lambda k: (k.protocol.value, k.src_addr, k.dst_addr, k.src_port,
                                       k.dst_port))]
    return "".join(lines), "".join(throttles)


def characterized_text(windows, verdicts, profile):
    out, throttles = io.StringIO(), io.StringIO()
    dump_characterization(windows, verdicts, profile, out, throttles)
    return out.getvalue(), throttles.getvalue()


class TestSigmaLimits:
    def test_zero_variance_collapse(self):
        limits = sigma_limits(100, 0)
        assert (limits.ucl_ss, limits.lcl_ss, limits.ucl_as, limits.lcl_as) == (100, 100, 100, 100)

    def test_arithmetic(self):
        limits = sigma_limits(100, 10)
        assert (limits.ucl_ss, limits.lcl_ss, limits.ucl_as, limits.lcl_as) == (130, 70, 160, 40)

    def test_negative_lower_limits_permitted(self):
        limits = sigma_limits(0, 10)
        assert limits.lcl_ss == -30 and limits.lcl_as == -60

    def test_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            sigma_limits(100, -1)

    def test_ordering_invariant(self):
        rng = random.Random(5)
        for _ in range(500):
            limits = sigma_limits(rng.uniform(-1e6, 1e6), rng.uniform(0, 1e5))
            assert limits.lcl_as <= limits.lcl_ss <= limits.ucl_ss <= limits.ucl_as

    def test_misordered_limits_rejected(self):
        with pytest.raises(ParameterError):
            SigmaLimits(ucl_ss=10, lcl_ss=20, ucl_as=30, lcl_as=0)


LIMITS = sigma_limits(100, 10)


class TestClassifyFlows:
    def band_of(self, count, previously_active=False, limits=LIMITS):
        (c,) = classify_flows(flows_of([count]), limits, np.array([previously_active]))
        return c

    def test_at_the_mean_is_normal(self):
        assert self.band_of(100).band is FlowBand.NORMAL

    def test_beyond_six_sigma_is_attack(self):
        assert self.band_of(165).band is FlowBand.ATTACK

    def test_between_three_and_six_sigma_is_suspicious(self):
        assert self.band_of(140).band is FlowBand.SUSPICIOUS

    def test_boundaries_resolve_to_less_severe_band(self):
        assert self.band_of(130).band is FlowBand.NORMAL      # == ucl_ss
        assert self.band_of(70).band is FlowBand.NORMAL       # == lcl_ss
        assert self.band_of(160).band is FlowBand.SUSPICIOUS  # == ucl_as
        assert self.band_of(40).band is FlowBand.SUSPICIOUS   # == lcl_as

    def test_history_demotes_attack_to_suspicious(self):
        c = self.band_of(165, previously_active=True)
        assert c.band is FlowBand.SUSPICIOUS and c.excluded_by_history

    def test_history_never_promotes(self):
        c = self.band_of(100, previously_active=True)
        assert c.band is FlowBand.NORMAL and not c.excluded_by_history
        c = self.band_of(140, previously_active=True)
        assert c.band is FlowBand.SUSPICIOUS and not c.excluded_by_history

    def test_rows_carry_key_and_bytes(self):
        (c,) = classify_flows(flows_of([140], [key(7)]), LIMITS, np.array([False]))
        assert (c.key, c.bytes) == (key(7), 140)

    def test_matches_interval_oracle_on_random_flows(self):
        rng = random.Random(11)
        limits = sigma_limits(5000, 800)
        keys = [key(i) for i in range(10_000)]
        counts = {k: rng.randrange(0, 12_000) for k in keys}
        history = {k for k in keys if rng.random() < 0.3}
        got = classify_flows(flows_of(list(counts.values()), keys), limits,
                             np.array([k in history for k in keys]))
        assert list(got) == reference_classify(counts, limits, history)

    @given(
        st.dictionaries(st.integers(0, 40), st.integers(0, 300), max_size=40),
        st.sets(st.integers(0, 40), max_size=20),
        st.floats(0, 200, allow_nan=False),
        st.floats(0, 40, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_bands_partition_the_input(self, raw, history_ids, mean, std):
        keys = [key(i) for i in raw]
        classifications = classify_flows(flows_of(list(raw.values()), keys),
                                         sigma_limits(mean, std),
                                         np.array([i in history_ids for i in raw], dtype=bool))
        assert len(classifications) == len(raw)
        assert [c.key for c in classifications] == keys
        for c in classifications:
            assert c.band in (FlowBand.NORMAL, FlowBand.SUSPICIOUS, FlowBand.ATTACK)


# Totals around 2**53, where float64 stops holding every integer, and at the
# ends of int64.
EDGE_TOTALS = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 2**62, 2**63 - 2, 2**63 - 1]


class TestExactBanding:
    """Bands equal Python's int-float comparisons for every int64 total,
    where a numpy comparison would round totals above 2**53 to float64."""

    def assert_reference_bands(self, totals, limits):
        keys = [key(i) for i in range(len(totals))]
        history = set(keys[::2])
        got = classify_flows(flows_of(totals, keys), limits,
                             np.array([k in history for k in keys], dtype=bool))
        assert list(got) == reference_classify(dict(zip(keys, totals)), limits, history)

    def test_banding_changes_between_two_pow_53_and_the_next_integer(self):
        # 2**53 + 1 rounds to 2.0**53 as a float64, onto the upper limits.
        limits = SigmaLimits(ucl_ss=2.0**53, lcl_ss=0.0, ucl_as=2.0**53, lcl_as=0.0)
        ((_, _, normal, _), (_, _, attack, _)) = reference_classify(
            {key(0): 2**53, key(1): 2**53 + 1}, limits, ())
        assert (normal, attack) == (FlowBand.NORMAL, FlowBand.ATTACK)
        self.assert_reference_bands([2**53, 2**53 + 1], limits)

    @pytest.mark.parametrize("limits", [
        SigmaLimits(ucl_ss=2.0**53, lcl_ss=2.0**53, ucl_as=2.0**53, lcl_as=2.0**53),
        SigmaLimits(ucl_ss=2.0**53 + 2, lcl_ss=2.0**53 - 1, ucl_as=2.0**62, lcl_as=1.5),
        SigmaLimits(ucl_ss=2.0**63, lcl_ss=2.0**62, ucl_as=2.0**64, lcl_as=-2.0**63),
        SigmaLimits(ucl_ss=9.3e18, lcl_ss=-9.3e18, ucl_as=1e300, lcl_as=-1e300),
        SigmaLimits(ucl_ss=0.5, lcl_ss=0.5, ucl_as=float("inf"), lcl_as=float("-inf")),
        SigmaLimits(ucl_ss=float("inf"), lcl_ss=float("inf"), ucl_as=float("inf"),
                    lcl_as=float("inf")),
        SigmaLimits(ucl_ss=float("-inf"), lcl_ss=float("-inf"), ucl_as=float("-inf"),
                    lcl_as=float("-inf")),
        # A finite profile whose mean + 3 std overflows to inf, and one whose
        # limits lie beyond int64 but stay finite.
        sigma_limits(1.5e308, 5e307),
        sigma_limits(1.7e308, 1e307),
        sigma_limits(1e19, 1e18),
    ], ids=lambda limits: repr(limits))
    def test_limits_beyond_int64_and_infinite(self, limits):
        self.assert_reference_bands(EDGE_TOTALS, limits)

    @given(st.lists(st.one_of(st.integers(0, 2**63 - 1), st.sampled_from(EDGE_TOTALS),
                              st.integers(2**53 - 4, 2**53 + 4)), max_size=20),
           st.lists(st.one_of(st.floats(allow_nan=False),
                              st.integers(2**53 - 4, 2**53 + 4).map(float),
                              st.sampled_from([2.0**53, 2.0**63, -2.0**63, 2.0**64])),
                    min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_python_comparisons(self, totals, raw_limits):
        lcl_as, lcl_ss, ucl_ss, ucl_as = sorted(raw_limits)
        self.assert_reference_bands(totals, SigmaLimits(ucl_ss, lcl_ss, ucl_as, lcl_as))


def key_rank(keys):
    """Each flow id's position in `sorted(keys, key=_flow_sort_key)`."""
    ordered = sorted(keys, key=_flow_sort_key)
    return np.array([ordered.index(k) for k in keys])


class TestThrottleDirectives:
    def multiplier(self, strength):
        """The rate multiplier of throttling the one flow key(0) at `strength`."""
        directives = throttle_directives(np.array([0]), np.array([0]), [key(0)], strength)
        assert len(directives) == 1 and directives.flow.tolist() == [0]
        return directives.rate_multiplier

    def test_no_attack_no_throttle(self):
        assert self.multiplier(0.0) == 1.0

    def test_half_rate_at_strength_one(self):
        assert self.multiplier(1.0) == 0.5

    def test_tenth_rate_at_strength_nine(self):
        assert self.multiplier(9.0) == pytest.approx(0.1)

    def test_negative_strength_rejected(self):
        with pytest.raises(ParameterError):
            self.multiplier(-0.5)

    def test_non_increasing_across_strength_grid(self):
        multipliers = [self.multiplier(s / 10) for s in range(0, 200)]
        assert all(a >= b for a, b in zip(multipliers, multipliers[1:]))
        assert all(0 < m <= 1 for m in multipliers)

    def test_output_sorted_by_flow(self):
        keys = [key(3), key(0), key(1), key(2)]
        directives = throttle_directives(np.array([0, 3, 2]), key_rank(keys), keys, 1.0)
        assert directives.keys == keys and len(directives) == 3
        assert [keys[f] for f in directives.flow.tolist()] == [key(1), key(2), key(3)]


class TestVolumeExcessRatio:
    def test_excess(self):
        assert volume_excess_ratio(200, 100) == 1.0

    def test_below_mean_floors_at_zero(self):
        assert volume_excess_ratio(50, 100) == 0.0


class TestCharacterize:
    # Per-flow limits 100 +/- 30 (suspicious) and 100 +/- 60 (attack);
    # window volumes are compared with a mean of 1000.
    PROFILE = NormalProfile(protocol=ProtocolCategory.TCP, window_length=0.2,
                            training_windows=10, volume_mean=1000.0, volume_std=50.0,
                            flow_mean=5.0, flow_std=1.0, per_flow_mean=100.0, per_flow_std=10.0)

    def run(self, windows):
        """Characterize windows given as (flagged, {flow id: bytes}) pairs; a
        flagged window fired the upper volume condition.  Its lines must be
        those of the dict path."""
        verdicts = attack_verdicts(ProtocolCategory.TCP, range(len(windows)),
                                   [attacked for attacked, _ in windows])
        samples = series([{key(i): count for i, count in flows.items()} for _, flows in windows],
                         ProtocolCategory.TCP)
        assert (characterized_text(samples, verdicts, self.PROFILE)
                == reference_characterize(samples, verdicts, self.PROFILE))
        return list(characterize(samples, verdicts, self.PROFILE))

    def test_yields_flagged_windows_only(self):
        results = self.run([(False, {0: 100}), (True, {0: 100}), (False, {0: 100})])
        assert [window for window, _, _ in results] == [1]

    def test_first_window_has_no_history(self):
        ((_, (c,), directives),) = self.run([(True, {0: 500})])
        assert c.band is FlowBand.ATTACK and not c.excluded_by_history
        assert len(directives) == 0

    def test_history_from_unflagged_previous_window(self):
        ((window, classifications, _),) = self.run([(False, {0: 100}), (True, {0: 500, 1: 500})])
        bands = {c.key: (c.band, c.excluded_by_history) for c in classifications}
        assert window == 1
        assert bands == {key(0): (FlowBand.SUSPICIOUS, True), key(1): (FlowBand.ATTACK, False)}

    def test_history_from_flagged_previous_window(self):
        # Window 1's history is the flows of flagged window 0; window 2's
        # those of flagged window 1, not window 0's.
        results = self.run([(True, {0: 500}), (True, {0: 500, 1: 500}),
                            (True, {1: 500, 2: 500})])
        bands = [{c.key: (c.band, c.excluded_by_history) for c in classifications}
                 for _, classifications, _ in results]
        assert [window for window, _, _ in results] == [0, 1, 2]
        assert bands == [
            {key(0): (FlowBand.ATTACK, False)},
            {key(0): (FlowBand.SUSPICIOUS, True), key(1): (FlowBand.ATTACK, False)},
            {key(1): (FlowBand.SUSPICIOUS, True), key(2): (FlowBand.ATTACK, False)},
        ]

    def test_history_skips_to_window_before_after_gap(self):
        # Flagged window 2 follows unflagged window 1: its history is window
        # 1's flows, not those of flagged window 0.
        results = self.run([(True, {0: 500}), (False, {1: 100}), (True, {0: 500, 1: 500})])
        ((window, classifications, _),) = results[1:]
        bands = {c.key: (c.band, c.excluded_by_history) for c in classifications}
        assert window == 2
        assert bands == {key(0): (FlowBand.ATTACK, False), key(1): (FlowBand.SUSPICIOUS, True)}

    def test_flagged_window_without_flows(self):
        # A window flagged with no flow of the series, as a UDP window flagged
        # for low volume is; the next window's history is empty.
        results = self.run([(True, {}), (True, {0: 500})])
        assert [(window, len(c), len(d)) for window, c, d in results] == [(0, 0, 0), (1, 1, 0)]
        assert not next(iter(results[1][1])).excluded_by_history

    def test_exactly_suspicious_flows_throttled_sorted(self):
        # Flow 3 is history-demoted, flows 5 and 2 lie between the limits.
        ((_, classifications, directives),) = self.run([
            (False, {3: 10}),
            (True, {5: 140, 4: 100, 3: 500, 2: 150, 1: 500}),
        ])
        suspicious = {c.key for c in classifications if c.band is FlowBand.SUSPICIOUS}
        assert suspicious == {key(2), key(3), key(5)}
        assert [directives.keys[f] for f in directives.flow.tolist()] == [key(2), key(3), key(5)]
        # Volume 1390 is 39% above the mean of 1000.
        assert directives.rate_multiplier == 1 / (1 + 390 / 1000)

    def test_throttled_in_key_order_when_sources_tie(self):
        # One source address: the destination, then the ports (as numbers:
        # 9 before 10) decide the order, ICMP before TCP before UDP.
        def flow(protocol, dst, sport=0, dport=0):
            return FlowKey(protocol, "10.0.0.1", dst, sport, dport)

        tcp, udp, icmp = ProtocolCategory.TCP, ProtocolCategory.UDP, ProtocolCategory.ICMP
        keys = [flow(udp, "a", 9, 10), flow(tcp, "a", 10, 80), flow(icmp, "b"),
                flow(tcp, "a", 9, 10), flow(udp, "a", 10, 9), flow(tcp, "b", 9, 9),
                flow(icmp, "a"), flow(tcp, "a", 9, 9), flow(tcp, "a", 9, 80)]
        expected = sorted(keys, key=_flow_sort_key)
        # A sort of the same fields as text puts port 10 before port 9.
        assert expected != sorted(keys, key=lambda k: tuple(map(str, _flow_sort_key(k))))
        samples = series([dict.fromkeys(keys, 140)], None)
        profile = NormalProfile(None, 0.2, 10, 1000.0, 50.0, 5.0, 1.0, 100.0, 10.0)
        verdicts = attack_verdicts(None, [0], [True])
        assert (characterized_text(samples, verdicts, profile)
                == reference_characterize(samples, verdicts, profile))
        ((_, classifications, directives),) = characterize(samples, verdicts, profile)
        assert {c.band for c in classifications} == {FlowBand.SUSPICIOUS}
        assert [samples.keys[f] for f in directives.flow.tolist()] == expected


# --- characterize against the dict path ----------------------------------------

LENGTH = 0.2


def flow_key(i):
    """Flow i of the oracle streams: TCP, UDP and ICMP in turn."""
    protocol = list(ProtocolCategory)[i % 3]
    if protocol is ProtocolCategory.ICMP:
        return FlowKey(protocol, f"h{i}", "srv")
    return FlowKey(protocol, f"h{i}", "srv", 1000 + i, 80)


# Window w of a stream holds its list's (flow id, bytes) rows, repeats
# allowed; `flags` holds per series (in SERIES order) whether each window is
# flagged.
STREAMS = st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 400)), max_size=8),
                   min_size=1, max_size=8)
FLAGS = st.lists(st.lists(st.booleans(), min_size=8, max_size=8), min_size=4, max_size=4)


class TestCharacterizeMatchesDictPath:
    @given(STREAMS, FLAGS, st.floats(0, 300), st.floats(0, 100), st.floats(0, 1000))
    # Window 0 flagged, consecutive flagged windows with repeated rows of a
    # flow, a flagged window after a gap, and flagged windows without rows
    # of the series (the UDP window 1, every ICMP window).
    @example([[(0, 50), (1, 300), (0, 90)], [(0, 400), (3, 1), (3, 350)], [(4, 90)],
              [(1, 200), (0, 200), (1, 5)]],
             [[True, True, False, True] + [False] * 4, [True, True, True, True] + [False] * 4,
              [False, True, True, False] + [False] * 4, [True, False, True, True] + [False] * 4],
             100.0, 10.0, 300.0)
    @settings(max_examples=200, deadline=None)
    def test_lines_match(self, windows, flags, per_flow_mean, per_flow_std, volume_mean):
        events = table(Row((w + 0.5) * LENGTH, flow_key(f), count)
                       for w, rows in enumerate(windows) for f, count in rows)
        for protocol, flagged in zip(SERIES, flags):
            samples = windowize(events, LENGTH, protocol)
            profile = NormalProfile(protocol, LENGTH, 2, volume_mean, 1.0, 1.0, 1.0,
                                    per_flow_mean, per_flow_std)
            verdicts = attack_verdicts(protocol, list(samples.window_index),
                                       flagged[:len(samples)])
            assert (characterized_text(samples, verdicts, profile)
                    == reference_characterize(samples, verdicts, profile))
            limits = sigma_limits(per_flow_mean, per_flow_std)
            for (window, classifications, directives), i in zip(
                    characterize(samples, verdicts, profile),
                    np.flatnonzero(verdicts.is_attack).tolist()):
                assert window == samples.first + i
                history = reference_flows(samples, i - 1) if i else {}
                assert list(classifications) == reference_classify(
                    reference_flows(samples, i), limits, history)


class TestCharacterizePinned:
    """SHA-256 of the classification and throttle text of one varied-rate
    scenario, with its count of lines per band and history exclusion.  The
    runs reach every region between the limits: at 1 ms windows with per-flow
    limits at window scope, flows below lcl_as, between lcl_as and lcl_ss,
    within the normal band and above ucl_as; at 0.2 s at window scope, flows
    between ucl_ss and ucl_as; at 0.2 s at capture scope, every flow below
    lcl_as.  A rewrite of the banding must leave every byte in place."""

    @pytest.fixture(scope="class")
    def streams(self):
        training = generate(ScenarioConfig(ScenarioKind.ATTACK_FREE, legit_clients=8,
                                           duration=30, seed=5)).events
        attack = generate(ScenarioConfig(ScenarioKind.VARIED_RATE, legit_clients=8, zombies=16,
                                         duration=30, attack_start=10, attack_end=20,
                                         seed=6)).events
        return training, attack

    @pytest.mark.parametrize("length,scope,windows,counts,lines,throttles", [
        (0.001, "window", 3093,
         {"attack\t0": 8848, "normal\t0": 1329, "suspicious\t0": 228, "suspicious\t1": 3708},
         "90831719634a866d3d693ba48dcf43045326a1baaf3fe565a1e617f487b34005",
         "d57c921aa19b8328fbc39aba24202928db7b7c6d0fcc43b322d931546d8733f9"),
        (0.2, "capture", 50, {"attack\t0": 119, "suspicious\t1": 884},
         "6b6d1de9315b64b360c969e33188b72d0e3cd88442ade5cb17a72d2984d38f31",
         "b81bc4c2c12cad38f6824ca22c7f8e465931df6d0ea895e233cff945ff54b0c9"),
        (0.2, "window", 50, {"normal\t0": 1001, "suspicious\t0": 2},
         "7ca884ad09db455ff46ca55447a7a309d660249e2620afb07b0b2827511c8332",
         "38411f462d4d7a6949b19b38f8f4b0084fc63eb48b1bb2fd232901b3cf05ad97"),
    ], ids=["1ms-window-scope", "200ms-capture-scope", "200ms-window-scope"])
    def test_output_digests(self, streams, length, scope, windows, counts, lines, throttles):
        training, attack = streams
        profile = build_profile(windowize(training, length, None), per_flow_scope=scope)
        samples = windowize(attack, length, None)
        verdicts = detect_profiled({None: samples}, {None: profile})[None]
        out, throttle_out = io.StringIO(), io.StringIO()
        assert dump_characterization(samples, verdicts, profile, out, throttle_out) == windows
        assert Counter(line.split("\t", 7)[7] for line in out.getvalue().splitlines()) == counts
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == lines
        assert hashlib.sha256(throttle_out.getvalue().encode()).hexdigest() == throttles
