import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from event_rows import Row, series, table
from fvba.errors import InsufficientDataError, OrderingError, ParameterError, ParseError
from fvba.model import FlowKey, ProtocolCategory
from fvba.profiler import (
    NormalProfile,
    build_profile,
    dump_profiles,
    load_profiles,
    windowize,
)

TCP = ProtocolCategory.TCP
UDP = ProtocolCategory.UDP


def tcp_key(i):
    return FlowKey(TCP, f"h{i}", "srv", 1000 + i, 80)


def event(t, flow=0, count=100, proto=TCP):
    if proto is ProtocolCategory.ICMP:
        return Row(t, FlowKey(proto, f"h{flow}", "srv"), count)
    return Row(t, FlowKey(proto, f"h{flow}", "srv", 1000 + flow, 80), count)


def reference_windowize(events, window_length, protocol=None):
    """windowize as the per-event dict loop it replaced, kept as the oracle.

    Returns (window index, window start, volume, flow count, per-flow
    items in first-appearance order) per window of the stream's span.
    """
    first = int((events[0].timestamp + 1e-9) / window_length)
    last = int((events[-1].timestamp + 1e-9) / window_length)
    buckets = {}
    for e in events:
        if protocol is not None and e.key.protocol is not protocol:
            continue
        flows = buckets.setdefault(int((e.timestamp + 1e-9) / window_length), {})
        flows[e.key] = flows.get(e.key, 0) + e.bytes
    windows = []
    for w in range(first, last + 1):
        flows = buckets.get(w, {})
        windows.append((w, w * window_length, sum(flows.values()), len(flows), list(flows.items())))
    return windows


def observed(windows):
    """The oracle's view of windowize output, per-flow order included."""
    return [
        (w.index, w.index * windows.window_length, w.volume, w.flow_count,
         list(windows.flows(i).items()))
        for i, w in enumerate(windows)
    ]


@st.composite
def boundary_streams(draw):
    """Sorted streams with timestamps on k*L boundaries or anywhere, over
    three protocols, a few repeated flows and gaps of empty windows."""
    length = draw(st.sampled_from([0.1, 0.2, 0.25, 0.3, 1.0]))
    # k*L as a float product and as the decimal a file would carry (0.6,
    # 25.0); either may divide by L to just below k.
    on_boundary = st.integers(0, 60).flatmap(
        lambda k: st.sampled_from([k * length, round(k * length, 9)]))
    anywhere = st.floats(0, 60 * length, allow_nan=False, allow_infinity=False)
    times = sorted(draw(st.lists(st.one_of(on_boundary, anywhere), min_size=1, max_size=60)))
    events = [
        event(t, flow=draw(st.integers(0, 3)), proto=draw(st.sampled_from(list(ProtocolCategory))),
              # Beyond 2**53, where float sums lose bytes; 60 of them fit int64.
              count=draw(st.integers(1, 2**56)))
        for t in times
    ]
    return events, length


class TestWindowize:
    def test_empty_input(self):
        assert len(windowize(table([]), 0.2, TCP)) == 0

    def test_single_window_aggregation(self):
        events = [event(0.05), event(0.15)]
        samples = windowize(table(events), 0.2, TCP)
        assert list(samples) == [(0, 200, 1)]

    def test_uniform_events_resum(self):
        # Independent oracle: re-sum the event list per window bucket.
        rng = random.Random(42)
        events = sorted(
            (event(rng.uniform(0, 2.0 - 1e-9), flow=rng.randrange(10), count=rng.randint(1, 500))
             for _ in range(1000)),
            key=lambda e: e.timestamp,
        )
        samples = windowize(table(events), 0.2, TCP)
        assert len(samples) == 10
        assert sum(s.volume for s in samples) == sum(e.bytes for e in events)
        expected = [0] * 10
        for e in events:
            expected[int((e.timestamp + 1e-9) / 0.2)] += e.bytes
        assert [s.volume for s in samples] == expected

    def test_each_event_in_exactly_one_window(self):
        events = [event(t / 10) for t in range(25)]
        samples = windowize(table(events), 0.2, TCP)
        assert sum(s.volume for s in samples) == 2500

    def test_empty_windows_included(self):
        events = [event(0.1), event(1.1)]
        samples = windowize(table(events), 0.2, TCP)
        assert [s.index for s in samples] == [0, 1, 2, 3, 4, 5]
        assert [s.volume for s in samples] == [100, 0, 0, 0, 0, 100]

    def test_span_covers_all_protocols(self):
        # The UDP series spans the same windows as the stream even where
        # only TCP traffic exists, so series indices stay aligned.
        events = [event(0.1, proto=TCP), event(0.5, proto=UDP), event(0.9, proto=TCP)]
        udp = windowize(table(events), 0.2, UDP)
        assert [s.index for s in udp] == [0, 1, 2, 3, 4]
        assert [s.volume for s in udp] == [0, 0, 100, 0, 0]

    def test_aggregate_series(self):
        events = [event(0.1, proto=TCP), event(0.15, proto=UDP)]
        samples = windowize(table(events), 0.2)
        assert samples.protocol is None
        assert list(samples) == [(0, 200, 2)]

    def test_unsorted_rejected(self):
        with pytest.raises(OrderingError):
            windowize(table([event(1.0), event(0.5)]), 0.2, TCP)

    def test_unsorted_names_first_late_event(self):
        events = table([event(0.0), event(1.0), event(1.0), event(0.5), event(0.1)])
        with pytest.raises(OrderingError, match=r"event 3: .*\(0.5 after 1.0\)"):
            windowize(events, 0.2)

    def test_byte_total_beyond_int64_rejected(self):
        events = table([event(0.0, count=2**62), event(0.1, count=2**62 - 1)])
        assert windowize(events, 0.2).volume.tolist() == [2**63 - 1]
        with pytest.raises(ParameterError, match="int64"):
            windowize(table([event(0.0, count=2**62)] * 2), 0.2)

    def test_bad_window_length(self):
        with pytest.raises(ParameterError):
            windowize(table([event(0.1)]), 0.0, TCP)

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_non_finite_window_length(self, length):
        with pytest.raises(ParameterError, match="positive and finite"):
            windowize(table([event(0.1)]), length, TCP)

    def test_window_count_bounded_before_allocation(self):
        with pytest.raises(ParameterError, match=r"span 0.0 to 1000000000000000.0 s, 5000000000000001 windows"):
            windowize(table([event(0.0), event(0.1), event(1e15)]), 0.2)
        with pytest.raises(ParameterError, match="windows"):
            windowize(table([event(0.0), event(1e300)]), 0.2)

    @pytest.mark.parametrize("timestamp,length", [(1e300, 0.2), (0.0, 1e-300)])
    def test_window_index_beyond_int64_rejected(self, timestamp, length):
        message = f"the window index of timestamp {timestamp!r} s at {length!r} s windows"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)} does not fit int64$"):
            windowize(table([event(timestamp)]), length)

    def test_day_long_capture_at_default_window_admitted(self):
        samples = windowize(table([event(0.0), event(86_400.0 - 0.1)]), 0.2)
        assert len(samples) == 432_000
        assert samples.volume[-1] == 100

    def test_boundary_timestamp_bins_right(self):
        # 25.0 / 0.2 evaluates just below 125 in floats; the event must
        # still land in window 125.
        samples = windowize(table([event(0.0), event(25.0)]), 0.2, TCP)
        assert samples.window_index[-1] == 125
        assert samples.volume[-1] == 100

    @given(boundary_streams())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_loop_oracle(self, stream):
        events, length = stream
        for protocol in (None, *ProtocolCategory):
            samples = windowize(table(events), length, protocol)
            assert observed(samples) == reference_windowize(events, length, protocol)


class TestBuildProfile:
    def make_samples(self, volumes, proto=TCP):
        return series([{tcp_key(0): v} if v else {} for v in volumes], proto)

    def test_constant_series(self):
        profile = build_profile(self.make_samples([100, 100, 100]))
        assert profile.volume_mean == 100
        assert profile.volume_std == 0

    def test_two_point_population_std(self):
        profile = build_profile(self.make_samples([90, 110]))
        assert profile.volume_mean == 100
        assert profile.volume_std == 10

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            build_profile(self.make_samples([100]))

    def test_poisson_windows_match_two_pass_oracle(self):
        rng = random.Random(7)
        events = sorted(
            (event(rng.uniform(0, 10.0), flow=rng.randrange(25), count=rng.randint(40, 4000),
                   proto=rng.choice([TCP, TCP, UDP]))
             for _ in range(6000)),
            key=lambda e: e.timestamp,
        )
        samples = windowize(table(events), 0.2, TCP)
        assert len(samples) == 50
        oracle = reference_windowize(events, 0.2, TCP)
        assert observed(samples) == oracle
        profile = build_profile(samples)

        volumes = [volume for _, _, volume, _, _ in oracle]
        counts = [count for _, _, _, count, _ in oracle]

        def two_pass(values):
            mean = sum(values) / len(values)
            return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

        vm, vs = two_pass(volumes)
        fm, fs = two_pass(counts)
        assert profile.volume_mean == pytest.approx(vm, rel=1e-9)
        assert profile.volume_std == pytest.approx(vs, rel=1e-9)
        assert profile.flow_mean == pytest.approx(fm, rel=1e-9)
        assert profile.flow_std == pytest.approx(fs, rel=1e-9)

        totals = {}
        for e in events:
            if e.key.protocol is TCP:
                totals[e.key] = totals.get(e.key, 0) + e.bytes
        pm, ps = two_pass(list(totals.values()))
        assert profile.per_flow_mean == pytest.approx(pm, rel=1e-9)
        assert profile.per_flow_std == pytest.approx(ps, rel=1e-9)

    def test_window_scope_per_flow_stats(self):
        samples = series([{tcp_key(0): 100, tcp_key(1): 300}, {tcp_key(0): 100}], TCP)
        capture = build_profile(samples, per_flow_scope="capture")
        window = build_profile(samples, per_flow_scope="window")
        assert capture.per_flow_mean == 250  # totals {200, 300}
        assert window.per_flow_mean == pytest.approx(500 / 3)  # {100, 300, 100}

    def test_unknown_scope(self):
        with pytest.raises(ParameterError):
            build_profile(self.make_samples([1, 2]), per_flow_scope="lifetime")


events_strategy = st.lists(
    st.tuples(
        st.floats(0, 5, allow_nan=False, allow_infinity=False),
        st.integers(0, 8),
        st.integers(1, 1000),
    ),
    min_size=5,
    max_size=80,
)


class TestProfileProperties:
    @staticmethod
    def _with_anchors(raw):
        # Anchor events guarantee at least two windows at length 0.5.
        events = [event(t, f, b) for t, f, b in raw] + [event(0.0, 0, 10), event(1.0, 1, 10)]
        return sorted(events, key=lambda e: e.timestamp)

    @given(events_strategy, st.integers(2, 7))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, raw, c):
        events = self._with_anchors(raw)
        scaled = [Row(e.timestamp, e.key, e.bytes * c) for e in events]
        base = build_profile(windowize(table(events), 0.5, TCP))
        big = build_profile(windowize(table(scaled), 0.5, TCP))
        assert big.volume_mean == pytest.approx(c * base.volume_mean, rel=1e-12)
        assert big.volume_std == pytest.approx(c * base.volume_std, rel=1e-9, abs=1e-9)
        assert big.per_flow_mean == pytest.approx(c * base.per_flow_mean, rel=1e-12)
        assert big.per_flow_std == pytest.approx(c * base.per_flow_std, rel=1e-9, abs=1e-9)
        assert big.flow_mean == base.flow_mean
        assert big.flow_std == base.flow_std

    @given(events_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_equal_timestamp_permutation_invariance(self, raw, rng):
        events = self._with_anchors(raw)
        # Shuffle within equal-timestamp runs only.
        groups: dict[float, list] = {}
        for e in events:
            groups.setdefault(e.timestamp, []).append(e)
        permuted = []
        for t in sorted(groups):
            block = list(groups[t])
            rng.shuffle(block)
            permuted.extend(block)
        assert build_profile(windowize(table(events), 0.5, TCP)) == build_profile(
            windowize(table(permuted), 0.5, TCP)
        )

    def test_equal_timestamp_order_does_not_move_capture_statistics(self):
        # The events at 1.0, of flows h2 and h1, number those flows in
        # either order; per_flow_std once differed in its last bit.
        events = self._with_anchors([(0.0, 0, 1), (0.0, 0, 1), (0.0, 0, 8), (1.0, 2, 1),
                                     (2.0, 0, 4)])
        swapped = events[:4] + [events[5], events[4]] + events[6:]
        assert [e.timestamp for e in swapped] == [e.timestamp for e in events]
        assert build_profile(windowize(table(events), 0.5, TCP)) == build_profile(
            windowize(table(swapped), 0.5, TCP)
        )


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(0, allow_infinity=False)


@st.composite
def profile_sets(draw):
    """Profiles of distinct series, with any values `NormalProfile` accepts."""
    series = draw(st.lists(st.sampled_from([*ProtocolCategory, None]), unique=True, min_size=1))
    return [NormalProfile(protocol, draw(FINITE), draw(st.integers(2, 2**70)),
                          *(draw(NON_NEGATIVE) for _ in range(4)), draw(FINITE),
                          draw(NON_NEGATIVE))
            for protocol in series]


class TestProfileSerialization:
    @given(profile_sets())
    def test_every_profile_round_trips(self, profiles):
        assert load_profiles(dump_profiles(profiles)) == {p.protocol: p for p in profiles}

    def test_round_trip_is_exact(self):
        events = [event(t / 7, flow=t % 3, count=37 + t) for t in range(40)]
        profiles = [
            build_profile(windowize(table(events), 0.3, TCP)),
            build_profile(windowize(table(events), 0.3)),
        ]
        loaded = load_profiles(dump_profiles(profiles))
        assert loaded[TCP] == profiles[0]
        assert loaded[None] == profiles[1]

    def test_version_required(self):
        with pytest.raises(ParseError):
            load_profiles("protocol=TCP\nwindow_length=0.2\n")

    def test_missing_field(self):
        text = dump_profiles(
            [NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        ).replace("flow_std=4.0\n", "")
        with pytest.raises(ParseError):
            load_profiles(text)

    @pytest.mark.parametrize("field", ["volume_std", "flow_mean", "per_flow_std", "window_length"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_statistic_names_block(self, field, value):
        profiles = [NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                    NormalProfile(UDP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        lines = dump_profiles(profiles).splitlines()
        bad = lines.index(f"{field}=" + repr(getattr(profiles[1], field)), 12)
        lines[bad] = f"{field}={value}"
        with pytest.raises(ParseError, match=rf"line 13: bad profile block: {field} must be finite"):
            load_profiles("\n".join(lines))

    def test_malformed_number_names_block(self):
        text = dump_profiles([NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)])
        with pytest.raises(ParseError, match="line 3: bad profile block"):
            load_profiles(text.replace("flow_std=4.0", "flow_std=four"))

    def test_non_finite_profile_rejected(self):
        with pytest.raises(ParameterError, match="volume_std must be finite"):
            NormalProfile(TCP, 0.2, 10, 1.0, math.nan, 3.0, 4.0, 5.0, 6.0)

    def test_repeated_field_names_line(self):
        text = dump_profiles([NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)])
        text = text.replace("volume_mean=1.0\n", "volume_mean=1.0\nvolume_mean=7.0\n")
        with pytest.raises(ParseError, match="line 7: repeated field 'volume_mean'"):
            load_profiles(text)

    @pytest.mark.parametrize("line", ["bogus=3", "version=1"])
    def test_unknown_field_names_line(self, line):
        # A version line opens the first block only.
        text = dump_profiles([NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)])
        text = text.replace("flow_std=4.0\n", f"flow_std=4.0\n{line}\n")
        name = line.split("=")[0]
        with pytest.raises(ParseError, match=f"line 10: unknown profile field '{name}'"):
            load_profiles(text)

    @pytest.mark.parametrize("windows", [-3, 0, 1])
    def test_fewer_than_two_training_windows_rejected(self, windows):
        with pytest.raises(ParameterError, match="training_windows must be at least 2"):
            NormalProfile(TCP, 0.2, windows, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        text = dump_profiles([NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)])
        with pytest.raises(ParseError, match="line 3: bad profile block: training_windows must"):
            load_profiles(text.replace("training_windows=10", f"training_windows={windows}"))

    @pytest.mark.parametrize("field,value", [
        ("training_windows", "1_0"), ("training_windows", "+10"), ("training_windows", "10.0"),
        ("volume_mean", "+1_0.5"), ("volume_mean", "1 0"), ("window_length", "0,2"),
    ])
    def test_number_spellings_name_block(self, field, value):
        profiles = [NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        text = dump_profiles(profiles).replace(f"{field}={getattr(profiles[0], field)!r}\n",
                                               f"{field}={value}\n")
        with pytest.raises(ParseError, match=(f"^line 3: bad profile block: malformed {field}:"
                                              f" {re.escape(repr(value))}$")):
            load_profiles(text)

    @pytest.mark.parametrize("text", ["version=1\n", "version=1\n\n \n"])
    def test_no_profile_block_rejected(self, text):
        with pytest.raises(ParseError, match="^the profile document holds no profile block$"):
            load_profiles(text)

    def test_first_block_with_fields_but_no_protocol_rejected(self):
        full = dump_profiles([NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)])
        text = ("version=1\nvolume_mean=99.0\ntraining_windows=1_0\n\n"
                + full.removeprefix("version=1\n\n"))
        with pytest.raises(ParseError, match="^line 1: profile block missing field 'protocol'$"):
            load_profiles(text)

    @pytest.mark.parametrize("token", ["tcp", "Tcp", "all", "GRE"])
    def test_protocol_spelled_as_written(self, token):
        text = dump_profiles([NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)])
        with pytest.raises(ParseError, match=f"^line 3: bad profile block: unknown series: '{token}'$"):
            load_profiles(text.replace("protocol=TCP", f"protocol={token}"))

    def test_duplicate_block_rejected(self):
        profile = NormalProfile(TCP, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        with pytest.raises(ParseError):
            load_profiles(dump_profiles([profile]) + "\n" + dump_profiles([profile]).split("\n", 2)[2])
