import math

import pytest
from hypothesis import given, strategies as st

from event_rows import series
from fvba.errors import ParameterError
from fvba.model import EventTable, FlowKey, ProtocolCategory, parse_series


def key(proto=ProtocolCategory.TCP, src="a", dst="b", sport=1234, dport=80):
    return FlowKey(proto, src, dst, sport, dport)


class TestProtocolCategory:
    def test_parse(self):
        assert ProtocolCategory.parse("tcp") is ProtocolCategory.TCP
        assert ProtocolCategory.parse("ICMP") is ProtocolCategory.ICMP

    def test_parse_unknown(self):
        with pytest.raises(ParameterError):
            ProtocolCategory.parse("gre")


class TestParseSeries:
    @pytest.mark.parametrize("token", ["tcp", " TCP", "TCP ", " tcp ", "all", "Udp", "GRE", ""])
    def test_other_spellings_rejected(self, token):
        with pytest.raises(ParameterError, match="^unknown series: "):
            parse_series(token)


class TestFlowKey:
    def test_fieldwise_equality_and_hash(self):
        assert key() == key()
        assert key() != key(sport=1235)
        counts = {key(): 1}
        counts[key()] += 1
        assert counts[key()] == 2

    def test_icmp_ports_must_be_zero(self):
        FlowKey(ProtocolCategory.ICMP, "a", "b", 0, 0).validate()
        with pytest.raises(ParameterError):
            FlowKey(ProtocolCategory.ICMP, "a", "b", 8, 0).validate()

    def test_port_range(self):
        with pytest.raises(ParameterError):
            key(sport=65536).validate()

    @pytest.mark.parametrize("address", ["a\tb", "a\n", "\rb", "a\x0bb", "a\x0cb", "a\x1cb",
                                         "a\x85", "a\u2028b", "a\u2029"])
    def test_address_without_tab_or_line_break(self, address):
        with pytest.raises(ParameterError, match="tab or line break"):
            key(src=address).validate()
        with pytest.raises(ParameterError, match="tab or line break"):
            key(dst=address).validate()
        key(src="", dst="a b:c").validate()

    @pytest.mark.parametrize("address", ["a\ud800", "\udcff", "a\udfffb"])
    def test_address_without_lone_surrogate(self, address):
        # The event format is UTF-8 text, which cannot carry one.
        with pytest.raises(ParameterError, match="lone surrogate"):
            key(src=address).validate()
        with pytest.raises(ParameterError, match="lone surrogate"):
            key(dst=address).validate()
        key(src="\U0001f600").validate()


class TestEventTable:
    def test_validate(self):
        EventTable([0.0], [0], [1], [key()])
        with pytest.raises(ParameterError, match="event 1"):
            EventTable([0.0, -0.1], [0, 0], [1, 1], [key()])
        with pytest.raises(ParameterError, match="event 0"):
            EventTable([0.0], [0], [0], [key()])

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, timestamp):
        with pytest.raises(ParameterError, match="finite"):
            EventTable([0.0, timestamp], [0, 0], [1, 1], [key()])

    def test_structure_validated(self):
        with pytest.raises(ParameterError, match="flow id"):
            EventTable([0.0], [1], [1], [key()])
        with pytest.raises(ParameterError, match="one length"):
            EventTable([0.0, 1.0], [0], [1, 1], [key()])
        with pytest.raises(ParameterError, match="distinct"):
            EventTable([0.0], [0], [1], [key(), key()])
        with pytest.raises(ParameterError, match="port out of range"):
            EventTable([0.0], [0], [1], [key(sport=70000)])
        with pytest.raises(ParameterError, match="tab or line break"):
            EventTable([0.0], [0], [1], [key(src="a\nb")])

    def test_len_and_protocols(self):
        udp = key(proto=ProtocolCategory.UDP)
        events = EventTable([0.0, 0.5], [0, 0], [10, 20], [key(), udp])
        assert len(events) == 2
        # A key without events contributes no protocol.
        assert events.protocols() == {ProtocolCategory.TCP}

    def test_equality_compares_events_not_flow_ids(self):
        a, b = key(), key(sport=9)
        first = EventTable([0.0, 1.0], [0, 1], [5, 6], [a, b])
        assert first == EventTable([0.0, 1.0], [1, 0], [5, 6], [b, a])
        assert first != EventTable([0.0, 1.0], [1, 0], [5, 6], [a, b])
        assert first != EventTable([0.0, 1.0], [0, 1], [5, 7], [a, b])


class TestWindowSample:
    """One window of a `WindowSeries`: its aggregates and its flow map."""

    def test_windowized_sample_derives_aggregates(self):
        flows = {key(): 100, key(sport=9): 50}
        windows = series([flows], ProtocolCategory.TCP, first=4)
        (sample,) = windows
        assert sample == (4, 150, 2)
        assert windows.flows(0) == flows

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 10_000)), max_size=50))
    def test_aggregates_consistent_for_random_flow_sets(self, entries):
        flows = {}
        for flow_id, count in entries:
            k = key(sport=1000 + flow_id)
            flows[k] = flows.get(k, 0) + count
        windows = series([flows], ProtocolCategory.TCP, first=3)
        (sample,) = windows
        assert sample.volume == sum(flows.values())
        assert sample.flow_count == len(flows)
        assert windows.flows(0) == flows
