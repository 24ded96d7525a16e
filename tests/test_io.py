import pytest
from hypothesis import assume, given, settings, strategies as st

from chunked import CHUNK_SIZES, NUMERIC_TOKENS, chunk_bytes, outcome, per_line_only
from event_rows import Row, rows, table
from fvba import io as fio
from fvba.errors import OrderingError, ParameterError, ParseError
from fvba.model import FlowKey, GroundTruthLabel, NORMAL, ProtocolCategory


def events_fixture():
    k1 = FlowKey(ProtocolCategory.TCP, "c000", "srv", 40000, 80)
    k2 = FlowKey(ProtocolCategory.UDP, "z000", "srv", 50000, 9)
    k3 = FlowKey(ProtocolCategory.ICMP, "h1", "h2", 0, 0)
    return table([
        Row(0.0, k1, 1000),
        Row(0.12345678901234, k2, 1),
        Row(7.5, k3, 64),
        Row(7.5, k1, 2**63 - 1),
    ])


class TestEventFormat:
    def test_round_trip_exact(self):
        events = events_fixture()
        assert fio.load_events(fio.dump_events(events)) == events

    def test_line_layout(self):
        line = fio.dump_events(events_fixture()).splitlines()[0]
        assert line.split("\t") == ["0.0", "TCP", "c000", "40000", "srv", "80", "1000"]

    def test_malformed_column_count(self):
        with pytest.raises(ParseError, match="line 1"):
            fio.load_events("0.0\tTCP\tc0\t1\tsrv\n")

    def test_invalid_bytes_named_by_line(self):
        good = fio.dump_events(events_fixture()).splitlines()[0] + "\n"
        with pytest.raises(ParseError, match="line 2"):
            fio.load_events(good + "1.0\tTCP\tc0\t1\tsrv\t80\t0\n")

    @pytest.mark.parametrize("timestamp", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_timestamp_named_by_line(self, timestamp):
        text = f"0.0\tTCP\tc0\t1\tsrv\t80\t10\n{timestamp}\tTCP\tc0\t1\tsrv\t80\t10\n"
        with pytest.raises(ParseError, match="line 2: non-finite timestamp"):
            fio.load_events(text)

    def test_negative_timestamp_named_by_line(self):
        with pytest.raises(ParseError, match="line 1: negative timestamp: -0.5"):
            fio.load_events("-0.5\tTCP\tc0\t1\tsrv\t80\t10\n")

    def test_bytes_beyond_int64_named_by_line(self):
        line = "0.0\tTCP\tc0\t1\tsrv\t80\t{}\n"
        assert len(fio.load_events(line.format(2**63 - 1))) == 1
        with pytest.raises(ParseError, match="line 2: .*does not fit int64"):
            fio.load_events(line.format(1) + line.format(2**63))

    def test_unsorted_named_by_line(self):
        # A blank line still counts, so the late event is on line 4.
        text = ("0.5\tTCP\tc0\t1\tsrv\t80\t10\n\n"
                "0.6\tTCP\tc0\t1\tsrv\t80\t10\n0.1\tUDP\tz0\t9\tsrv\t9\t10\n")
        with pytest.raises(OrderingError, match=r"line 4: .*\(0.1 after 0.6\)"):
            fio.load_events(text)

    def test_key_errors_named_by_line_once_per_key(self):
        # The key of line 2 is known from line 1; line 3's is new and bad.
        text = ("0.0\tTCP\tc0\t1\tsrv\t80\t10\n0.1\tTCP\tc0\t1\tsrv\t80\t10\n"
                "0.2\tTCP\tc0\t1\tsrv\t99999\t10\n")
        with pytest.raises(ParseError, match="line 3: port out of range"):
            fio.load_events(text)
        with pytest.raises(ParseError, match="line 2: expected 7 columns, got 8"):
            fio.load_events("0.0\tTCP\tc0\t1\tsrv\t80\t10\n0.1\tTCP\tc0\t1\tsrv\t80\t10\t1\n")

    def test_key_spellings_intern_to_one_flow(self):
        events = fio.load_events("0.0\tTCP\tc0\t1\tsrv\t80\t10\n0.1\ttcp\tc0\t01\tsrv\t80\t20\n")
        assert len(events.keys) == 1
        assert rows(events) == [Row(0.0, events.keys[0], 10), Row(0.1, events.keys[0], 20)]

    def test_blank_lines_skipped(self):
        events = fio.load_events("\n0.0\tTCP\tc0\t1\tsrv\t80\t10\n  \n\t\t\t\t\t\t\n")
        assert len(events) == 1
        assert len(fio.load_events("")) == 0


# Odd pieces of event lines: each sends its chunk to the per-line loop,
# which accepts some and rejects others.
ODD_PROTOCOLS = st.sampled_from(["tcp", "gre", " UDP", ""])
ODD_ADDRESSES = st.sampled_from(["a b", "\u00e9", "\x00", "", "2001:db8::1"])
ODD_PORTS = st.sampled_from(["01", "65536", "-1", "x"])
TIME_FORMATS = st.sampled_from(["{!r}", "{:.25g}", "{:.3e}", "{:.3f}"])
# Line breaks besides "\n": str.splitlines splits on all of them; CR LF is one.
ODD_BREAKS = st.sampled_from(["\r\n", "\r", "\x0b", "\x1c", "\u2028", "\n\n", "\n \n"])
REGULAR_KEYS = st.sampled_from([["TCP", "c0", "40000", "srv", "80"], ["UDP", "z0", "9", "srv", "9"],
                                ["ICMP", "h1", "0", "h2", "0"], ["TCP", "c1", "40001", "srv", "80"]])


@st.composite
def event_texts(draw):
    """An event file of regular lines with odd tokens and breaks mixed in."""
    times = sorted(draw(st.lists(st.floats(0, 1e4), min_size=1, max_size=12)))
    text = ""
    for time in times:
        fields = [draw(TIME_FORMATS).format(time), *draw(REGULAR_KEYS),
                  str(draw(st.integers(1, 2**63 - 1)))]
        if draw(st.integers(0, 7)) == 0:
            position = draw(st.integers(0, 6))
            fields[position] = draw(
                NUMERIC_TOKENS if position in (0, 6) else ODD_PROTOCOLS if position == 1
                else ODD_PORTS if position in (3, 5) else ODD_ADDRESSES)
        if draw(st.integers(0, 49)) == 0:
            del fields[draw(st.integers(0, len(fields) - 1))]
        text += "\t".join(fields) + draw(
            ODD_BREAKS if draw(st.integers(0, 5)) == 0 else st.just("\n"))
    return text if draw(st.booleans()) else text.rstrip("\n")


class TestChunkedLoad:
    """The chunk decoder against the per-line loop, on lines that cross chunk ends."""

    @given(text=event_texts(), size=CHUNK_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_line_path(self, text, size):
        with per_line_only():
            expected = outcome(fio.load_events, text)
        with chunk_bytes(size):
            assert outcome(fio.load_events, text) == expected

    def test_regular_chunks_take_the_decoder(self, monkeypatch):
        monkeypatch.setattr(fio, "_parse_event_lines", None)
        events = fio.load_events("0.5\tTCP\tc0\t1\tsrv\t80\t10\n\n0.75\tudp\tz0\t9\tsrv\t9\t20\n"
                                 "0.75\ttcp\tc0\t01\tsrv\t80\t5")
        tcp = FlowKey(ProtocolCategory.TCP, "c0", "srv", 1, 80)
        udp = FlowKey(ProtocolCategory.UDP, "z0", "srv", 9, 9)
        assert events.keys == (tcp, udp)
        assert rows(events) == [Row(0.5, tcp, 10), Row(0.75, udp, 20), Row(0.75, tcp, 5)]

    def test_chunks_end_at_unified_breaks(self):
        # "\r\n" split between two blocks is one break.
        with chunk_bytes(1):
            chunks = list(fio.read_chunks([b"a\r", b"\nb\r", b"\r\n", b"c"]))
        assert b"".join(chunks) == b"a\nb\n\nc\n"
        assert all(chunk.endswith(b"\n") for chunk in chunks)
        assert list(fio.read_chunks([b"", b""])) == []

    def test_order_checked_across_chunks(self):
        text = "0.5\tTCP\tc0\t1\tsrv\t80\t10\n0.25\tTCP\tc0\t1\tsrv\t80\t10\n"
        with chunk_bytes(4), pytest.raises(OrderingError, match=r"^line 2: .*\(0.25 after 0.5\)"):
            fio.load_events(text)


# Address characters: the tab, every character str.splitlines splits on,
# and ordinary, control, space-like and astral characters that must survive.
ADDRESS_TEXT = st.text(st.sampled_from(
    "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    "aZ0 :.-_\x00\x7f\xa0\xe9\u200b\u3000\U0001f600"
), max_size=6)


class TestEventAddressRoundTrip:
    @given(st.lists(st.tuples(ADDRESS_TEXT, ADDRESS_TEXT), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_address_round_trips(self, pairs):
        keys = []
        for src, dst in pairs:
            key = FlowKey(ProtocolCategory.UDP, src, dst, 1, 2)
            try:
                key.validate()
            except ParameterError:
                continue
            if key not in keys:
                keys.append(key)
        assume(keys)
        events = table(Row(0.5 * i, k, i + 1) for i, k in enumerate(keys))
        assert fio.load_events(fio.dump_events(events)) == events


class TestTruthFormat:
    def test_round_trip(self):
        truth = {
            FlowKey(ProtocolCategory.TCP, "c000", "srv", 40000, 80): NORMAL,
            FlowKey(ProtocolCategory.UDP, "z000", "srv", 50000, 9): GroundTruthLabel("highrate"),
        }
        assert fio.load_truth(fio.dump_truth(truth)) == truth

    def test_sorted_output(self):
        truth = {
            FlowKey(ProtocolCategory.UDP, "z9", "srv", 50000, 9): GroundTruthLabel("lowrate"),
            FlowKey(ProtocolCategory.TCP, "a0", "srv", 40000, 80): NORMAL,
        }
        lines = fio.dump_truth(truth).splitlines()
        assert lines == sorted(lines)

    def test_bad_key_token(self):
        with pytest.raises(ParseError):
            fio.load_truth("TCP:a:1:b\tnormal\n")


class TestWindowTruthFormat:
    def test_round_trip(self):
        truth = {0: False, 1: True, 2: False}
        assert fio.load_window_truth(fio.dump_window_truth(truth)) == truth

    def test_label_validated(self):
        with pytest.raises(ParseError):
            fio.load_window_truth("3\tmaybe\n")
