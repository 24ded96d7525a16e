import gzip
import math
import re
import tracemalloc
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chunked import CHUNK_SIZES, chunk_bytes, file_layout
from event_rows import Row, event_text, rows, table
from fvba import io as fio
from fvba.errors import OrderingError, ParameterError, ParseError
from fvba.model import NORMAL_LABEL, EventTable, FlowKey, ProtocolCategory


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
        assert fio.load_events([event_text(events)]) == events

    def test_line_layout(self):
        line = event_text(events_fixture()).splitlines()[0]
        assert line.split("\t") == ["0.0", "TCP", "c000", "40000", "srv", "80", "1000"]

    def test_malformed_column_count(self):
        with pytest.raises(ParseError, match="line 1"):
            fio.load_events(["0.0\tTCP\tc0\t1\tsrv\n"])

    def test_invalid_bytes_named_by_line(self):
        good = event_text(events_fixture()).splitlines()[0] + "\n"
        with pytest.raises(ParseError, match="line 2"):
            fio.load_events([good + "1.0\tTCP\tc0\t1\tsrv\t80\t0\n"])

    @pytest.mark.parametrize("timestamp", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_timestamp_named_by_line(self, timestamp):
        text = f"0.0\tTCP\tc0\t1\tsrv\t80\t10\n{timestamp}\tTCP\tc0\t1\tsrv\t80\t10\n"
        with pytest.raises(ParseError, match="line 2: non-finite timestamp"):
            fio.load_events([text])

    def test_negative_timestamp_named_by_line(self):
        with pytest.raises(ParseError, match="line 1: negative timestamp: -0.5"):
            fio.load_events(["-0.5\tTCP\tc0\t1\tsrv\t80\t10\n"])

    def test_bytes_beyond_int64_named_by_line(self):
        line = "0.0\tTCP\tc0\t1\tsrv\t80\t{}\n"
        assert len(fio.load_events([line.format(2**63 - 1)])) == 1
        with pytest.raises(ParseError, match="line 2: .*does not fit int64"):
            fio.load_events([line.format(1) + line.format(2**63)])
        # 19 digits that fit uint64 but not int64, and 20 digits.
        for count in ("9999999999999999999", "18446744073709551616"):
            with pytest.raises(ParseError, match=f"^line 1: .*does not fit int64: {count}$"):
                fio.load_events([line.format(count)])

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 7.5]) | st.floats(0, 1e300),
                              st.integers(0, 2), st.integers(1, 2**63 - 1)), max_size=12))
    def test_every_accepted_table_round_trips(self, events):
        # Sorted, with ties kept in their drawn order, as EventTable requires.
        events.sort(key=lambda event: event[0])
        keys = [FlowKey(ProtocolCategory.TCP, "c", "srv", port, 80) for port in range(3)]
        table_in = EventTable([t for t, _, _ in events], [f for _, f, _ in events],
                              [b for _, _, b in events], keys)
        assert fio.load_events([event_text(table_in)]) == table_in

    def test_unsorted_named_by_line(self):
        # A blank line still counts, so the late event is on line 4.
        text = ("0.5\tTCP\tc0\t1\tsrv\t80\t10\n\n"
                "0.6\tTCP\tc0\t1\tsrv\t80\t10\n0.1\tUDP\tz0\t9\tsrv\t9\t10\n")
        with pytest.raises(OrderingError, match=r"line 4: .*\(0.1 after 0.6\)"):
            fio.load_events([text])

    def test_key_errors_named_by_line_once_per_key(self):
        # The key of line 2 is known from line 1; line 3's is new and bad.
        text = ("0.0\tTCP\tc0\t1\tsrv\t80\t10\n0.1\tTCP\tc0\t1\tsrv\t80\t10\n"
                "0.2\tTCP\tc0\t1\tsrv\t99999\t10\n")
        with pytest.raises(ParseError, match="line 3: port out of range"):
            fio.load_events([text])
        with pytest.raises(ParseError, match="line 2: expected 7 columns, got 8"):
            fio.load_events(["0.0\tTCP\tc0\t1\tsrv\t80\t10\n0.1\tTCP\tc0\t1\tsrv\t80\t10\t1\n"])

    def test_first_bad_line_named_whatever_its_fault(self):
        # Keys are checked before byte counts, yet line 2's count is named.
        text = ("0.0\tTCP\tc0\t1\tsrv\t80\t10\n0.1\tTCP\tc0\t1\tsrv\t80\tx\n"
                "0.2\tgre\tc0\t1\tsrv\t80\t10\n")
        with pytest.raises(ParseError, match="^line 2: malformed event byte count: 'x'$"):
            fio.load_events([text])

    def test_key_spellings_intern_to_one_flow(self):
        events = fio.load_events(["0.0\tTCP\tc0\t1\tsrv\t80\t10\n0.1\ttcp\tc0\t01\tsrv\t80\t20\n"])
        assert len(events.keys) == 1
        assert rows(events) == [Row(0.0, events.keys[0], 10), Row(0.1, events.keys[0], 20)]

    def test_paths_and_gzip_read_as_lines(self, tmp_path):
        events = events_fixture()
        text = event_text(events)
        plain, packed = tmp_path / "events.tsv", tmp_path / "events.tsv.gz"
        plain.write_text(text)
        packed.write_bytes(gzip.compress(text.encode()))
        assert fio.load_events(plain) == fio.load_events(str(packed)) == events
        # An item of several lines reads as those lines.
        assert fio.load_events(text.splitlines()) == fio.load_events([text]) == events

    def test_truncated_gzip_names_the_file(self, tmp_path):
        path = tmp_path / "events.tsv.gz"
        data = gzip.compress(event_text(events_fixture()).encode() * 200)
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError, match=f"^{path}: corrupt or truncated gzip data"):
            fio.load_events(path)

    def test_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "events.tsv"
        good = "0.0\tTCP\tc0\t1\tsrv\t80\t10\n".encode()
        path.write_bytes(good + good.replace(b"c0", b"c\xff") + good)
        with pytest.raises(ParseError, match="^line 2: not UTF-8: byte 0xff$"):
            fio.load_events(path)
        # A lone surrogate of a line is encoded as it is, and rejected.
        with pytest.raises(ParseError, match="^line 1: not UTF-8: byte 0xed$"):
            fio.load_events(["0.0\tTCP\tc\ud800\t1\tsrv\t80\t10"])

    def test_file_closed_when_a_bad_line_stops_the_read(self, tmp_path, monkeypatch):
        path = tmp_path / "events.tsv"
        path.write_text("0.0\tTCP\tc0\t1\tsrv\t80\t10\nx\n" * 100)
        handles = []
        monkeypatch.setattr(fio, "open", lambda *args: handles.append(open(*args)) or handles[-1],
                            raising=False)
        with chunk_bytes(64), pytest.raises(ParseError, match="^line 2: ") as error:
            fio.load_events(path)
        # `error` holds the traceback, and with it the reading frames; the
        # file is closed all the same.
        assert error.tb is not None
        assert handles[0].closed

    def test_blank_lines_skipped(self):
        events = fio.load_events(["\n0.0\tTCP\tc0\t1\tsrv\t80\t10\n\n"])
        assert len(events) == 1
        assert len(fio.load_events([""])) == 0
        # Only an empty line is blank.
        with pytest.raises(ParseError, match="^line 2: expected 7 columns, got 1$"):
            fio.load_events(["0.0\tTCP\tc0\t1\tsrv\t80\t10\n  \n"])
        with pytest.raises(ParseError, match="^line 1: unknown protocol category: ''"):
            fio.load_events(["\t\t\t\t\t\t\n"])


class Writes:
    """A text handle that keeps only the size of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return len(text)


class TestEventWriter:
    @pytest.mark.parametrize("size", [1, 3, 4, 9, 10, 11])
    def test_slices_write_the_per_row_text(self, monkeypatch, size):
        keys = [FlowKey(ProtocolCategory.TCP, "c0", "srv", 1, 80),
                FlowKey(ProtocolCategory.UDP, "z\u00e9", "srv", 9, 9)]
        events = table(Row(0.1 * i, keys[i % 3 == 0], 2**62 + i) for i in range(10))
        # The text as it was formatted before slices, one row at a time.
        expected = "".join(
            f"{e.timestamp!r}\t{e.key.protocol}\t{e.key.src_addr}\t{e.key.src_port}"
            f"\t{e.key.dst_addr}\t{e.key.dst_port}\t{e.bytes}\n" for e in rows(events))
        monkeypatch.setattr(fio, "DUMP_ROWS", size)
        assert event_text(events) == expected
        handle = Writes()
        fio.dump_events(events, handle)
        assert len(handle.sizes) == -(-10 // size)
        assert event_text(table([])) == ""

    def test_memory_held_is_one_slice(self):
        count = 200_000
        keys = [FlowKey(ProtocolCategory.TCP, f"c{i:03d}", "srv", 40000 + i, 80) for i in range(40)]
        events = EventTable(np.arange(count) * 0.000375 + 0.123456789, np.arange(count) % 40,
                            np.full(count, 12_500), keys)
        handle = Writes()
        tracemalloc.start()
        try:
            fio.dump_events(events, handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 8.6 MB of text; a slice's rows, lines and text take about 0.2 MB.
        assert sum(handle.sizes) > 8_000_000
        assert peak < 400_000


# Address characters: the tab, every character str.splitlines splits on,
# a lone surrogate, and ordinary, control, space-like and astral characters
# that must survive.
ADDRESS_TEXT = st.text(st.sampled_from(
    "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ud800"
    "aZ0 :.-_\x00\x7f\xa0\xe9\u200b\u3000\U0001f600"
), max_size=6)


PROTOCOL_SPELLINGS = {
    ProtocolCategory.TCP: ["TCP", "tcp", " Tcp"],
    ProtocolCategory.UDP: ["UDP", "udp"],
    ProtocolCategory.ICMP: ["ICMP", "icmp"],
}
TIME_FORMATS = st.sampled_from(["{!r}", "{:.25g}", "{:.3e}", "{:.3E}", "{:.3f}", "+{!r}"])


@st.composite
def event_keys(draw):
    """A flow key that `FlowKey.validate` accepts."""
    protocol = draw(st.sampled_from(list(ProtocolCategory)))
    ports = (st.just(0) if protocol is ProtocolCategory.ICMP else st.integers(0, 65535))
    key = FlowKey(protocol, draw(ADDRESS_TEXT), draw(ADDRESS_TEXT), draw(ports), draw(ports))
    try:
        return key.validate()
    except ParameterError:
        return FlowKey(protocol, "a", "b", key.src_port, key.dst_port)


@st.composite
def event_lines(draw, min_size=1):
    """Valid event lines in odd but accepted spellings, and the events they hold."""
    keys = draw(st.lists(event_keys(), min_size=1, max_size=4))
    events = []
    for _ in range(draw(st.integers(min_size, 10))):
        timestamp = draw(TIME_FORMATS).format(draw(st.floats(0, 1e4)))
        count = draw(st.integers(1, 2**63 - 1))
        events.append((float(timestamp), timestamp, draw(st.sampled_from(keys)), count))
    events.sort(key=lambda event: event[0])
    lines = []
    for _, timestamp, key, count in events:
        ports = [str(port).zfill(draw(st.integers(1, 3))) for port in (key.src_port, key.dst_port)]
        lines.append("\t".join([
            timestamp, draw(st.sampled_from(PROTOCOL_SPELLINGS[key.protocol])), key.src_addr,
            ports[0], key.dst_addr, ports[1], str(count).zfill(draw(st.integers(1, 19))),
        ]))
    return lines, [Row(value, key, count) for value, _, key, count in events]


# (column, token, start of the message) of one bad field; column None
# replaces the whole line, column "pad" wraps it in the token.  A lone
# surrogate reaches the decoder as the three bytes that encode it.
EVENT_MUTATIONS = st.sampled_from([
    (0, "nan", "non-finite timestamp"), (0, "1e999", "non-finite timestamp"),
    (0, "-1", "negative timestamp"), (0, " 0.5", "malformed timestamp"),
    (0, "1_0", "malformed timestamp"), (0, "0.5\x0b", "malformed timestamp"),
    (0, "0.5\x00", "malformed timestamp"), (0, "", "malformed timestamp"),
    (0, "1e", "malformed timestamp"), (0, "0x10", "malformed timestamp"),
    (1, "gre", "unknown protocol category"), (3, "x", "malformed port: 'x'"),
    (3, "1_0", "malformed port: '1_0'"), (5, "+10", "malformed port: '+10'"),
    (5, " 10", "malformed port: ' 10'"),
    (3, "65536", "port out of range"), (2, "a\x0bb", "flow address holds a tab or line break"),
    (6, "+100", "malformed event byte count"), (6, "1_00", "malformed event byte count"),
    (6, "100 ", "malformed event byte count"), (6, "1.5", "malformed event byte count"),
    (6, "", "malformed event byte count"), (6, "0", "event byte count must be >= 1"),
    (6, "9223372036854775808", "event byte count does not fit int64"),
    (6, "99999999999999999999", "event byte count does not fit int64"),
    (None, " ", "expected 7 columns, got 1"), (None, "\t" * 7, "expected 7 columns, got 8"),
    ("pad", " ", "malformed timestamp"), (4, "s\udcffv", "not UTF-8: byte 0xed"),
    (6, "\ud800", "not UTF-8: byte 0xed"),
])


class TestChunkedLoad:
    """The chunk decoder on lines that cross chunk ends, against an oracle."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("events") / "events.tsv"

    @given(data=st.data(), size=CHUNK_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_valid_lines_match_oracle(self, path, data, size):
        lines, events = data.draw(event_lines())
        text, _ = data.draw(file_layout(lines))
        path.write_bytes(text.encode())
        with chunk_bytes(size):
            for source in ([text], path):
                loaded = fio.load_events(source)
                assert rows(loaded) == events
                assert loaded.keys == tuple(dict.fromkeys(event.key for event in events))

    @given(data=st.data(), size=CHUNK_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_first_bad_line_named(self, path, data, size):
        lines, _ = data.draw(event_lines())
        bad = data.draw(st.integers(0, len(lines) - 1))
        # Maybe a second bad line after the first, of any fault.
        for index in {bad, data.draw(st.integers(bad, len(lines) - 1))}:
            column, token, message = data.draw(EVENT_MUTATIONS)
            if index == bad:
                expected = message
            if column is None:
                lines[index] = token
            elif column == "pad":
                lines[index] = token + lines[index] + token
            else:
                fields = lines[index].split("\t")
                fields[column] = token
                lines[index] = "\t".join(fields)
        text, numbers = data.draw(file_layout(lines))
        # From a file, so that `size`-byte reads split the lines across chunks.
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        with chunk_bytes(size), pytest.raises(ParseError) as error:
            fio.load_events(path)
        assert str(error.value).startswith(f"line {numbers[bad]}: {expected}")

    @given(data=st.data(), size=CHUNK_SIZES)
    @settings(max_examples=50, deadline=None)
    def test_first_unsorted_line_named(self, path, data, size):
        lines, events = data.draw(event_lines(min_size=2))
        late = data.draw(st.integers(1, len(lines) - 1))
        assume(events[late - 1].timestamp > 0)
        lines[late] = "0" + lines[late][lines[late].index("\t"):]
        text, numbers = data.draw(file_layout(lines))
        path.write_bytes(text.encode())
        with chunk_bytes(size), pytest.raises(OrderingError, match=rf"^line {numbers[late]}: "):
            fio.load_events(path)

    def test_regular_chunks_take_the_decoder(self):
        events = fio.load_events(["0.5\tTCP\tc0\t1\tsrv\t80\t10\n\n0.75\tudp\tz0\t9\tsrv\t9\t20\n"
                                  "0.75\ttcp\tc0\t01\tsrv\t80\t5"])
        tcp = FlowKey(ProtocolCategory.TCP, "c0", "srv", 1, 80)
        udp = FlowKey(ProtocolCategory.UDP, "z0", "srv", 9, 9)
        assert events.keys == (tcp, udp)
        assert rows(events) == [Row(0.5, tcp, 10), Row(0.75, udp, 20), Row(0.75, tcp, 5)]

    def test_long_lines_decode_alone(self):
        # A line beyond fio._MAX_LINE bytes gets a chunk of its own.
        wide = FlowKey(ProtocolCategory.TCP, "w" * 1000, "srv", 1, 80)
        short = FlowKey(ProtocolCategory.UDP, "z0", "srv", 9, 9)
        events = table([Row(0.0, short, 5), Row(0.1, wide, 6), Row(0.2, short, 7)])
        text = event_text(events)
        assert list(fio.read_chunks([text.encode()])) == [
            ((line + "\n").encode(), 1) for line in text.splitlines()]
        assert fio.load_events([text]) == events
        with pytest.raises(ParseError, match="^line 2: malformed event byte count"):
            fio.load_events([text.replace("\t6\n", "\t6 \n")])

    def test_chunks_end_at_unified_breaks(self):
        # "\r\n" split between two blocks is one break.
        with chunk_bytes(1):
            chunks = list(fio.read_chunks([b"a\r", b"\nb\r", b"\r\n", b"c"]))
        assert b"".join(chunk for chunk, _ in chunks) == b"a\nb\n\nc\n"
        assert all(chunk.endswith(b"\n") and lines == chunk.count(b"\n")
                   for chunk, lines in chunks)
        assert list(fio.read_chunks([b"", b""])) == []

    def test_order_checked_across_chunks(self, path):
        path.write_bytes(b"0.5\tTCP\tc0\t1\tsrv\t80\t10\n0.25\tTCP\tc0\t1\tsrv\t80\t10\n")
        with chunk_bytes(4), pytest.raises(OrderingError, match=r"^line 2: .*\(0.25 after 0.5\)"):
            fio.load_events(path)


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
        assert fio.load_events([event_text(events)]) == events


class TestTruthFormat:
    @given(st.lists(st.tuples(ADDRESS_TEXT, ADDRESS_TEXT), min_size=1, max_size=6),
           st.sampled_from([NORMAL_LABEL, "highrate", "low rate"]))
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_address_round_trips(self, pairs, label):
        truth = {}
        for src, dst in pairs:
            key = FlowKey(ProtocolCategory.UDP, src, dst, 1, 2)
            try:
                truth[key.validate()] = label
            except ParameterError:
                continue
        assert fio.load_truth(fio.dump_truth(truth)) == truth

    def test_key_columns_of_the_event_format(self):
        key = FlowKey(ProtocolCategory.TCP, "2001:db8::1", "srv", 1, 80)
        text = fio.dump_truth({key: NORMAL_LABEL})
        assert text == "TCP\t2001:db8::1\t1\tsrv\t80\tnormal\n"
        assert fio.load_truth(text) == {key: NORMAL_LABEL}
        assert fio.load_truth("tcp\t2001:db8::1\t01\tsrv\t80\tnormal\n") == {key: NORMAL_LABEL}
        with pytest.raises(ParseError, match="^line 2: port out of range"):
            fio.load_truth(text + "TCP\ta\t1\tb\t65536\tnormal\n")

    def test_round_trip(self):
        truth = {
            FlowKey(ProtocolCategory.TCP, "c000", "srv", 40000, 80): NORMAL_LABEL,
            FlowKey(ProtocolCategory.UDP, "z000", "srv", 50000, 9): "highrate",
        }
        assert fio.load_truth(fio.dump_truth(truth)) == truth

    def test_sorted_output(self):
        truth = {
            FlowKey(ProtocolCategory.UDP, "z9", "srv", 50000, 9): "lowrate",
            FlowKey(ProtocolCategory.TCP, "a0", "srv", 40000, 80): NORMAL_LABEL,
        }
        lines = fio.dump_truth(truth).splitlines()
        assert lines == sorted(lines)

    def test_bad_key_token(self):
        with pytest.raises(ParseError):
            fio.load_truth("TCP:a:1:b\tnormal\n")

    def test_labels_are_strings(self):
        normal = FlowKey(ProtocolCategory.TCP, "a", "b", 1, 2)
        attack = FlowKey(ProtocolCategory.UDP, "z", "b", 1, 2)
        text = "TCP\ta\t1\tb\t2\tnormal\nUDP\tz\t1\tb\t2\tsmurf\n"
        assert fio.load_truth(text) == {normal: NORMAL_LABEL, attack: "smurf"}
        assert fio.dump_truth(fio.load_truth(text)) == text

    @pytest.mark.parametrize("label", ["Smurf", "Normal", "NORMAL", " normal", "smurf ", "smurf\x0b",
                                       ""])
    def test_label_spelling_named_by_line(self, label):
        with pytest.raises(ParseError, match=(
                "^line 2: label must be 'normal' or a lowercase attack name without padding,"
                f" got {re.escape(repr(label))}$")):
            fio.load_truth(f"TCP\ta\t1\tb\t2\tnormal\nUDP\tz\t1\tb\t2\t{label}\n")

    def test_repeated_flow_named_by_line(self):
        with pytest.raises(ParseError, match=r"^line 2: flow 'tcp\\ta\\t1\\tb\\t2' given twice$"):
            fio.load_truth("TCP\ta\t1\tb\t2\tnormal\ntcp\ta\t1\tb\t2\thighrate\n")


class TestWindowTruthFormat:
    @given(st.dictionaries(st.integers(-2**63, 2**63 - 1), st.booleans()))
    def test_every_mapping_round_trips(self, truth):
        assert fio.load_window_truth(fio.dump_window_truth(truth)) == truth

    def test_round_trip(self):
        truth = {0: False, 1: True, 2: False}
        assert fio.load_window_truth(fio.dump_window_truth(truth)) == truth

    def test_label_validated(self):
        with pytest.raises(ParseError):
            fio.load_window_truth("3\tmaybe\n")

    def test_repeated_index_named_by_line(self):
        with pytest.raises(ParseError, match="^line 3: window 1 given twice$"):
            fio.load_window_truth("1\tattack\n0\tnormal\n1\tnormal\n")

    def test_only_newline_breaks_lines(self):
        # A vertical tab is no line break: this is one malformed line.
        with pytest.raises(ParseError, match="^line 1: expected 2 columns, got 3$"):
            fio.load_window_truth("0\tnormal\x0b1\tattack\n")

    @pytest.mark.parametrize("line,message", [
        ("1_0\tattack", "malformed window index: '1_0'"),
        ("+1\tattack", "malformed window index: '+1'"),
        (" ", "expected 2 columns, got 1"),
        ("1\tmaybe", "window label must be attack or normal, got 'maybe'"),
        # Window indices are int64, as in the verdict format.
        ("9223372036854775808\tattack", "window index 9223372036854775808 does not fit int64"),
        ("-9223372036854775809\tnormal", "window index -9223372036854775809 does not fit int64"),
    ])
    def test_malformed_row_named_by_line(self, line, message):
        with pytest.raises(ParseError, match=f"^line 2: {re.escape(message)}$"):
            fio.load_window_truth(f"0\tnormal\n{line}\n")


# Tokens around the two number rules: the float alphabet, characters that
# `float()` or `int()` would skip or read as digits, and valid numbers.
ODD_CHARACTERS = "_ +-\x0b\u0660\u00b2\u00e9"
NEAR_NUMBERS = st.sampled_from(fio._FLOAT_TEXT + ODD_CHARACTERS)
VALID_NUMBERS = st.one_of(
    st.floats().map(repr), st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["inf", "-Infinity", "nan", "+nan", "1e5", "1E-05", ".5", "5.", "-0", "007"]))


@st.composite
def number_tokens(draw):
    """Any short text of near-number characters, or a valid number, maybe
    with an odd character put in at either end or inside."""
    if draw(st.booleans()):
        return draw(st.text(NEAR_NUMBERS, max_size=8))
    token = draw(VALID_NUMBERS)
    if draw(st.booleans()):
        at = draw(st.sampled_from([0, len(token), draw(st.integers(0, len(token)))]))
        token = token[:at] + draw(st.sampled_from(ODD_CHARACTERS)) + token[at:]
    return token


def column_values(values, token: str, start: int = 0):
    """`values` (`fio.float_values` or `fio.digit_values`) of `token` from
    character `start` on: its value, or None when rejected."""
    data = token.encode()
    codes = np.frombuffer(data + b"\n", dtype=np.uint8)
    found, bad = values(codes, np.array([start]), np.array([len(data)]))
    return None if bad[0] else found[0]


class TestNumberRules:
    """`int_token` and `float_token` accept the tokens the event and KDD-99
    decoders' array rules accept, with the same values."""

    @given(number_tokens())
    @settings(max_examples=500, deadline=None)
    def test_float_rule_matches_float_values(self, token):
        expected = column_values(fio.float_values, token)
        try:
            value = fio.float_token(token, "x")
        except ValueError:
            assert expected is None
        else:
            assert expected is not None
            assert value == expected or (math.isnan(value) and math.isnan(expected))

    @given(number_tokens())
    @settings(max_examples=500, deadline=None)
    def test_int_rule_matches_digit_values(self, token):
        negative = token.startswith("-")
        expected = column_values(fio.digit_values, token, int(negative))
        try:
            value = fio.int_token(token, "x")
        except ValueError:
            assert expected is None
        else:
            assert expected is not None
            # digit_values reads more than 19 digits as 2**64 - 1.
            if len(token) - negative <= 19:
                assert value == (-1 if negative else 1) * int(expected)

    @pytest.mark.parametrize("token", ["1_0", "+10", " 10", "10 ", "\u0661", ""])
    def test_rejected_with_the_name_and_token(self, token):
        rules = [fio.int_token] + ([fio.float_token] if token != "+10" else [])
        for rule in rules:
            with pytest.raises(ValueError, match=f"^malformed port: {re.escape(repr(token))}$"):
                rule(token, "port")

    @pytest.mark.parametrize("port", ["1_0", "+10", " 10"])
    def test_port_spellings_named_by_line(self, port):
        good = "0.0\tTCP\tc0\t1\tsrv\t10\t10\n"
        with pytest.raises(ParseError, match=f"^line 2: malformed port: {re.escape(repr(port))}$"):
            fio.load_events([good + f"0.1\tTCP\tc0\t1\tsrv\t{port}\t10\n"])
        good = "TCP\tc0\t1\tsrv\t10\tnormal\n"
        with pytest.raises(ParseError, match=f"^line 2: malformed port: {re.escape(repr(port))}$"):
            fio.load_truth(good + f"TCP\tc1\t{port}\tsrv\t10\tnormal\n")


FLOAT_BYTES = np.zeros(256, dtype=bool)
FLOAT_BYTES[list(b"0123456789.+-abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")] = True


def all_cast_float_values(codes, starts, ends):
    """`fio.float_values` as numpy's cast of every token, zero-padded to the
    widest one, after a check of its bytes against [0-9A-Za-z.+-]: an
    oracle independent of `float()`, the reference for the mask of
    rejected tokens."""
    width = int((ends - starts).max(initial=0)) + 1
    index = starts[:, None] + np.arange(width)
    inside = index < ends[:, None]
    padded = codes.take(index, mode="clip") * inside
    bad = (inside > FLOAT_BYTES.take(padded)).any(axis=-1)
    tokens = padded.view(f"S{width}").ravel()
    tokens[bad] = b"0"
    for row in range(tokens.size):
        try:
            tokens[row : row + 1].astype(np.float64)
        except ValueError:
            bad[row], tokens[row] = True, b"0"
    return tokens.astype(np.float64), bad


def token_chunk(tokens: list[bytes], gaps: list[bytes] | None = None, end: bytes = b""):
    """The tokens joined by tabs (or by `gaps`) and followed by `end`, the
    first at offset 0, and their start and end offsets."""
    gaps = gaps or [b"\t"] * len(tokens)
    chunk, starts, ends = b"", [], []
    for token, gap in zip(tokens, gaps):
        chunk += gap if starts else b""
        starts.append(len(chunk))
        chunk += token
        ends.append(len(chunk))
    return np.frombuffer(chunk + end, dtype=np.uint8), np.array(starts), np.array(ends)


def near_midpoints(x: float) -> list[str]:
    """Decimals of 17 to 19 significant digits just below, at and above the
    midpoint between x and the next float64."""
    middle = Decimal(x) + Decimal(math.ulp(x)) / 2
    spellings = []
    for digits in (17, 18, 19):
        unit = Decimal(1).scaleb(middle.adjusted() - digits + 1)
        for rounding in (ROUND_FLOOR, ROUND_CEILING):
            near = middle.quantize(unit, rounding=rounding)
            spellings += [format(near + step * unit, "f") for step in (-1, 0, 1)]
    return spellings


DECIMAL_TOKENS = st.one_of(
    st.floats(min_value=0.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(lambda x: st.sampled_from(
        [f"%.{places}f" % x for places in range(15, 20)]
        + [f"%.{digits}g" % x for digits in range(15, 20)])),
    st.floats(min_value=1e-3, max_value=1e18, exclude_min=True).flatmap(
        lambda x: st.sampled_from(near_midpoints(x))),
    # Widths 1-24 of digits with or without one ".".
    st.text("0123456789", min_size=1, max_size=24).flatmap(lambda digits: st.sampled_from(
        [digits] + [digits[:at] + "." + digits[at:] for at in range(len(digits) + 1)])),
    st.sampled_from(["9007199254740993", "4503599627370497.5", "00000000000000000001.5",
                     ".5", "5.", ".", "1.2.3", "1e-05", "0", "007", "1_0", "+1", "-.5"]),
    number_tokens())


class TestExactDecimals:
    """`fio.float_values` reads digit tokens exactly and the rest with
    `fio.float_token`: the values of `float()`, and the rejections of
    numpy's cast (`all_cast_float_values`)."""

    @staticmethod
    def check(tokens: list[str], gaps: list[bytes] | None = None):
        data = [token.encode("utf-8", "surrogatepass") for token in tokens]
        # A chunk of a decoder ends in "\n".
        codes, starts, ends = token_chunk(data, gaps, b"\n")
        values, bad = fio.float_values(codes, starts, ends)
        _, expected_bad = all_cast_float_values(codes, starts, ends)
        assert bad.tolist() == expected_bad.tolist()
        for token, value, rejected in zip(tokens, values.tolist(), bad.tolist()):
            if not rejected:
                expected = float(token)
                assert (math.isnan(value) and math.isnan(expected)
                        or value.hex() == expected.hex()), token

    @given(st.lists(DECIMAL_TOKENS, min_size=1, max_size=60),
           st.lists(st.sampled_from([b"\t", b".", b"1", b"\n", b"\t0."]), min_size=60,
                    max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_many_widths_in_one_call(self, tokens, gaps):
        self.check(tokens, gaps[: len(tokens)])

    @given(st.floats(min_value=1e-3, max_value=1e18, exclude_min=True))
    @settings(max_examples=300, deadline=None)
    def test_either_side_of_midpoints(self, x):
        self.check(near_midpoints(x) + [repr(x)])

    @pytest.mark.parametrize("power", range(-9, 63))
    def test_about_powers_of_two(self, power):
        # Where the ulp halves: decimals of 16 to 19 digits from one ulp
        # below a power of two to half an ulp above it, and the midpoints.
        x = 2.0**power
        below, ulp = math.nextafter(x, 0), Decimal(math.ulp(x))
        spread = [Decimal(x) + ulp * (step - 64) / 64 for step in range(97)]
        self.check([format(near.quantize(Decimal(1).scaleb(near.adjusted() - digits + 1)), "f")
                    for near in spread for digits in (16, 17, 18, 19)]
                   + [spelling for near in (math.nextafter(below, 0), below, x,
                                            math.nextafter(x, math.inf))
                      for spelling in near_midpoints(near)])

    @pytest.mark.parametrize("token, value", [
        # Exact ties, rounded to even.
        ("9007199254740993", 2.0**53), ("4503599627370497.5", 2.0**52 + 2),
        ("9007199254740995", 2.0**53 + 4),
        ("00000000000000000001.5", 1.5), ("0000000000000000001", 1.0),
        ("1234567890123456789", 1234567890123456789.0), (".5", 0.5), ("5.", 5.0),
        ("1e-05", 1e-05)])
    def test_ties_and_spellings(self, token, value):
        codes, starts, ends = token_chunk([token.encode()], end=b"\n")
        values, bad = fio.float_values(codes, starts, ends)
        assert not bad[0] and values[0] == value and value == float(token)

    @pytest.mark.parametrize("token", [".", "1.2.3", "", "1..", "..5"])
    def test_rejected(self, token):
        self.check([token, "1.5", token])
        codes, starts, ends = token_chunk([token.encode()], end=b"\n")
        assert fio.float_values(codes, starts, ends)[1].tolist() == [True]

    @given(st.lists(st.floats().map(lambda x: "%.17e" % x), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_every_token_past_the_exact_path(self, spellings):
        # Exponents, signs, inf and nan, more than 19 digits and exact ties:
        # each token of the call goes to `float_token`, once.
        runs = ["".join(str(n % 10) for n in range(1, width + 1)) for width in range(20, 25)]
        tokens = spellings + ["-0.0", "+1", "inf", "-nan", "9007199254740993",
                              "4503599627370497.5"] + runs + [run[:12] + "." + run[12:] for run in runs]
        with mock.patch.object(fio, "float_token", wraps=fio.float_token) as rule:
            self.check(tokens)
        assert rule.call_count == len(tokens)

    def test_bytes_that_are_not_utf8(self):
        tokens = [b"1\xff", b"\xe9", b"1.\x80", b"1.5"]
        codes, starts, ends = token_chunk(tokens, end=b"\n")
        values, bad = fio.float_values(codes, starts, ends)
        assert bad.tolist() == [True, True, True, False]
        assert bad.tolist() == all_cast_float_values(codes, starts, ends)[1].tolist()
        assert values[3] == 1.5


class TestDigitValues:
    """`fio.digit_values` gives `int()` of tokens of 0-30 digits, and rejects
    each with a non-digit at any one byte."""

    # Next to the digits, in their high or low nibble, and bytes with the
    # top bit set.
    NOT_DIGITS = [b"/", b":", b"?", b" ", b".", b"-", b"\x00", b"\xb9", b"\xfa", b"\xff"]

    @staticmethod
    def expected(token: bytes):
        if not token or not all(48 <= byte <= 57 for byte in token):
            return None
        return int(token) if len(token) <= 19 else 2**64 - 1

    def tokens(self):
        digits = "".join(str(n % 10) for n in range(7, 37)).encode()
        tokens = []
        for width in range(31):
            token = digits[:width]
            tokens.append(token)
            for at in range(width):
                other = self.NOT_DIGITS[(width + at) % len(self.NOT_DIGITS)]
                tokens.append(token[:at] + other + token[at + 1 :])
        return tokens

    def test_every_width_and_position_in_one_call(self):
        tokens = self.tokens()
        codes, starts, ends = token_chunk(tokens)
        values, bad = fio.digit_values(codes, starts, ends)
        assert [None if rejected else int(value) for value, rejected
                in zip(values.tolist(), bad.tolist())] == [self.expected(t) for t in tokens]
        # Any shape of offsets.
        pairs = len(tokens) // 2
        shaped = fio.digit_values(codes, starts[: 2 * pairs].reshape(pairs, 2),
                                  ends[: 2 * pairs].reshape(pairs, 2))
        assert shaped[0].ravel().tolist() == values[: 2 * pairs].tolist()
        assert shaped[1].ravel().tolist() == bad[: 2 * pairs].tolist()

    def test_each_token_fills_its_chunk(self):
        for token in self.tokens():
            codes, starts, ends = token_chunk([token])
            values, bad = fio.digit_values(codes, starts, ends)
            expected = self.expected(token)
            assert bad[0] == (expected is None), token
            assert expected is None or int(values[0]) == expected, token


class TestReadRows:
    def test_one_rule_for_every_format(self):
        rows = fio.read_rows("h\n1\t2\n\n# c\n3\t4\t5\n", (2, 3), lambda *fields: fields,
                             header="h", comments=True)
        assert rows == [("1", "2"), ("3", "4", "5")]
        with pytest.raises(ParseError, match="^line 1: missing header row$"):
            fio.read_rows("1\t2\n", (2,), lambda *fields: fields, header="h")
        with pytest.raises(ParseError, match="^line 2: expected 2 or 3 columns, got 1$"):
            fio.read_rows("1\t2\n \n", (2, 3), lambda *fields: fields)
        # Without `comments`, a "#" line is a row.
        with pytest.raises(ParseError, match="^line 1: expected 2 columns, got 1$"):
            fio.read_rows("# c\n", (2,), lambda *fields: fields)

    def test_row_errors_named_by_line(self):
        def row(a, b):
            if a == "p":
                raise ParseError("bad p")
            return int(a)
        assert fio.read_rows("1\tx\n", (2,), row) == [1]
        for text, message in [("1\tx\np\tx\n", "^line 2: bad p$"),
                              ("\nq\tx\n", "^line 2: invalid literal")]:
            with pytest.raises(ParseError, match=message):
                fio.read_rows(text, (2,), row)

