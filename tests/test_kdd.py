import gzip
import hashlib
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from chunked import CHUNK_SIZES, chunk_bytes, file_layout
from event_rows import attack_verdicts, window_flows
from fvba.cli import main
from fvba.detector import ToleranceFactors, detect_profiled
from fvba.errors import ParameterError, ParseError
from fvba.evaluation import BreakdownRow, ScoreReport, dump_breakdown, dump_score_table
from fvba import kdd
from fvba.kdd import (
    KddRecord,
    TESTING_ATTACKS,
    TRAINING_ATTACKS,
    build_profiles,
    evaluate_split,
    parse,
    select_dos_and_normal,
    to_flow_windows,
)
from fvba.model import FlowKey, ProtocolCategory

TCP = ProtocolCategory.TCP
ICMP = ProtocolCategory.ICMP


def record_line(proto="tcp", service="http", flag="SF", src=215, dst=45076,
                label="normal.", duration=0):
    head = [str(duration), proto, service, flag, str(src), str(dst)]
    rest = ["0"] * 35
    return ",".join(head + rest) + "," + label


def make_records(lines):
    return parse(lines)


# Numeric tokens on both sides of the continuous-field and byte-count rules.
NUMERIC_TOKENS = st.sampled_from([
    "0", "-0", "7", "-1", "+3", "1_0", "3.", ".5", " 7", "7 ", "42.9", "-0.5", "1e5",
    "1.5e3", "nan", "inf", "1.e999", "-500", "", ".", "abc", "0x10",
    "9223372036854775807", "9223372036854775808", "9.3e18", "9.2e18", "1.2.3", "1..5",
]) | st.integers(-5, 2**64).map(str)


def reference_parse(lines):
    """parse's numeric checks as per-token regular expressions, the oracle.

    Returns (number of the first rejected line, None) or (None, (src_bytes,
    dst_bytes)).
    """
    srcs, dsts = [], []
    for number, line in enumerate(lines, start=1):
        fields = line.split(",")
        if not all(re.fullmatch(r"[0-9]+\.?[0-9]*|\.[0-9]+", fields[index])
                   for index in (0, *range(6, 41))):
            return number, None
        if not all(re.fullmatch(r"[0-9]+", token) and int(token) < 2**63 for token in fields[4:6]):
            return number, None
        srcs.append(int(fields[4]))
        dsts.append(int(fields[5]))
    return None, (srcs, dsts)


def reference_to_flow_windows(rows, record_window):
    """to_flow_windows as the per-record dict loop it replaced, kept as the oracle.

    `rows` are (protocol token, service, flag, src_bytes, dst_bytes, label)
    tuples; returns, per protocol with a full window, (index, start,
    length, volume, flow count, per-flow items in first-appearance order)
    per window.
    """
    grouped = {p: [] for p in ProtocolCategory}
    for proto, service, flag, src, dst, _ in rows:
        protocol = ProtocolCategory[proto.upper()]
        grouped[protocol].append((FlowKey(protocol, service, flag, 0, 0), src + dst))
    windows = {}
    for protocol, stream in grouped.items():
        series = []
        for index in range(len(stream) // record_window):
            flows = {}
            for key, size in stream[index * record_window : (index + 1) * record_window]:
                flows[key] = flows.get(key, 0) + size
            series.append((index, float(index * record_window), float(record_window),
                           sum(flows.values()), len(flows), list(flows.items())))
        if series:
            windows[protocol] = series
    return windows


def observed(windows):
    """The oracle's view of to_flow_windows output, per-flow order included."""
    return {
        protocol: [
            (s.index, s.index * series.window_length, series.window_length, s.volume,
             s.flow_count, window_flows(series, i))
            for i, s in enumerate(series)
        ]
        for protocol, series in windows.items()
    }


def reference_evaluation(records, attack_names, verdicts, record_window):
    """evaluate_split's scores as a loop over the records, the oracle.

    A record of window w of its protocol (w counted from its position in
    that protocol's stream) is flagged when verdicts[protocol][w] alarms;
    records after the last full window are not counted.
    """
    full = {p: sum(r.protocol is p for r in records) // record_window * record_window
            for p in ProtocolCategory}
    seen = dict.fromkeys(ProtocolCategory, 0)
    scores = {p: [0, 0, 0, 0] for p in kdd.PROTOCOLS if full[p]}
    rows = {}
    for record in records:
        position = seen[record.protocol]
        seen[record.protocol] += 1
        if position >= full[record.protocol]:
            continue
        reports = verdicts.get(record.protocol)
        flagged = reports is not None and bool(reports.is_attack[position // record_window])
        counts = scores[record.protocol]
        if record.label in attack_names:
            counts[0] += flagged
            counts[1] += 1
            row = rows.setdefault((record.label, record.protocol.value), [record.protocol, 0, 0])
            row[1] += flagged
            row[2] += 1
        elif record.label == "normal":
            counts[2] += flagged
            counts[3] += 1
    per_protocol = {p: ScoreReport(*counts) for p, counts in scores.items()}
    overall = ScoreReport(*(sum(c[i] for c in scores.values()) for i in range(4)))
    breakdown = [BreakdownRow(name, protocol, detected, total)
                 for (name, _), (protocol, detected, total) in sorted(rows.items())]
    return per_protocol, overall, breakdown


def flagging(monkeypatch, flags):
    """Make evaluate_split flag window w of protocol p exactly when flags[p][w];
    a protocol missing from `flags` counts as unprofiled."""

    def detect(series, profiles, factors):
        return {p: attack_verdicts(p, range(len(flags[p])), flags[p])
                for p in series if p in flags}

    monkeypatch.setattr(kdd, "detect_profiled", detect)


NUMERIC_FIELDS = st.sampled_from([0, 4, 5, 6, 12, 22, 40])


class TestParse:
    def test_parses_fields(self):
        records = parse([record_line(src=181, dst=5450, label="normal.")])
        (r,) = records
        assert r == KddRecord(TCP, "http", "SF", 181, 5450, "normal")
        assert r.protocol is TCP
        assert records.keys == (FlowKey(TCP, "http", "SF", 0, 0),)
        assert records.labels == ("normal",)

    def test_label_dot_optional(self):
        (a,) = parse([record_line(label="smurf.")])
        (b,) = parse([record_line(label="smurf")])
        assert a.label == b.label == "smurf"

    def test_interns_flows_and_labels(self):
        records = parse([record_line(label="smurf."), record_line(label="SMURF"),
                         record_line(flag="S0", label="normal."), record_line()])
        assert records.labels == ("smurf", "normal")
        assert records.label.tolist() == [0, 0, 1, 1]
        assert records.flow.tolist() == [0, 0, 1, 0]
        assert records.protocol.tolist() == [0, 0, 0, 0]

    def test_wrong_field_count_names_line(self):
        good = record_line()
        bad = good.rsplit(",", 2)[0] + ",normal."  # 41 fields
        with pytest.raises(ParseError, match="line 2"):
            parse([good, bad])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ParseError, match="protocol_type"):
            parse([record_line(proto="gre")])

    def test_non_numeric_continuous_field(self):
        line = record_line().replace(",0,", ",abc,", 1)
        with pytest.raises(ParseError, match="non-numeric"):
            parse([line])

    @pytest.mark.parametrize("index", [0, 4, 5, 6, 40])
    def test_non_numeric_field_after_cached_line(self, index):
        # Line 2 differs from the regular line 1 in one token.  The byte
        # counts, fields 4 and 5, have their own message.
        fields = record_line().split(",")
        fields[index] = "1e5"
        message = {4: "src_bytes must be a non-negative count within int64, got",
                   5: "dst_bytes must be a non-negative count within int64, got"}.get(
                       index, f"non-numeric continuous field {index}:")
        with pytest.raises(ParseError, match=rf"^line 2: {message} '1e5'"):
            parse([record_line(), ",".join(fields)])

    @pytest.mark.parametrize("token", ["-500", "-0.5", "1.e999", "9223372036854775808", "9.3e18"])
    @pytest.mark.parametrize("field", ["src", "dst"])
    def test_bad_byte_count_names_line(self, token, field):
        lines = [record_line(), record_line(**{field: token})]
        with pytest.raises(ParseError, match=rf"^line 2: {field}_bytes must be .* got '{token}'"):
            parse(lines)

    def test_byte_count_limits(self):
        records = parse([record_line(src=0, dst="9223372036854775807"),
                         record_line(src="0000000000000000042", dst="00")])
        assert records.src_bytes.tolist() == [0, 42]
        assert records.dst_bytes.tolist() == [2**63 - 1, 0]
        # Byte counts are decimal digits only.
        for src in ("42.9", "-0"):
            with pytest.raises(ParseError, match=f"^line 1: src_bytes must be .* got '{src}'$"):
                parse([record_line(src=src)])

    def test_trailing_nul_bytes_kept(self):
        # A fixed-width bytes column ignores trailing NUL bytes; they stay
        # part of the flag and of the label.
        records = parse([record_line(flag="SF"), record_line(flag="SF\x00", label="normal.\x00"),
                         record_line(flag="SF\x00\x00", label="normal.")])
        assert [key.dst_addr for key in records.keys] == ["SF", "SF\x00", "SF\x00\x00"]
        assert records.flow.tolist() == [0, 1, 2]
        assert records.labels == ("normal", "normal.\x00")
        assert records.label.tolist() == [0, 1, 0]

    def test_reads_gzip_paths(self, tmp_path):
        text = record_line() + "\n\n" + record_line(label="smurf.") + "\n"
        path = tmp_path / "mini.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(text)
        assert len(parse(path)) == 2
        (tmp_path / "mini.txt").write_text(text)
        assert [r.label for r in parse(str(tmp_path / "mini.txt"))] == ["normal", "smurf"]

    @given(st.lists(st.lists(st.tuples(NUMERIC_FIELDS, NUMERIC_TOKENS), max_size=4),
                    min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_token_rule(self, edits):
        lines = []
        for line_edits in edits:
            fields = record_line().split(",")
            for index, token in line_edits:
                fields[index] = token
            lines.append(",".join(fields))
        bad_line, columns = reference_parse(lines)
        if bad_line is None:
            records = parse(lines)
            assert (records.src_bytes.tolist(), records.dst_bytes.tolist()) == columns
        else:
            with pytest.raises(ParseError, match=rf"^line {bad_line}: "):
                parse(lines)


# Service, flag and label texts: any character but a comma or a line
# break, trailing NUL bytes, dots and non-ASCII included.
FIELD_TEXT = st.text(st.sampled_from("aZ0 ._-\x00\x0b\x7f\xe9\u2028\U0001f600"), max_size=5)
CONTINUOUS_TOKENS = st.sampled_from(["0", "7", "3.", ".5", "0.25", "007", "1.00"])


@st.composite
def kdd_lines(draw):
    """Valid KDD lines in odd but accepted spellings, and the
    (protocol, service, flag, src_bytes, dst_bytes, label) each holds."""
    services = draw(st.lists(FIELD_TEXT, min_size=1, max_size=3))
    # A label neither starts nor ends with whitespace.
    labels = draw(st.lists(FIELD_TEXT.map(str.strip)
                           | st.sampled_from(["normal.", "SMURF", "smurf.."]),
                           min_size=1, max_size=3))
    lines, records = [], []
    for _ in range(draw(st.integers(1, 10))):
        record = (draw(st.sampled_from(["tcp", "udp", "icmp"])), draw(st.sampled_from(services)),
                  draw(FIELD_TEXT), draw(st.integers(0, 2**63 - 1)),
                  draw(st.integers(0, 10**6)), draw(st.sampled_from(labels)))
        protocol, service, flag, src, dst, label = record
        fields = [draw(CONTINUOUS_TOKENS), protocol, service, flag, str(src),
                  str(dst).zfill(draw(st.integers(1, 19)))]
        fields += [draw(CONTINUOUS_TOKENS) for _ in range(35)] + [label]
        lines.append(",".join(fields))
        records.append(record)
    return lines, records


# (field, token, start of the message) of one bad field; field None
# replaces the whole line, field "pad" wraps it in the token and field
# "end" appends the token.  A lone surrogate is written as the byte it
# escapes.
KDD_MUTATIONS = st.sampled_from([
    (1, "gre", "unknown protocol_type 'gre'"), (1, "TCP", "unknown protocol_type 'TCP'"),
    (1, "tcp ", "unknown protocol_type 'tcp '"),
    *((field, token, f"non-numeric continuous field {field}: '{token}'")
      for field in (0, 6, 22, 40)
      for token in ("+3", "-1", "1_0", " 7", "1e5", "", ".", "1.2.3", "nan", "\xe9")),
    *((field, token, f"{name}_bytes must be a non-negative count within int64, got '{token}'")
      for field, name in ((4, "src"), (5, "dst"))
      for token in ("42.9", "-0", "+1", "1e5", "", "9223372036854775808",
                    "99999999999999999999")),
    (None, " ", "expected 42 fields, got 1"), (None, "0," * 42 + "x", "expected 42 fields, got 43"),
    (2, "ht\udcfftp", "not UTF-8: byte 0xff"), (41, "\udce9", "not UTF-8: byte 0xe9"),
    ("pad", " ", "non-numeric continuous field 0: ' "),
    *(("end", token, "label padded with whitespace: '")
      for token in (" ", "\t", "\x0b", "\x85", "\u2028")),
    (41, " normal.", "label padded with whitespace: ' normal.'"),
])


class TestChunkedParse:
    """The chunk decoder on lines that cross chunk ends, against an oracle."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("kdd") / "records.csv"

    @given(data=st.data(), size=CHUNK_SIZES)
    @settings(max_examples=150, deadline=None)
    def test_valid_lines_match_oracle(self, path, data, size):
        lines, records = data.draw(kdd_lines())
        text, _ = data.draw(file_layout(lines))
        path.write_bytes(text.encode())
        keys = list(dict.fromkeys((protocol, service, flag) for protocol, service, flag, *_ in records))
        names = list(dict.fromkeys(label.rstrip(".").lower() for *_, label in records))
        expected = (
            [kdd.PROTOCOLS.index(ProtocolCategory[p.upper()]) for p, *_ in records],
            [keys.index((p, service, flag)) for p, service, flag, *_ in records],
            [src for *_, src, _, _ in records], [dst for *_, dst, _ in records],
            [names.index(label.rstrip(".").lower()) for *_, label in records],
            tuple(FlowKey(ProtocolCategory[p.upper()], service, flag, 0, 0) for p, service, flag in keys),
            tuple(names),
        )
        with chunk_bytes(size):
            # An iterable is read as the lines of the file.
            for source in (path, io.StringIO(text, newline="")):
                records_read = parse(source)
                assert (records_read.protocol.tolist(), records_read.flow.tolist(),
                        records_read.src_bytes.tolist(), records_read.dst_bytes.tolist(),
                        records_read.label.tolist(), records_read.keys,
                        records_read.labels) == expected

    @given(data=st.data(), size=CHUNK_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_first_bad_line_named(self, path, data, size):
        lines, _ = data.draw(kdd_lines())
        bad = data.draw(st.integers(0, len(lines) - 1))
        # Maybe a second bad line after the first, of any fault.
        for index in {bad, data.draw(st.integers(bad, len(lines) - 1))}:
            field, token, message = data.draw(KDD_MUTATIONS)
            if index == bad:
                expected = message
            if field is None:
                lines[index] = token
            elif field == "pad":
                lines[index] = token + lines[index] + token
            elif field == "end":
                lines[index] += token
            else:
                fields = lines[index].split(",")
                fields[field] = token
                lines[index] = ",".join(fields)
        text, numbers = data.draw(file_layout(lines))
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with chunk_bytes(size), pytest.raises(ParseError) as error:
            parse(path)
        assert str(error.value).startswith(f"line {numbers[bad]}: {expected}")

    def test_regular_chunks_take_the_decoder(self):
        lines = [record_line(src=i, label=label) for i, label in enumerate(["smurf.", "normal."])]
        records = parse(lines + ["", lines[0]])
        assert records.src_bytes.tolist() == [0, 1, 0]
        assert records.labels == ("smurf", "normal")

    @pytest.mark.parametrize("token", ["1.2.3", "1..5", ".", "1e5", "-1"])
    def test_odd_continuous_token_in_regular_lines(self, token):
        fields = record_line().split(",")
        fields[6] = token
        lines = [record_line(), ",".join(fields)]
        with pytest.raises(ParseError, match=rf"^line 2: non-numeric continuous field 6: '{token}'"):
            parse(lines)

    def test_line_numbers_count_every_break(self, tmp_path):
        path = tmp_path / "records.csv"
        good = record_line()
        path.write_bytes(f"{good}\r\n{good}\r\r{good}\n{good},0\n".encode())
        with pytest.raises(ParseError, match="^line 5: expected 42 fields, got 43"):
            parse(path)

    def test_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(f"{record_line()}\n{record_line()}\n".encode()
                         + record_line(service="\xff").encode("latin-1") + b"\n")
        with pytest.raises(ParseError, match="^line 3: not UTF-8: byte 0xff$"):
            parse(path)

    def test_truncated_and_corrupt_gzip(self, tmp_path):
        path = tmp_path / "records.gz"
        data = gzip.compress(("\n".join(record_line(src=i) for i in range(2000)) + "\n").encode())
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError, match="corrupt or truncated gzip data: Compressed file ended"):
            parse(path)
        path.write_bytes(data[:20] + bytes(64) + data[84:])
        with pytest.raises(ParseError, match="corrupt or truncated gzip data: Error -3"):
            parse(path)


class TestKddTable:
    def test_slices_masks_and_iterates_in_file_order(self):
        records = parse([record_line(label=f"{name}.", src=i)
                         for i, name in enumerate(["normal", "smurf", "normal", "back"])])
        assert len(records) == 4
        assert [r.src_bytes for r in records[1:3]] == [1, 2]
        mask = records.label_mask({"normal", "back"})
        assert mask.tolist() == [True, False, True, True]
        assert [(r.label, r.src_bytes) for r in records[mask]] == [
            ("normal", 0), ("normal", 2), ("back", 3)]
        assert len(records[records.label_mask(set())]) == 0


class TestFilterDos:
    def test_table_attack_sets(self):
        assert TRAINING_ATTACKS == {"back", "land", "neptune", "pod", "smurf", "teardrop"}
        assert TESTING_ATTACKS == TRAINING_ATTACKS | {
            "apache2", "mailbomb", "processtable", "udpstorm"
        }

    def test_split_selection(self):
        records = parse([
            record_line(label="neptune."),
            record_line(label="normal."),
            record_line(label="satan."),      # probe: discarded
            record_line(label="apache2."),    # DoS only in the testing split
        ])
        stream = select_dos_and_normal(records, TRAINING_ATTACKS)
        assert [r.label for r in stream] == ["neptune", "normal"]
        stream = select_dos_and_normal(records, TESTING_ATTACKS)
        assert [r.label for r in stream] == ["neptune", "normal", "apache2"]

    def test_empty_input(self):
        assert len(select_dos_and_normal(parse([]), TRAINING_ATTACKS)) == 0

    def test_ordered_selection(self):
        records = parse([
            record_line(label="normal."),
            record_line(label="satan."),
            record_line(label="neptune."),
        ])
        stream = select_dos_and_normal(records, TRAINING_ATTACKS)
        assert [r.label for r in stream] == ["normal", "neptune"]


class TestToFlowWindows:
    def test_two_full_windows(self):
        records = make_records([record_line() for _ in range(200)])
        windows = to_flow_windows(records, record_window=100)
        assert list(windows) == [TCP]
        assert len(windows[TCP]) == 2

    def test_trailing_partial_window_dropped(self):
        records = make_records([record_line() for _ in range(250)])
        assert len(to_flow_windows(records, 100)[TCP]) == 2

    def test_normal_window_truth(self):
        records = make_records([record_line() for _ in range(100)])
        evaluation = evaluate_split(records, TRAINING_ATTACKS, {}, record_window=100)
        assert evaluation.overall == ScoreReport(0, 0, 0, 100)
        assert evaluation.breakdown == []

    def test_attack_window_truth_counts_labels(self, monkeypatch):
        lines = [record_line() for _ in range(98)]
        lines += [record_line(label="neptune.", service="private", src=0, dst=0)] * 2
        flagging(monkeypatch, {TCP: [True]})
        evaluation = evaluate_split(make_records(lines), TRAINING_ATTACKS, {}, record_window=100)
        assert evaluation.overall == ScoreReport(2, 2, 98, 98)
        assert evaluation.breakdown == [BreakdownRow("neptune", TCP, 2, 2)]

    def test_flow_identity_is_service_flag(self):
        lines = [record_line(service="http", flag="SF", src=10, dst=0),
                 record_line(service="http", flag="SF", src=20, dst=5),
                 record_line(service="smtp", flag="SF", src=30, dst=0),
                 record_line(service="http", flag="REJ", src=40, dst=0)]
        (sample,) = to_flow_windows(make_records(lines), 4)[TCP]
        assert sample.flow_count == 3
        assert sample.volume == 105

    def test_volumes_match_resummation_oracle(self):
        rng = random.Random(8)
        services = ["http", "smtp", "ftp", "domain_u", "private", "ecr_i"]
        protos = ["tcp", "tcp", "udp", "icmp"]
        lines = []
        for _ in range(1200):
            proto = rng.choice(protos)
            service = rng.choice(services)
            lines.append(record_line(
                proto=proto,
                service=service,
                flag=rng.choice(["SF", "REJ", "S0"]),
                src=rng.randrange(0, 5000),
                dst=rng.randrange(0, 5000),
            ))
        records = make_records(lines)
        windows = to_flow_windows(records, 50)
        for protocol, series in windows.items():
            stream = [r for r in records if r.protocol is protocol]
            for index, sample in enumerate(series):
                chunk = stream[index * 50 : (index + 1) * 50]
                assert sample.volume == sum(r.src_bytes + r.dst_bytes for r in chunk)
                assert sample.flow_count == len({(r.service, r.flag) for r in chunk})

    def test_bad_window_size(self):
        with pytest.raises(ParameterError):
            to_flow_windows([], record_window=0)

    def test_byte_total_beyond_int64_rejected(self):
        lines = [record_line(src=2**62, dst=0), record_line(src=2**62 - 1, dst=0)]
        (sample,) = to_flow_windows(make_records(lines), 2)[TCP]
        assert sample.volume == 2**63 - 1
        with pytest.raises(ParameterError, match="int64"):
            to_flow_windows(make_records([record_line(src=2**62, dst=2**62)]), 1)

    @given(
        st.lists(st.tuples(
            st.sampled_from(["tcp", "udp", "icmp"]),
            st.sampled_from(["http", "smtp", "private"]),
            st.sampled_from(["SF", "S0"]),
            st.integers(0, 3) | st.integers(0, 2**40),
            st.integers(0, 3) | st.integers(0, 2**40),
            st.sampled_from(["normal.", "neptune.", "smurf.", "back", "satan.", "ipsweep."]),
        ), max_size=80),
        st.integers(1, 7),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_loop_oracle(self, rows, record_window):
        records = parse([record_line(*row[:5], label=row[5]) for row in rows])
        windows = to_flow_windows(records, record_window)
        assert observed(windows) == reference_to_flow_windows(rows, record_window)
        assert list(windows) == list(reference_to_flow_windows(rows, record_window))

    def test_zero_byte_records_still_counted_as_flows(self):
        lines = [record_line(service=f"s{i}", src=0, dst=0) for i in range(10)]
        (sample,) = to_flow_windows(make_records(lines), 10)[TCP]
        assert sample.volume == 0
        assert sample.flow_count == 10


class TestEvaluateSplit:
    def test_propagates_window_verdicts(self, monkeypatch):
        lines = [record_line(label="smurf.")] * 60 + [record_line()] * 140
        lines += [record_line(label="neptune.")] * 90 + [record_line()] * 110
        flagging(monkeypatch, {TCP: [True, False, False, True]})
        evaluation = evaluate_split(make_records(lines), TRAINING_ATTACKS, {}, record_window=100)
        assert evaluation.overall == ScoreReport(60, 150, 140, 250)
        assert evaluation.per_protocol == {TCP: evaluation.overall}

    def test_breakdown_rows(self, monkeypatch):
        # Rows sorted by attack name, then protocol; one per pair present.
        lines = ([record_line(label="neptune.")] * 80 + [record_line(label="back.")] * 5
                 + [record_line()] * 15 + [record_line(label="neptune.")] * 20
                 + [record_line()] * 80 + [record_line(proto="icmp", label="smurf.")] * 100
                 + [record_line(proto="udp", label="neptune.")] * 100)
        flagging(monkeypatch, {TCP: [True, False], ICMP: [True]})
        records = make_records(lines)
        rows = evaluate_split(records, TRAINING_ATTACKS, {}, record_window=100).breakdown
        assert [(r.attack, r.protocol, r.detected, r.total) for r in rows] == [
            ("back", TCP, 5, 5),
            ("neptune", TCP, 80, 100),
            ("neptune", ProtocolCategory.UDP, 0, 100),
            ("smurf", ICMP, 100, 100),
        ]
        assert rows[1].rate == 0.8

    def test_absent_attack_has_no_row(self, monkeypatch):
        # Back is an attack name, but no record in a full window carries it.
        lines = [record_line()] * 100 + [record_line(label="back.")] * 99
        flagging(monkeypatch, {TCP: [False]})
        evaluation = evaluate_split(make_records(lines), TRAINING_ATTACKS, {}, record_window=100)
        assert evaluation.breakdown == []
        assert evaluation.overall == ScoreReport(0, 0, 0, 100)

    @given(
        st.lists(st.tuples(
            st.sampled_from(["tcp", "udp", "icmp"]),
            st.sampled_from(["http", "smtp", "private"]),
            st.sampled_from(["SF", "S0"]),
            st.integers(0, 3) | st.integers(0, 2**20),
            st.integers(0, 3) | st.integers(0, 2**20),
            st.sampled_from(["normal.", "neptune.", "smurf.", "back", "satan.", "apache2."]),
        ), min_size=10, max_size=80),
        st.integers(1, 5),
        st.frozensets(st.sampled_from(["neptune", "smurf", "back", "apache2"])),
        st.frozensets(st.sampled_from(list(ProtocolCategory))),
        st.floats(0.25, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_record_loop(self, rows, record_window, attacks, profiled, factor):
        # Profiles of the whole stream and factors below 2 flag some windows
        # and pass others; protocols left out of `profiled` are unprofiled.
        records = parse([record_line(*row[:5], label=row[5]) for row in rows])
        profiles = {p: profile for p, profile in build_profiles(records, record_window).items()
                    if p in profiled}
        factors = {p: ToleranceFactors(factor, factor,
                                       factor if p is ProtocolCategory.UDP else None)
                   for p in ProtocolCategory}
        verdicts = detect_profiled(to_flow_windows(records, record_window), profiles, factors)
        evaluation = evaluate_split(records, attacks, profiles, factors, record_window)
        per_protocol, overall, breakdown = reference_evaluation(records, attacks, verdicts,
                                                                record_window)
        assert evaluation.per_protocol == per_protocol
        assert list(evaluation.per_protocol) == list(per_protocol)
        assert evaluation.overall == overall
        assert evaluation.breakdown == breakdown
        # Rates print as the oracle's Python floats do.
        assert dump_breakdown(evaluation.breakdown) == dump_breakdown(breakdown)
        assert (dump_score_table([("all", evaluation.overall), *evaluation.per_protocol.items()])
                == dump_score_table([("all", overall), *per_protocol.items()]))


class TestPipeline:
    def normal_lines(self, n, proto="tcp", service="http", low=400, high=600, seed=0):
        rng = random.Random(seed)
        return [
            record_line(proto=proto, service=service, flag="SF",
                        src=rng.randint(low, high), dst=rng.randint(low, high))
            for _ in range(n)
        ]

    def test_build_profiles_skips_thin_protocols(self):
        lines = self.normal_lines(200) + self.normal_lines(50, proto="udp", service="domain_u")
        profiles = build_profiles(parse(lines), record_window=100)
        assert TCP in profiles and ProtocolCategory.UDP not in profiles
        assert profiles[TCP].window_length == 100.0

    def test_detects_service_spread_burst(self):
        # Normal traffic concentrates on one service; the attack burst
        # spreads across many, firing the flow condition.
        train = parse(self.normal_lines(400, seed=1))
        profiles = build_profiles(train, record_window=100)

        detect_lines = self.normal_lines(200, seed=2)
        detect_lines += [
            record_line(service=f"port{i % 60}", flag="S0", src=0, dst=0, label="neptune.")
            for i in range(100)
        ]
        detect_lines += self.normal_lines(100, seed=3)
        stream = parse(detect_lines)
        evaluation = evaluate_split(
            stream,
            TRAINING_ATTACKS,
            profiles,
            factors={p: ToleranceFactors(6, 6, 1.5 if p is ProtocolCategory.UDP else None)
                     for p in ProtocolCategory},
            record_window=100,
        )
        report = evaluation.per_protocol[TCP]
        assert report.detection_rate == 1.0
        assert report.false_positive_rate == 0.0
        assert evaluation.overall == report
        (row,) = evaluation.breakdown
        assert (row.attack, row.detected, row.total) == ("neptune", 100, 100)

    def test_detects_volume_burst_on_icmp(self):
        # Echo-reply floods carry large payloads per record; the window
        # volume jump fires the upper volume condition.
        normal = self.normal_lines(300, proto="icmp", service="eco_i", low=30, high=90, seed=4)
        profiles = build_profiles(parse(normal), record_window=100)
        stream = parse(
            self.normal_lines(100, proto="icmp", service="eco_i", low=30, high=90, seed=5)
            + [record_line(proto="icmp", service="ecr_i", flag="SF",
                           src=1032, dst=0, label="smurf.")] * 100
        )
        evaluation = evaluate_split(stream, TRAINING_ATTACKS, profiles, record_window=100)
        report = evaluation.per_protocol[ICMP]
        assert report.detection_rate == 1.0
        assert report.false_positive_rate == 0.0

    def test_detects_volume_drop_on_udp(self):
        # Fragment-attack records carry almost no bytes; the volume drop
        # below the UDP lower bound fires.  r3 is widened beyond the
        # tuned 1.5 so ordinary dips in this small fixture stay quiet.
        normal = self.normal_lines(300, proto="udp", service="domain_u", seed=6)
        profiles = build_profiles(parse(normal), record_window=100)
        stream = parse(
            self.normal_lines(100, proto="udp", service="domain_u", seed=7)
            + [record_line(proto="udp", service="private", flag="SF",
                           src=28, dst=0, label="teardrop.")] * 100
        )
        factors = {
            p: ToleranceFactors(6, 8, 6.0) if p is ProtocolCategory.UDP else ToleranceFactors(6, 6)
            for p in ProtocolCategory
        }
        evaluation = evaluate_split(stream, TRAINING_ATTACKS, profiles,
                                    factors=factors, record_window=100)
        report = evaluation.per_protocol[ProtocolCategory.UDP]
        assert report.detection_rate == 1.0
        assert report.false_positive_rate == 0.0

    def test_unprofiled_protocol_counts_undetected(self):
        train = parse(self.normal_lines(400, seed=1))
        profiles = build_profiles(train, record_window=100)
        stream = parse(
            [record_line(proto="icmp", service="ecr_i", src=1032, dst=0, label="smurf.")] * 100
        )
        evaluation = evaluate_split(stream, TRAINING_ATTACKS, profiles, record_window=100)
        assert evaluation.per_protocol[ICMP].detection_rate == 0.0


def _pinned_lines(seed, plan):
    """The records of `plan` ({protocol token: [(count, label, service, flag, src range)]})
    in a seeded random order that keeps each protocol's own order."""
    rng = random.Random(seed)
    streams = []
    for proto, runs in plan.items():
        stream = []
        for count, label, service, flag, (low, high) in runs:
            for i in range(count):
                stream.append(record_line(proto=proto, service=service.format(i=i), flag=flag,
                                          src=rng.randint(low, high), dst=rng.randint(0, low),
                                          label=label))
        streams.append(stream[::-1])
    lines = []
    while any(streams):
        lines.append(rng.choice([s for s in streams if s]).pop())
    return lines


# Record windows of 10.  UDP has one full window of normal training records,
# so it gets no profile; every protocol ends in a partial window.
_PINNED_TRAIN = {
    "tcp": [(60, "normal.", "http", "SF", (400, 600)), (10, "neptune.", "p{i}", "S0", (0, 0)),
            (12, "normal.", "smtp", "SF", (400, 600)), (3, "satan.", "p{i}", "REJ", (0, 0)),
            (3, "neptune.", "p{i}", "S0", (0, 0))],
    "udp": [(14, "normal.", "domain_u", "SF", (40, 60)), (12, "teardrop.", "private", "SF", (28, 28))],
    "icmp": [(40, "normal.", "eco_i", "SF", (30, 90)), (10, "smurf.", "ecr_i", "SF", (1032, 1032)),
             (5, "normal.", "eco_i", "SF", (30, 90)), (5, "pod.", "ecr_i", "SF", (1480, 1480)),
             (3, "normal.", "eco_i", "SF", (30, 90))],
}
_PINNED_TEST = {
    "tcp": [(30, "normal.", "http", "SF", (400, 600)), (10, "neptune.", "p{i}", "S0", (0, 0)),
            (9, "normal.", "http", "SF", (400, 600)), (1, "apache2.", "http", "SF", (400, 600)),
            (10, "back.", "http", "SF", (54000, 55000)), (10, "normal.", "http", "SF", (400, 600)),
            (5, "normal.", "http", "SF", (400, 600)), (2, "apache2.", "http", "SF", (400, 600))],
    "udp": [(20, "normal.", "domain_u", "SF", (40, 60)), (10, "teardrop.", "private", "SF", (28, 28)),
            (10, "udpstorm.", "echo", "SF", (1000, 1000)), (5, "normal.", "domain_u", "SF", (40, 60))],
    "icmp": [(20, "normal.", "eco_i", "SF", (30, 90)), (10, "smurf.", "ecr_i", "SF", (1032, 1032)),
             (9, "normal.", "eco_i", "SF", (30, 90)), (1, "pod.", "ecr_i", "SF", (90, 90)),
             (8, "normal.", "eco_i", "SF", (30, 90)), (2, "pod.", "ecr_i", "SF", (1480, 1480)),
             (4, "smurf.", "ecr_i", "SF", (1032, 1032))],
}


class TestKddPinned:
    """SHA-256 of `fvba kdd`'s score table, breakdown and standard output on a
    mixed TCP/UDP/ICMP pair of splits; a rewrite of the KDD-99 path must leave
    every byte in place."""

    def test_output_digests(self, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("\n".join(_pinned_lines(31, _PINNED_TRAIN)) + "\n")
        test.write_text("\n".join(_pinned_lines(32, _PINNED_TEST)) + "\n")
        scores, breakdown = tmp_path / "scores.tsv", tmp_path / "breakdown.tsv"
        assert main(["kdd", "--train", str(train), "--test", str(test), "--record-window", "10",
                     "--out", str(scores), "--breakdown-out", str(breakdown)]) == 0
        digests = [hashlib.sha256(data).hexdigest() for data in (
            scores.read_bytes(), breakdown.read_bytes(), capsys.readouterr().out.encode())]
        assert digests == [
            "d6b632c70e57f8b8f5213be7e958b7c195acbb30c8b19ecf4991f2fcd08a0d5a",
            "a37ad08b6359249643f2ac446718a6343b68269813a2bef8a3c4991b54d349b1",
            "a8d941d013328ce98174f7909b3521c0c3d8f5a4994944d9243d4165498d1236",
        ]
