"""`io.TokenIndex` against a first-appearance dict, directly and through the
two chunk decoders, with tokens that recur across many small chunks."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunked import chunk_bytes
from fvba import io as fio
from fvba.errors import ParseError
from fvba.kdd import parse
from fvba.model import FlowKey, ProtocolCategory

# The index's own hash, and one under which every token collides.
HASHES = {
    "hash": fio._token_hash,
    "constant": lambda keys: np.zeros(keys.shape[1], dtype=np.uint64),
}


@st.composite
def texts(draw, alphabet="abA.\x00\xe9"):
    """Texts of 1-40 bytes (multiples of 8 drawn often), many sharing their
    first 8 or 16 bytes, with NUL bytes and a two-byte character."""
    length = draw(st.integers(1, 40) | st.sampled_from([8, 16, 24, 32, 40]))
    prefix = draw(st.sampled_from(["", "a" * 8, "a\x00b" * 6]))
    text = prefix + draw(st.text(st.sampled_from(alphabet), min_size=length, max_size=length))
    return text.encode()[:length].decode("utf-8", "ignore") or "a"


@contextlib.contextmanager
def with_hash(name: str):
    """Route tokens by HASHES[name] instead of the index's own hash."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fio, "_token_hash", HASHES[name])
        yield


@given(st.lists(texts(), min_size=1, max_size=20))
def test_keys_are_the_length_and_little_endian_words(tokens):
    codes, starts, ends = fio.split_fields(
        "".join(token + "\t\n" for token in tokens).encode(), b"\t", 2, "fields")
    keys = fio.token_keys(codes, starts[:, 0], ends[:, 0])
    for column, token in zip(keys.T.tolist(), tokens):
        data = token.encode()
        assert column == [len(data), *(int.from_bytes(data[at : at + 8], "little")
                                       for at in range(0, 8 * len(column) - 8, 8))]


@pytest.mark.parametrize("hash_name", HASHES)
class TestTokenIndex:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_ids_match_a_first_appearance_dict(self, hash_name, data):
        # Chunks of tokens from one small pool, so that they recur.
        pool = st.sampled_from(data.draw(st.lists(texts(), min_size=1, max_size=12)))
        chunks = data.draw(st.lists(st.lists(pool, min_size=1, max_size=30), min_size=1,
                                    max_size=8))
        calls = []

        def parse_text(text: str) -> int:
            calls.append(text)
            return len(calls) - 1

        expected: dict[str, int] = {}
        with with_hash(hash_name):
            index = fio.TokenIndex(parse_text)
            for chunk in chunks:
                codes, starts, ends = fio.split_fields(
                    "".join(token + "\t\n" for token in chunk).encode(), b"\t", 2, "fields")
                found = index(codes, starts[:, 0], ends[:, 0], starts[:, 0])
                assert found.tolist() == [expected.setdefault(token, len(expected))
                                          for token in chunk]
        # Each distinct text was parsed once, in order of first appearance.
        assert calls == list(expected)


SPELLINGS = {ProtocolCategory.TCP: ["TCP", "tcp", "Tcp"], ProtocolCategory.UDP: ["UDP", "udp"]}


@st.composite
def event_files(draw):
    """Event lines over a few flows, each flow written in several spellings
    (protocol case, zero-padded ports), and the flow key of each line."""
    keys = draw(st.lists(st.builds(FlowKey, st.sampled_from(list(SPELLINGS)), texts(), texts(),
                                   st.integers(0, 65535), st.integers(0, 65535)),
                         min_size=1, max_size=6))
    lines, flows = [], []
    for number in range(draw(st.integers(1, 60))):
        key = draw(st.sampled_from(keys))
        ports = [str(port).zfill(draw(st.integers(1, 6))) for port in (key.src_port, key.dst_port)]
        lines.append(f"{number}\t{draw(st.sampled_from(SPELLINGS[key.protocol]))}"
                     f"\t{key.src_addr}\t{ports[0]}\t{key.dst_addr}\t{ports[1]}\t1\n")
        flows.append(key)
    return "".join(lines), flows


@st.composite
def kdd_files(draw):
    """KDD lines over a few (protocol, service, flag) flows and labels in
    several spellings (case, trailing dots), and each line's flow and label."""
    flows = draw(st.lists(st.tuples(st.sampled_from(["tcp", "udp", "icmp"]),
                                    texts(), texts()), min_size=1, max_size=6))
    labels = draw(st.lists(texts("abA\x00\xe9").map(lambda label: label + "." * (len(label) % 3))
                           | st.sampled_from(["normal.", "SMURF", "smurf.."]),
                           min_size=1, max_size=4))
    lines, records = [], []
    for _ in range(draw(st.integers(1, 40))):
        flow, label = draw(st.sampled_from(flows)), draw(st.sampled_from(labels))
        lines.append(",".join(["0", *flow, "1", "2", *["0"] * 35, label]) + "\n")
        records.append((flow, label.rstrip(".").lower()))
    return "".join(lines), records


@pytest.mark.parametrize("hash_name", HASHES)
class TestDecodersIntern:
    """Both decoders, with chunks of a few lines, against a first-appearance
    dict of the parsed flows and labels."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("tokens") / "input.txt"

    @given(file=event_files(), size=st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_load_events(self, path, hash_name, file, size):
        text, flows = file
        path.write_bytes(text.encode())
        with chunk_bytes(size), with_hash(hash_name):
            events = fio.load_events(path)
        ids = {key: index for index, key in enumerate(dict.fromkeys(flows))}
        assert events.keys == tuple(ids)
        assert events.flow.tolist() == [ids[key] for key in flows]

    @given(file=kdd_files(), size=st.integers(1, 800))
    @settings(max_examples=100, deadline=None)
    def test_kdd_parse(self, path, hash_name, file, size):
        text, records = file
        path.write_bytes(text.encode())
        with chunk_bytes(size), with_hash(hash_name):
            table = parse(path)
        flows = {flow: index for index, flow in enumerate(dict.fromkeys(f for f, _ in records))}
        labels = {label: index for index, label in enumerate(dict.fromkeys(l for _, l in records))}
        assert [(key.protocol.value.lower(), key.src_addr, key.dst_addr)
                for key in table.keys] == list(flows)
        assert table.labels == tuple(labels)
        assert table.flow.tolist() == [flows[flow] for flow, _ in records]
        assert table.label.tolist() == [labels[label] for _, label in records]

    def test_bad_key_first_seen_in_a_later_chunk(self, tmp_path, hash_name):
        # Lines 1-30 hold good keys; line 31 is the first of a bad one.
        good = [f"{i}\tTCP\tc{i % 3}\t1\tsrv\t80\t10\n" for i in range(30)]
        bad = "30\ttcp\tc0\t1\tsrv\t99999\t10\n"
        path = tmp_path / "events.tsv"
        path.write_text("".join(good) + bad + bad.replace("30", "31", 1))
        with chunk_bytes(64), with_hash(hash_name):
            with pytest.raises(ParseError, match="^line 31: port out of range: 99999$"):
                fio.load_events(path)

    def test_bad_label_first_seen_in_a_later_chunk(self, tmp_path, hash_name):
        line = ",".join(["0", "tcp", "http", "SF", "1", "2", *["0"] * 35]) + ",{}\n"
        path = tmp_path / "records.csv"
        path.write_text(line.format("normal.") * 30 + line.format("smurf. ") * 2)
        with chunk_bytes(200), with_hash(hash_name):
            with pytest.raises(ParseError, match="^line 31: label padded with whitespace"):
                parse(path)
