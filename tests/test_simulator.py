import hashlib
import io
import math
import re
import tracemalloc

import pytest

from event_rows import rows
from fvba import io as fio
from fvba.errors import ParameterError
from fvba.model import NORMAL_LABEL, ProtocolCategory
from fvba.detector import detect_profiled
from fvba.profiler import build_profile, windowize
from fvba.simulator import (
    HIGH_RATE_LABEL,
    LOW_RATE_LABEL,
    MAX_EXPECTED_EVENTS,
    ScenarioConfig,
    ScenarioKind,
    generate,
)

TCP = ProtocolCategory.TCP
UDP = ProtocolCategory.UDP


def small_attack(kind=ScenarioKind.HIGH_RATE_DISRUPTIVE, **kw):
    defaults = dict(
        kind=kind,
        legit_clients=5,
        zombies=4,
        attack_start=5.0,
        attack_end=20.0,
        duration=30.0,
        seed=99,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_attack_interval_validation(self):
        with pytest.raises(ParameterError):
            small_attack(attack_start=20.0, attack_end=5.0)
        with pytest.raises(ParameterError):
            small_attack(attack_end=40.0)

    def test_zombies_zero_iff_attack_free(self):
        with pytest.raises(ParameterError):
            small_attack(zombies=0)
        with pytest.raises(ParameterError):
            ScenarioConfig(kind=ScenarioKind.ATTACK_FREE, legit_clients=5, zombies=3)

    def test_attack_free_spans_the_run(self):
        # Shorter than the default attack_end of 50 s.
        config = ScenarioConfig(kind=ScenarioKind.ATTACK_FREE, legit_clients=2, duration=10.0)
        assert (config.attack_start, config.attack_end) == (0.0, 10.0)

    @pytest.mark.parametrize("field", ["duration", "attack_start", "attack_end",
                                       "legit_request_rate", "zombie_rate_bps"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_times_and_rates_rejected(self, field, value):
        with pytest.raises(ParameterError, match="finite"):
            small_attack(**{field: value})

    def test_expected_event_count_bounded(self):
        # Rejected in the constructor, before generate allocates anything.
        with pytest.raises(ParameterError, match=r"expects 6e\+13 events"):
            ScenarioConfig(kind=ScenarioKind.ATTACK_FREE, legit_clients=2, duration=1e12)
        # 10**5 zombies at 3 Mb/s send 3.75e7 packets/s over the 25 s attack,
        # on top of 90,000 request chunks.
        with pytest.raises(ParameterError, match=r"expects 9.376e\+08 events"):
            ScenarioConfig(kind=ScenarioKind.HIGH_RATE_DISRUPTIVE, legit_clients=40,
                           zombies=100_000)
        # Flow counts share the bound, so no count overflows the float arithmetic.
        with pytest.raises(ParameterError, match="legitimate clients must lie in"):
            ScenarioConfig(kind=ScenarioKind.ATTACK_FREE, legit_clients=10**400)
        with pytest.raises(ParameterError, match="zombie count must lie in"):
            ScenarioConfig(kind=ScenarioKind.HIGH_RATE_DISRUPTIVE, legit_clients=40,
                           zombies=10**400)
        # The default high-rate scenario expects 90,000 chunks and 937,500 packets.
        assert 1_027_500 <= MAX_EXPECTED_EVENTS
        ScenarioConfig(kind=ScenarioKind.HIGH_RATE_DISRUPTIVE, legit_clients=40, zombies=100)

    def test_kind_parse(self):
        assert ScenarioKind.parse("varied") is ScenarioKind.VARIED_RATE
        with pytest.raises(ParameterError):
            ScenarioKind.parse("mega")


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        config = small_attack()
        first = generate(config)
        second = generate(config)
        assert first.events == second.events
        assert first.truth == second.truth

    def test_seed_changes_stream(self):
        assert generate(small_attack()).events != generate(small_attack(seed=100)).events

    def test_events_sorted_and_valid(self):
        stream = generate(small_attack())
        events = rows(stream.events)
        times = [e.timestamp for e in events]
        assert times == sorted(times)
        assert all(e.bytes >= 1 and e.timestamp >= 0 for e in events)
        assert all(e.key in stream.truth for e in events)

    def test_attack_events_confined_to_interval(self):
        stream = generate(small_attack())
        for e in rows(stream.events):
            if stream.truth[e.key] != NORMAL_LABEL:
                assert 5.0 <= e.timestamp < 20.0

    def test_attack_free_has_no_udp_and_normal_truth(self):
        stream = generate(ScenarioConfig(kind=ScenarioKind.ATTACK_FREE, legit_clients=10,
                                         duration=20.0, seed=3))
        assert all(e.key.protocol is TCP for e in rows(stream.events))
        assert all(label == NORMAL_LABEL for label in stream.truth.values())
        assert stream.attack_windows(0.2) == set()

    def test_legit_flows_tcp_zombies_udp(self):
        stream = generate(small_attack())
        for k, label in stream.truth.items():
            assert k.protocol is (UDP if label != NORMAL_LABEL else TCP)

    def test_varied_rate_split_labels(self):
        stream = generate(small_attack(kind=ScenarioKind.VARIED_RATE, zombies=10))
        labels = [label for label in stream.truth.values() if label != NORMAL_LABEL]
        assert labels.count(HIGH_RATE_LABEL) == 5
        assert labels.count(LOW_RATE_LABEL) == 5

    def test_high_rate_byte_budget(self):
        # Expected bytes per zombie: rate * interval / 8, within 5%
        # (exponential-gap jitter); also holds for the aggregate.
        config = small_attack(zombies=5, attack_start=5.0, attack_end=30.0, duration=40.0)
        stream = generate(config)
        expected_per_zombie = config.zombie_rate_bps * 25.0 / 8.0
        per_zombie: dict = {}
        for e in rows(stream.events):
            if stream.truth[e.key] != NORMAL_LABEL:
                per_zombie[e.key] = per_zombie.get(e.key, 0) + e.bytes
        assert len(per_zombie) == 5
        for total in per_zombie.values():
            assert total == pytest.approx(expected_per_zombie, rel=0.05)
        assert sum(per_zombie.values()) == pytest.approx(5 * expected_per_zombie, rel=0.05)

    def test_window_truth_spans_stream(self):
        stream = generate(small_attack())
        truth = stream.window_truth(0.2)
        indices = sorted(truth)
        assert indices == list(range(indices[0], indices[-1] + 1))
        attacked = {w for w, flag in truth.items() if flag}
        assert attacked == stream.attack_windows(0.2)
        # Attack windows sit inside the configured interval.
        assert min(attacked) >= int(5.0 / 0.2) - 1
        assert max(attacked) <= int(20.0 / 0.2)

    @pytest.mark.parametrize("length", [0.0, math.nan, -0.2, 1e-300, 1e-6])
    def test_window_truth_rejects_as_windowize_does(self, length):
        stream = generate(small_attack())
        with pytest.raises(ParameterError) as rejected:
            windowize(stream.events, length)
        with pytest.raises(ParameterError, match=f"^{re.escape(str(rejected.value))}$"):
            stream.window_truth(length)

    def test_attack_windows_match_per_event_oracle(self):
        stream = generate(small_attack(kind=ScenarioKind.VARIED_RATE, zombies=6))
        for length in (0.2, 0.25, 1.0):
            expected = {
                int((e.timestamp + 1e-9) / length)
                for e in rows(stream.events)
                if stream.truth[e.key] != NORMAL_LABEL
            }
            assert stream.attack_windows(length) == expected

    def test_diluted_uses_low_rate(self):
        stream = generate(small_attack(kind=ScenarioKind.DILUTED_LOW_RATE))
        attack_bytes = sum(
            e.bytes for e in rows(stream.events) if stream.truth[e.key] != NORMAL_LABEL
        )
        expected = 4 * 1e5 * 15.0 / 8.0
        assert attack_bytes == pytest.approx(expected, rel=0.2)


def _short(kind, **kw):
    return ScenarioConfig(kind=kind, legit_clients=5, attack_start=2.0, attack_end=6.0,
                          duration=10.0, **kw)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGeneratePinned:
    """SHA-256 of the event, truth and window-truth text of one scenario per
    kind, and of one whose request size is not a multiple of the chunk size;
    a rewrite of `generate` must leave every byte in place."""

    @pytest.mark.parametrize("config,events,truth,window_truth", [
        (_short(ScenarioKind.ATTACK_FREE, seed=1),
         "161fee5939a90d1766af95aebd27490af2da5b9b59fa3aa7bc8a59738ef86733",
         "90f0f04444e7cda2638d526b00b955c5e8f885a6c6087a73f2d732c75e6bad1d",
         "fea2b6af241cf50863248d6716a41de8f0c9b97a29ca787f682f0786ec24ac16"),
        (_short(ScenarioKind.HIGH_RATE_DISRUPTIVE, zombies=4, seed=2),
         "932784db4317750a5b1405d21844ef473583d029ce4c7e082fadc198971c6e2f",
         "9ddb685ee6280fd2641a02d33bddb5658918bb3dbe8ad2a2aa9eefea475262e1",
         "6805950e2b8df5c80cf9cf3723f57bb5e586cc884d0f2d7e9e17d2f7a56853f3"),
        (_short(ScenarioKind.DILUTED_LOW_RATE, zombies=20, seed=3),
         "1b341c976aff964a0ec3eebd785593630fa0638ac4ce66d397b08080f736518c",
         "ddce7a2a075292357e9e82776d45584b6ab870f002280a4daed05ea15030c115",
         "6805950e2b8df5c80cf9cf3723f57bb5e586cc884d0f2d7e9e17d2f7a56853f3"),
        (_short(ScenarioKind.VARIED_RATE, zombies=8, seed=4),
         "349fdfc62f227a07fe8669193b18a1a11fb24a368f64cbadc22a1130bed0e10c",
         "29e33c623ebca952442bad62badb9b07936024ede0c106cc5f21a9ab51e41e43",
         "6805950e2b8df5c80cf9cf3723f57bb5e586cc884d0f2d7e9e17d2f7a56853f3"),
        # Requests of 100 kB in 30 kB chunks end in a 10 kB chunk.
        (_short(ScenarioKind.HIGH_RATE_DISRUPTIVE, zombies=4, seed=5,
                legit_bytes_per_request=100_000, chunk_bytes=30_000),
         "5f0f133bccf76a2739d4212a8a5e60d00a91c647ff65057ebb1ae9dd5fedfb2d",
         "9ddb685ee6280fd2641a02d33bddb5658918bb3dbe8ad2a2aa9eefea475262e1",
         "6805950e2b8df5c80cf9cf3723f57bb5e586cc884d0f2d7e9e17d2f7a56853f3"),
    ], ids=["attack-free", "high-rate", "low-rate", "varied", "remainder-chunk"])
    def test_output_digests(self, config, events, truth, window_truth):
        stream = generate(config)
        text = io.StringIO()
        fio.dump_events(stream.events, text)
        assert _sha256(text.getvalue()) == events
        assert _sha256(fio.dump_truth(stream.truth)) == truth
        assert _sha256(fio.dump_window_truth(stream.window_truth(0.2))) == window_truth


def _traced_peak(call):
    """The result of `call()` and the most bytes traced while it ran,
    measured after one warm-up call, so that one-off set-up is not counted."""
    call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Bounds on the temporaries of the simulator, as numpy reports its
    buffers to tracemalloc, on a 205,162-event high-rate scenario."""

    CONFIG = ScenarioConfig(kind=ScenarioKind.HIGH_RATE_DISRUPTIVE, legit_clients=40,
                            zombies=100, attack_start=5.0, attack_end=10.0, duration=15.0,
                            seed=4)

    def test_generate_peak_near_its_columns(self):
        stream, peak = _traced_peak(lambda: generate(self.CONFIG))
        events = stream.events
        assert len(events) == 205_162
        columns = events.timestamp.nbytes + events.flow.nbytes + events.bytes.nbytes
        assert peak <= 1.5 * columns, peak / columns

    def test_window_truth_holds_no_per_event_copy(self):
        stream = generate(self.CONFIG)
        _, peak = _traced_peak(lambda: stream.window_truth(0.2))
        assert peak <= 4 * len(stream.events), peak / len(stream.events)


    def test_many_windows_hold_no_per_window_objects(self):
        # About 40,000 windows of 0.5 ms over 1,964 events: windowize and
        # detection keep a few int64 and bool columns per window.  Per-window
        # sample and verdict objects took 35 MB here.
        stream = generate(ScenarioConfig(kind=ScenarioKind.ATTACK_FREE, legit_clients=3,
                                         duration=20.0, seed=5))
        profile = build_profile(windowize(stream.events, 0.0005))
        verdicts, peak = _traced_peak(lambda: detect_profiled(
            {None: windowize(stream.events, 0.0005)}, {None: profile}))
        assert (len(stream.events), len(verdicts[None])) == (1_964, 39_670)
        assert peak <= 8e6, peak
