"""Synthetic flow-event generator for flooding-attack scenarios.

Generates the victim's inbound traffic directly (no network topology):
legitimate clients are TCP flows issuing Poisson-timed file requests,
each delivered in fixed-size chunks at the client link rate; zombies are
UDP flows emitting fixed-size packets with exponential gaps at a constant
mean bit rate inside the attack interval.

Three attack classes are supported: high-rate disruptive (every zombie at
the high rate), diluted low-rate (every zombie at the low rate) and
varied rate (a split between the two, built to evade entropy detectors).
Generation is deterministic for a fixed seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .io import DUMP_ROWS
from .model import NORMAL_LABEL, EventTable, FlowKey, ProtocolCategory
from .profiler import window_indices, window_span


class ScenarioKind(enum.Enum):
    HIGH_RATE_DISRUPTIVE = "high-rate"
    DILUTED_LOW_RATE = "low-rate"
    VARIED_RATE = "varied"
    ATTACK_FREE = "attack-free"


# Attack labels by zombie rate class.
HIGH_RATE_LABEL = "highrate"
LOW_RATE_LABEL = "lowrate"

# Most events a scenario may expect, and most clients or zombies it may have.  The
# default 75 s high-rate scenario expects about 1M; 20M events take ~0.4 GB as columns.
MAX_EXPECTED_EVENTS = 20_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one synthetic scenario.

    `zombie_rate_bps` is the high-rate class (used by every zombie in a
    high-rate scenario); `zombie_low_rate_bps` the low-rate class (used
    by every zombie in a diluted scenario).  A varied-rate scenario puts
    `high_rate_fraction` of the zombies on the high rate and the rest on
    the low rate.  An attack-free scenario's attack interval spans the run.
    """

    kind: ScenarioKind
    legit_clients: int
    legit_request_rate: float = 3.0
    legit_bytes_per_request: int = 125_000
    client_link_rate_bps: float = 8e6
    chunk_bytes: int = 12_500
    zombies: int = 0
    zombie_rate_bps: float = 3e6
    zombie_low_rate_bps: float = 1e5
    high_rate_fraction: float = 0.5
    zombie_packet_bytes: int = 1000
    attack_start: float = 25.0
    attack_end: float = 50.0
    duration: float = 75.0
    seed: int = 0

    def __post_init__(self):
        if self.kind is ScenarioKind.ATTACK_FREE:
            object.__setattr__(self, "attack_start", 0.0)
            object.__setattr__(self, "attack_end", self.duration)
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if not self.duration > 0:
            raise ParameterError(f"duration must be positive and finite, got {self.duration}")
        if not 0 < self.legit_clients <= MAX_EXPECTED_EVENTS:
            raise ParameterError(f"legitimate clients must lie in [1, {MAX_EXPECTED_EVENTS:,}]")
        if not (0 < self.legit_request_rate < math.inf and self.legit_bytes_per_request > 0):
            raise ParameterError("legitimate request rate (finite) and size must be positive")
        # Event sizes are int64.
        if not (0 < self.client_link_rate_bps < math.inf and 0 < self.chunk_bytes < 2**63):
            raise ParameterError("client link rate (finite) and chunk size (within int64) must"
                                 " be positive")
        if not (0 < self.zombie_rate_bps < math.inf and 0 < self.zombie_low_rate_bps < math.inf):
            raise ParameterError("zombie rates must be positive and finite")
        if not 0 < self.zombie_packet_bytes < 2**63:
            raise ParameterError("zombie packet size must be positive and within int64")
        if not 0.0 <= self.high_rate_fraction <= 1.0:
            raise ParameterError("high-rate fraction must lie in [0, 1]")
        if not -math.inf < self.attack_start < self.attack_end <= self.duration < math.inf:
            raise ParameterError("require finite attack_start < attack_end <= duration")
        if self.attack_start < 0:
            raise ParameterError(f"attack_start must be >= 0, got {self.attack_start}")
        if not 0 <= self.zombies <= MAX_EXPECTED_EVENTS:
            raise ParameterError(f"zombie count must lie in [0, {MAX_EXPECTED_EVENTS:,}]")
        if (self.zombies == 0) != (self.kind is ScenarioKind.ATTACK_FREE):
            raise ParameterError("zombies == 0 exactly for attack-free scenarios")
        # Mean event count (request chunks plus zombie packets), bounded before generating.
        chunks = -(-self.legit_bytes_per_request // self.chunk_bytes)
        high, low = _zombie_counts(self)
        zombie_bps = high * self.zombie_rate_bps + low * self.zombie_low_rate_bps
        expected = (self.legit_clients * self.legit_request_rate * self.duration * chunks
                    + zombie_bps / 8.0 / self.zombie_packet_bytes
                    * (self.attack_end - self.attack_start))
        if expected > MAX_EXPECTED_EVENTS:
            raise ParameterError(f"scenario expects {expected:.4g} events, more than the"
                                 f" {MAX_EXPECTED_EVENTS:,} one run may generate")


@dataclass
class LabeledEventStream:
    """A time-sorted event stream plus per-flow ground truth: `NORMAL_LABEL`
    or an attack name per flow key."""

    events: EventTable
    truth: dict[FlowKey, str]

    def window_truth(self, window_length: float) -> dict[int, bool]:
        """Per-window ground truth over the stream's full window span: whether
        a window holds an event of a flow labelled with an attack.

        Raises ParameterError for a window length or span that
        `profiler.window_span` rejects.
        """
        events = self.events
        first, last = window_span(events.timestamp, window_length)
        attack_flow = np.array([self.truth.get(k, NORMAL_LABEL) != NORMAL_LABEL
                                for k in events.keys], dtype=bool)
        # One flag per window of the span, set a slice of rows at a time.
        hit = np.zeros(last - first + 1, dtype=bool)
        for lo in range(0, len(events), DUMP_ROWS):
            hi = lo + DUMP_ROWS
            stamps = events.timestamp[lo:hi][attack_flow[events.flow[lo:hi]]]
            hit[window_indices(stamps, window_length) - first] = True
        return dict(zip(range(first, last + 1), hit.tolist()))


def _arrival_times(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Poisson-process arrival times on [0, duration)."""
    batch = max(16, int(rate * duration * 1.25) + 16)
    gaps = rng.exponential(1.0 / rate, size=batch)
    times = np.cumsum(gaps)
    while times[-1] < duration:
        gaps = rng.exponential(1.0 / rate, size=batch)
        times = np.concatenate([times, times[-1] + np.cumsum(gaps)])
    return times[times < duration]


def generate(config: ScenarioConfig) -> LabeledEventStream:
    """Generate the labelled event stream for a scenario.

    Deterministic for a fixed config (seed included): identical configs
    yield identical streams.
    """
    rng = np.random.default_rng(config.seed)
    # Per flow: its timestamps, in one part, and its full event size; for
    # clients also which events are the last chunk of a request.
    times_parts: list[np.ndarray] = []
    last_parts: list[np.ndarray] = []
    sizes: list[int] = []
    keys: list[FlowKey] = []
    truth: dict[FlowKey, str] = {}

    # Legitimate clients: one TCP flow per client, Poisson request times,
    # each request delivered in chunks at the client link rate.
    chunk_count = -(-config.legit_bytes_per_request // config.chunk_bytes)
    chunk_interval = config.chunk_bytes / (config.client_link_rate_bps / 8.0)
    remainder = config.legit_bytes_per_request - config.chunk_bytes * (chunk_count - 1)
    chunk_offsets = np.arange(chunk_count) * chunk_interval
    last_chunk = np.arange(chunk_count) == chunk_count - 1

    for i in range(config.legit_clients):
        key = FlowKey(ProtocolCategory.TCP, f"c{i:03d}", "srv", 40000 + i, 80)
        keys.append(key)
        truth[key] = NORMAL_LABEL
        sizes.append(config.chunk_bytes)
        starts = _arrival_times(rng, config.legit_request_rate, config.duration)
        times = (starts[:, None] + chunk_offsets[None, :]).ravel()
        inside = times < config.duration
        times_parts.append(times[inside])
        last_parts.append(np.tile(last_chunk, starts.size)[inside])

    # Zombies: one UDP flow each, fixed-size packets with exponential gaps
    # at the class mean rate, confined to the attack interval.
    high, low = _zombie_counts(config)
    zombie_rates = [config.zombie_rate_bps] * high + [config.zombie_low_rate_bps] * low
    attack_span = config.attack_end - config.attack_start
    for i, rate_bps in enumerate(zombie_rates):
        key = FlowKey(ProtocolCategory.UDP, f"z{i:03d}", "srv", 50000 + i, 9)
        keys.append(key)
        truth[key] = HIGH_RATE_LABEL if rate_bps == config.zombie_rate_bps else LOW_RATE_LABEL
        sizes.append(config.zombie_packet_bytes)
        packet_rate = rate_bps / 8.0 / config.zombie_packet_bytes
        times_parts.append(config.attack_start + _arrival_times(rng, packet_rate, attack_span))

    # At least one client is configured, so there is at least one part.  Each
    # full-length temporary goes as soon as its sorted copy exists.
    lengths = [part.size for part in times_parts]
    timestamp = np.concatenate(times_parts)
    del times_parts
    order = np.argsort(timestamp, kind="stable")
    timestamp = timestamp[order]
    flow = np.repeat(np.arange(len(keys), dtype=np.int32), lengths)[order]
    # Client parts come first, so the mask of the zombie parts is all False.
    last = np.zeros(order.size, dtype=bool)
    np.concatenate(last_parts, out=last[:sum(lengths[:config.legit_clients])])
    del last_parts
    last = last[order]
    del order
    counts = np.array(sizes, dtype=np.int64)[flow]
    counts[last] = remainder
    return LabeledEventStream(events=EventTable(timestamp, flow, counts, keys), truth=truth)


def _zombie_counts(config: ScenarioConfig) -> tuple[int, int]:
    """Numbers of zombies on the high and on the low rate."""
    if config.kind is ScenarioKind.ATTACK_FREE:
        return 0, 0
    if config.kind is ScenarioKind.HIGH_RATE_DISRUPTIVE:
        return config.zombies, 0
    if config.kind is ScenarioKind.DILUTED_LOW_RATE:
        return 0, config.zombies
    high = round(config.zombies * config.high_rate_fraction)
    return high, config.zombies - high
