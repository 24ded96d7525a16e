import random

import pytest
from hypothesis import given, settings, strategies as st

from fvba.characterizer import (
    FlowBand,
    SigmaLimits,
    characterize,
    classify_flows,
    sigma_limits,
    throttle_directives,
    volume_excess_ratio,
)
from fvba.errors import ParameterError
from event_rows import attack_verdicts, series
from fvba.model import FlowKey, ProtocolCategory
from fvba.profiler import NormalProfile


def key(i):
    return FlowKey(ProtocolCategory.TCP, f"h{i}", "srv", 1000 + i, 80)


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
    def band_of(self, count, previously_active=frozenset(), limits=LIMITS):
        (c,) = classify_flows({key(0): count}, limits, previously_active)
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
        c = self.band_of(165, previously_active={key(0)})
        assert c.band is FlowBand.SUSPICIOUS and c.excluded_by_history

    def test_history_never_promotes(self):
        c = self.band_of(100, previously_active={key(0)})
        assert c.band is FlowBand.NORMAL and not c.excluded_by_history
        c = self.band_of(140, previously_active={key(0)})
        assert c.band is FlowBand.SUSPICIOUS and not c.excluded_by_history

    def test_matches_interval_oracle_on_random_flows(self):
        # Brute-force banding by interval membership, including demotion.
        rng = random.Random(11)
        limits = sigma_limits(5000, 800)
        flows = {key(i): rng.randrange(0, 12_000) for i in range(10_000)}
        history = {k for k in flows if rng.random() < 0.3}
        got = {c.key: (c.band, c.excluded_by_history)
               for c in classify_flows(flows, limits, history)}
        mismatches = 0
        for k, count in flows.items():
            if count > limits.ucl_as or count < limits.lcl_as:
                want = (FlowBand.SUSPICIOUS, True) if k in history else (FlowBand.ATTACK, False)
            elif limits.lcl_ss <= count <= limits.ucl_ss:
                want = (FlowBand.NORMAL, False)
            else:
                want = (FlowBand.SUSPICIOUS, False)
            if got[k] != want:
                mismatches += 1
        assert mismatches == 0

    @given(
        st.dictionaries(st.integers(0, 40), st.integers(0, 300), max_size=40),
        st.sets(st.integers(0, 40), max_size=20),
        st.floats(0, 200, allow_nan=False),
        st.floats(0, 40, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_bands_partition_the_input(self, raw, history_ids, mean, std):
        flows = {key(i): b for i, b in raw.items()}
        history = {key(i) for i in history_ids}
        classifications = classify_flows(flows, sigma_limits(mean, std), history)
        assert {c.key for c in classifications} == set(flows)
        assert len(classifications) == len(flows)
        for c in classifications:
            assert c.band in (FlowBand.NORMAL, FlowBand.SUSPICIOUS, FlowBand.ATTACK)


class TestThrottleDirectives:
    def test_no_attack_no_throttle(self):
        (d,) = throttle_directives([key(0)], 0.0)
        assert d.rate_multiplier == 1.0

    def test_half_rate_at_strength_one(self):
        (d,) = throttle_directives([key(0)], 1.0)
        assert d.rate_multiplier == 0.5

    def test_tenth_rate_at_strength_nine(self):
        (d,) = throttle_directives([key(0)], 9.0)
        assert d.rate_multiplier == pytest.approx(0.1)

    def test_negative_strength_rejected(self):
        with pytest.raises(ParameterError):
            throttle_directives([key(0)], -0.5)

    def test_non_increasing_across_strength_grid(self):
        multipliers = [throttle_directives([key(0)], s / 10)[0].rate_multiplier
                       for s in range(0, 200)]
        assert all(a >= b for a, b in zip(multipliers, multipliers[1:]))
        assert all(0 < m <= 1 for m in multipliers)

    def test_output_sorted_by_flow(self):
        directives = throttle_directives({key(3), key(1), key(2)}, 1.0)
        assert [d.flow for d in directives] == [key(1), key(2), key(3)]


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
        flagged window fired the upper volume condition."""
        verdicts = attack_verdicts(ProtocolCategory.TCP, range(len(windows)),
                                   [attacked for attacked, _ in windows])
        samples = series([{key(i): count for i, count in flows.items()} for _, flows in windows],
                         ProtocolCategory.TCP)
        return list(characterize(samples, verdicts, self.PROFILE))

    def test_yields_flagged_windows_only(self):
        results = self.run([(False, {0: 100}), (True, {0: 100}), (False, {0: 100})])
        assert [window for window, _, _ in results] == [1]

    def test_first_window_has_no_history(self):
        ((_, (c,), directives),) = self.run([(True, {0: 500})])
        assert c.band is FlowBand.ATTACK and not c.excluded_by_history
        assert directives == []

    def test_history_from_unflagged_previous_window(self):
        ((window, classifications, _),) = self.run([(False, {0: 100}), (True, {0: 500, 1: 500})])
        bands = {c.key: (c.band, c.excluded_by_history) for c in classifications}
        assert window == 1
        assert bands == {key(0): (FlowBand.SUSPICIOUS, True), key(1): (FlowBand.ATTACK, False)}

    def test_history_from_flagged_previous_window(self):
        # Window 1's history is the flow map of flagged window 0; window 2's
        # that of flagged window 1, not window 0's.
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

    def test_exactly_suspicious_flows_throttled_sorted(self):
        # Flow 3 is history-demoted, flows 5 and 2 lie between the limits.
        ((_, classifications, directives),) = self.run([
            (False, {3: 10}),
            (True, {5: 140, 4: 100, 3: 500, 2: 150, 1: 500}),
        ])
        suspicious = {c.key for c in classifications if c.band is FlowBand.SUSPICIOUS}
        assert suspicious == {key(2), key(3), key(5)}
        assert [d.flow for d in directives] == [key(2), key(3), key(5)]
        # Volume 1390 is 39% above the mean of 1000.
        assert all(d.rate_multiplier == 1 / (1 + 390 / 1000) for d in directives)
