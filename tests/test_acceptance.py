"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The dataset-backed
checks (criterion 6) need the two KDD-99 files; point FVBA_KDD_DIR at a
directory containing ``kddcup.data_10_percent.gz`` and ``corrected.gz``
(./data is tried by default) or they are skipped.
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fvba.characterizer import FlowBand, classify_flows, sigma_limits
from fvba.detector import (
    ToleranceFactors,
    TriggerCondition,
    compute_thresholds,
    detect_series,
)
from fvba.evaluation import ScoreReport, sweep
from fvba.kdd import (
    TESTING_ATTACKS,
    TRAINING_ATTACKS,
    build_profiles,
    evaluate_split,
    parse as parse_kdd,
    select_dos_and_normal,
)
from event_rows import series
from fvba.model import FlowKey, ProtocolCategory
from fvba.profiler import NormalProfile, build_profile, windowize
from fvba.simulator import ScenarioConfig, ScenarioKind, generate

TCP = ProtocolCategory.TCP
UDP = ProtocolCategory.UDP
ICMP = ProtocolCategory.ICMP
VOLUME_UPPER = TriggerCondition.VOLUME_UPPER
VOLUME_LOWER = TriggerCondition.VOLUME_LOWER
FLOW = TriggerCondition.FLOW

WINDOW_SECONDS = 0.2
OPERATING_FACTORS = ToleranceFactors(6.0, 6.0)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}{' - ' + detail if detail else ''}")


# -------------------------------------------------------------------------
# Criterion 1: threshold and control-limit arithmetic, exact, < 1 s.
# -------------------------------------------------------------------------

def test_criterion_1_threshold_arithmetic():
    rng = random.Random(1)
    started = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        mean = rng.uniform(0, 1e9)
        volume_std = rng.uniform(0, 1e8)
        flow_std = rng.uniform(0, 1e4)
        r1, r2, r3 = (rng.uniform(0.01, 50) for _ in range(3))
        profile = NormalProfile(UDP, 0.2, 10, mean, volume_std, mean, flow_std, mean, volume_std)
        thresholds = compute_thresholds(profile, ToleranceFactors(r1, r2, r3))
        if thresholds.x_th != r1 * volume_std:
            failures += 1
        if thresholds.v_th != r2 * flow_std:
            failures += 1
        if thresholds.x_th_lower != r3 * volume_std:
            failures += 1
        per_flow_mean = rng.uniform(-1e6, 1e6)
        per_flow_std = rng.uniform(0, 1e6)
        limits = sigma_limits(per_flow_mean, per_flow_std)
        if limits.ucl_ss != per_flow_mean + 3 * per_flow_std:
            failures += 1
        if limits.lcl_ss != per_flow_mean - 3 * per_flow_std:
            failures += 1
        if limits.ucl_as != per_flow_mean + 6 * per_flow_std:
            failures += 1
        if limits.lcl_as != per_flow_mean - 6 * per_flow_std:
            failures += 1
        if not limits.lcl_as <= limits.lcl_ss <= limits.ucl_ss <= limits.ucl_as:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 1.0
    report(1, ok, f"{failures} mismatches over 10^4 triples in {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 1.0


# -------------------------------------------------------------------------
# Criterion 2: detection-branch truth table, zero mismatches.
# -------------------------------------------------------------------------

def _sample_for(proto, volume, flows, index=0):
    """A series of one window whose flows carry `volume` bytes in all."""
    per_flow = {}
    for i in range(flows):
        port = 0 if proto is ICMP else 1000 + i
        share = volume - (flows - 1) if i == 0 else 1
        per_flow[FlowKey(proto or TCP, f"h{i}", "srv", port, port)] = share
    return series([per_flow], proto, first=index)


def test_criterion_2_detection_truth_table():
    mismatches = 0
    cases = 0
    x_th, v_th, x_lower = 60.0, 12.0, 15.0
    for proto in (TCP, UDP, ICMP, None):
        profile = NormalProfile(proto, 0.2, 10, 1000.0, 10.0, 20.0, 2.0, 100.0, 10.0)
        factors = ToleranceFactors(6, 6, 1.5) if proto is UDP else ToleranceFactors(6, 6)
        thresholds = compute_thresholds(profile, factors)
        assert (thresholds.x_th, thresholds.v_th) == (x_th, v_th)
        if proto is UDP:
            assert thresholds.x_th_lower == x_lower
        # Deviations: below the lower bound, at it, inside, at the upper
        # threshold, above it - exact integers so equality cases are exact.
        for vol_dev in (-16, -15, -14, 0, 59, 60, 61):
            for flow_dev in (-5, 0, 11, 12, 13):
                cases += 1
                sample = _sample_for(proto, 1000 + vol_dev, 20 + flow_dev)
                (verdict,) = detect_series(sample, profile, thresholds)
                expected = set()
                if vol_dev > x_th:
                    expected.add(VOLUME_UPPER)
                if flow_dev > v_th:
                    expected.add(FLOW)
                if proto is UDP and -vol_dev > x_lower:
                    expected.add(VOLUME_LOWER)
                if verdict.triggered != expected or verdict.is_attack != bool(expected):
                    mismatches += 1
    report(2, mismatches == 0, f"{mismatches} mismatches over {cases} enumerated cases")
    assert mismatches == 0


# -------------------------------------------------------------------------
# Criterion 3: six-sigma banding vs a brute-force oracle, 10^4 flows.
# -------------------------------------------------------------------------

def test_criterion_3_classification_oracle():
    rng = random.Random(3)
    limits = sigma_limits(5_000.0, 750.0)
    flows = {
        FlowKey(TCP, f"h{i}", "srv", 1000 + (i % 60000), 80): rng.randrange(0, 11_000)
        for i in range(10_000)
    }
    history = {key for key in flows if rng.random() < 0.25}
    got = {c.key: (c.band, c.excluded_by_history)
           for c in classify_flows(flows, limits, history)}
    mismatches = 0
    for key, count in flows.items():
        if count > limits.ucl_as or count < limits.lcl_as:
            expected = (FlowBand.SUSPICIOUS, True) if key in history else (FlowBand.ATTACK, False)
        elif limits.lcl_ss <= count <= limits.ucl_ss:
            expected = (FlowBand.NORMAL, False)
        else:
            expected = (FlowBand.SUSPICIOUS, False)
        if got[key] != expected:
            mismatches += 1
    bands = {}
    for band, _ in got.values():
        bands[band] = bands.get(band, 0) + 1
    ok = mismatches == 0 and len(got) == len(flows)
    report(3, ok, f"{mismatches} mismatches over 10^4 flows, bands={ {b.value: n for b, n in bands.items()} }")
    assert ok


# -------------------------------------------------------------------------
# Criteria 4 and 5: desk-scale simulation scenarios.
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def simulation():
    """Aggregate-series pipeline over the desk-scale scenario set."""
    train = generate(ScenarioConfig(kind=ScenarioKind.ATTACK_FREE, legit_clients=40,
                                    duration=75.0, seed=11))
    profile = build_profile(windowize(train.events, WINDOW_SECONDS))
    thresholds = compute_thresholds(profile, OPERATING_FACTORS)

    runs = {}
    for name, config in (
        ("high", ScenarioConfig(kind=ScenarioKind.HIGH_RATE_DISRUPTIVE, legit_clients=40,
                                zombies=100, seed=21)),
        ("low", ScenarioConfig(kind=ScenarioKind.DILUTED_LOW_RATE, legit_clients=40,
                               zombies=100, seed=22)),
        ("varied", ScenarioConfig(kind=ScenarioKind.VARIED_RATE, legit_clients=40,
                                  zombies=100, seed=23)),
    ):
        started = time.perf_counter()
        stream = generate(config)
        samples = windowize(stream.events, WINDOW_SECONDS)
        reports = detect_series(samples, profile, thresholds)
        elapsed = time.perf_counter() - started
        runs[name] = {
            "samples": samples,
            "reports": {r.window_index: r for r in reports},
            "truth": stream.window_truth(WINDOW_SECONDS),
            "attack_windows": stream.attack_windows(WINDOW_SECONDS),
            "seconds": elapsed,
        }
    return {"profile": profile, "runs": runs}


def _rates(run):
    reports = run["reports"]
    attacked = run["attack_windows"]
    normal = [w for w, is_attack in run["truth"].items() if not is_attack]
    flagged = sum(1 for w in attacked if reports[w].is_attack)
    false_alarms = sum(1 for w in normal if reports[w].is_attack)
    return flagged / len(attacked), false_alarms / len(normal)


def test_criterion_4_scenario_reproduction(simulation):
    runs = simulation["runs"]
    checks = []

    high = runs["high"]
    det_high, fp_high = _rates(high)
    volume_share = sum(
        1 for w in high["attack_windows"] if VOLUME_UPPER in high["reports"][w].triggered
    ) / len(high["attack_windows"])
    checks.append(("high-rate detection >= 99% via volume",
                   det_high >= 0.99 and volume_share >= 0.99))

    low = runs["low"]
    det_low, fp_low = _rates(low)
    flow_not_volume = sum(
        1 for w in low["attack_windows"]
        if FLOW in low["reports"][w].triggered
        and VOLUME_UPPER not in low["reports"][w].triggered
    ) / len(low["attack_windows"])
    checks.append(("diluted detection >= 95%", det_low >= 0.95))
    checks.append(("diluted flagged by flow where volume alone is silent",
                   flow_not_volume >= 0.95))

    varied = runs["varied"]
    det_varied, fp_varied = _rates(varied)
    checks.append(("varied detection >= 95%", det_varied >= 0.95))

    worst_fp = max(fp_high, fp_low, fp_varied)
    checks.append(("false positives <= 3% (+2pp tolerance)", worst_fp <= 0.05))
    checks.append(("operating point close to 99%/<3% (+-2pp)",
                   min(det_high, det_low, det_varied) >= 0.97 and worst_fp <= 0.05))

    slowest = max(run["seconds"] for run in runs.values())
    checks.append(("runtime < 30s per scenario", slowest < 30.0))

    ok = all(flag for _, flag in checks)
    report(4, ok,
           f"det high/low/varied = {det_high:.3f}/{det_low:.3f}/{det_varied:.3f}, "
           f"fp max = {worst_fp:.4f}, flow-only (diluted) = {flow_not_volume:.3f}, "
           f"slowest scenario {slowest:.1f}s")
    for description, flag in checks:
        assert flag, description


def test_criterion_5_roc_sweep_shape(simulation):
    profile = simulation["profile"]
    runs = simulation["runs"]
    grid = [ToleranceFactors(float(r), float(r)) for r in range(2, 9)]

    def combined_rates(volume_only):
        detections, false_rates = [], []
        for r_index in range(len(grid)):
            detected = attacks = false_alarms = normals = 0
            for name in ("high", "varied"):
                run = runs[name]
                points = sweep(run["samples"], profile, run["truth"],
                               grid, volume_only=volume_only)
                point = points[r_index]
                n_attack = sum(run["truth"].values())
                n_normal = len(run["truth"]) - n_attack
                detected += round(point.detection_rate * n_attack)
                attacks += n_attack
                false_alarms += round(point.false_positive_rate * n_normal)
                normals += n_normal
            detections.append(detected / attacks)
            false_rates.append(false_alarms / normals)
        return detections, false_rates

    det, fp = combined_rates(volume_only=False)
    det_vol, fp_vol = combined_rates(volume_only=True)

    checks = [
        ("combined R_fp non-increasing", all(a >= b for a, b in zip(fp, fp[1:]))),
        ("volume-only R_fp exactly non-increasing",
         all(a >= b for a, b in zip(fp_vol, fp_vol[1:]))),
        ("combined detection non-increasing", all(a >= b for a, b in zip(det, det[1:]))),
        ("detection stays near 100% through r=6 (grid indices 0..4)",
         all(rate >= 0.95 for rate in det[:5])),
        ("no decline before r=6 on the single-metric view",
         all(rate >= det_vol[0] - 0.02 for rate in det_vol[:4])),
        ("single-metric detection declines from r=6 on",
         det_vol[4] < det_vol[3] and det_vol[6] < det_vol[3] - 0.10),
    ]
    ok = all(flag for _, flag in checks)
    report(5, ok,
           "det(r=2..8) = " + "/".join(f"{d:.3f}" for d in det)
           + ", volume-only det = " + "/".join(f"{d:.3f}" for d in det_vol)
           + ", fp = " + "/".join(f"{f:.3f}" for f in fp))
    for description, flag in checks:
        assert flag, description


# -------------------------------------------------------------------------
# Criterion 6: KDD-99 reproduction (conditional on dataset availability).
# -------------------------------------------------------------------------

def _kdd_dir():
    candidates = [Path(os.environ.get("FVBA_KDD_DIR", ""))] if os.environ.get("FVBA_KDD_DIR") else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for directory in candidates:
        if not directory.is_dir():
            continue
        train = next((directory / name for name in
                      ("kddcup.data_10_percent.gz", "kddcup.data_10_percent")
                      if (directory / name).exists()), None)
        test = next((directory / name for name in ("corrected.gz", "corrected")
                     if (directory / name).exists()), None)
        if train and test:
            return train, test
    return None


TRAINING_TABLE = {
    "back": 2203, "land": 21, "neptune": 107201, "pod": 264,
    "smurf": 280790, "teardrop": 979,
}
TESTING_TABLE = {
    "apache2": 794, "back": 1098, "land": 9, "mailbomb": 5000, "neptune": 58001,
    "pod": 87, "processtable": 759, "smurf": 164091, "teardrop": 12, "udpstorm": 2,
}
TRAINING_TARGETS = {TCP: (0.9808, 0.00346), ICMP: (1.0, 0.00776), UDP: (1.0, 0.00866)}


def test_criterion_6_kdd_reproduction():
    paths = _kdd_dir()
    if paths is None:
        report(6, True, "SKIPPED - KDD-99 dataset not available (set FVBA_KDD_DIR)")
        pytest.skip("KDD-99 dataset not available")
    train_path, test_path = paths
    started = time.perf_counter()

    training = parse_kdd(train_path)
    assert len(training) == 494021, f"training record count {len(training)}"
    train_dos = training[training.label_mask(TRAINING_ATTACKS)]
    train_normal = training[training.label_mask({"normal"})]
    train_counts = {}
    for r in train_dos:
        train_counts[r.label] = train_counts.get(r.label, 0) + 1
    assert train_counts == TRAINING_TABLE, train_counts

    profiles = build_profiles(train_normal, record_window=100)
    train_stream = select_dos_and_normal(training, TRAINING_ATTACKS)
    del training
    evaluation = evaluate_split(train_stream, TRAINING_ATTACKS,
                                profiles, record_window=100)
    del train_stream
    lines = []
    failures = []
    for protocol, (target_det, target_fp) in TRAINING_TARGETS.items():
        result = evaluation.per_protocol[protocol]
        det = result.detection_rate or 0.0
        fp = result.false_positive_rate or 0.0
        lines.append(f"train {protocol.value}: det {100*det:.2f}% (target {100*target_det:.2f}) "
                     f"fp {100*fp:.3f}% (target {100*target_fp:.3f})")
        if abs(det - target_det) > 0.05:
            failures.append(f"{protocol.value} detection off target: {det:.4f}")
        if abs(fp - target_fp) > 0.02:
            failures.append(f"{protocol.value} fp off target: {fp:.4f}")

    testing = parse_kdd(test_path)
    assert len(testing) == 311029, f"testing record count {len(testing)}"
    test_counts = {}
    for r in testing:
        if r.label in TESTING_ATTACKS:
            test_counts[r.label] = test_counts.get(r.label, 0) + 1
    assert test_counts == TESTING_TABLE, test_counts
    test_stream = select_dos_and_normal(testing, TESTING_ATTACKS)
    del testing
    test_eval = evaluate_split(test_stream, TESTING_ATTACKS,
                               profiles, record_window=100)
    del test_stream
    overall = test_eval.overall.detection_rate or 0.0
    lines.append(f"test overall: det {100*overall:.2f}% (target 96.90)")
    if abs(overall - 0.969) > 0.05:
        failures.append(f"test overall detection off target: {overall:.4f}")
    for row in test_eval.breakdown:
        lines.append(f"test {row.attack}: {row.detected}/{row.total} = {100*row.rate:.2f}%")

    elapsed = time.perf_counter() - started
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s >= 5min")
    report(6, not failures, f"runtime {elapsed:.0f}s; " + "; ".join(lines))
    assert not failures, failures


# -------------------------------------------------------------------------
# Criterion 7: published ratio arithmetic, exact.
# -------------------------------------------------------------------------

def test_criterion_7_score_arithmetic():
    # The published tables truncate: 58675/65661 prints as 89.36 (two
    # decimals) and 222867/229853 as 96.9 (one decimal; it is 96.96 at
    # two decimals).
    tcp = ScoreReport(58675, 65661, 0, 1).detection_rate
    overall = ScoreReport(222867, 229853, 0, 1).detection_rate
    ok = (
        math.floor(tcp * 10_000) / 100 == 89.36
        and round(tcp * 100, 2) == 89.36
        and math.floor(overall * 1_000) / 10 == 96.9
    )
    report(7, ok, f"58675/65661 -> {tcp * 100:.4f}%, 222867/229853 -> {overall * 100:.4f}%")
    assert ok


# -------------------------------------------------------------------------
# Criterion 8: byte-identical re-runs, independent of --jobs.
# -------------------------------------------------------------------------

def _cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "fvba.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert result.returncode in (0, 2), result.stderr
    return result


def test_criterion_8_determinism(tmp_path):
    outputs = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        _cli("simulate", "--kind", "attack-free", "--clients", "8", "--duration", "30",
             "--seed", "5", "--out", base / "train.tsv")
        _cli("simulate", "--kind", "varied", "--clients", "8", "--zombies", "16",
             "--duration", "30", "--attack-start", "10", "--attack-end", "20",
             "--seed", "6", "--out", base / "attack.tsv",
             "--truth-out", base / "truth.tsv",
             "--window-truth-out", base / "wt.tsv", "--window-seconds", "0.2")
        _cli("profile", "--events", base / "train.tsv", "--window-seconds", "0.2",
             "--aggregate", "--out", base / "profile.txt")
        jobs = "1" if tag == "one" else "4"
        _cli("detect", "--events", base / "attack.tsv", "--profile", base / "profile.txt",
             "--jobs", jobs, "--out", base / "verdicts.tsv")
        (base / "grid.tsv").write_text("2\t2\n4\t4\n6\t6\n8\t8\n")
        _cli("sweep", "--events", base / "attack.tsv", "--profile", base / "profile.txt",
             "--window-truth", base / "wt.tsv", "--grid", base / "grid.tsv",
             "--jobs", jobs, "--out", base / "roc.tsv")
        outputs[tag] = {
            name: (base / name).read_bytes()
            for name in ("train.tsv", "attack.tsv", "truth.tsv", "wt.tsv",
                         "profile.txt", "verdicts.tsv", "roc.tsv")
        }
    mismatched = [name for name in outputs["one"] if outputs["one"][name] != outputs["two"][name]]
    report(8, not mismatched,
           f"{len(outputs['one'])} pipeline outputs byte-compared"
           + (f", mismatched: {mismatched}" if mismatched else ""))
    assert not mismatched
