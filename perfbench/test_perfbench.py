"""Tests of the benchmark itself: the KDD generator, the trace tooling and the
layer predictions.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import kddgen
import run
import tracing
from fvba import evaluation, kdd
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())
# Small enough for a test, large enough that every output check still holds.
TEST_SCALE = 0.4


@pytest.mark.parametrize("mix,dos,records", [
    (kddgen.TRAINING_MIX, kdd.TRAINING_ATTACKS, 6_000),
    (kddgen.TESTING_MIX, kdd.TESTING_ATTACKS, 4_000),
])
def test_kdd_generator_lines_parse_and_match_the_tally(tmp_path, mix, dos, records):
    path = tmp_path / "split.txt"
    tally = kddgen.write_split(path, mix, records, seed=5)
    parsed = kdd.parse(path)
    assert len(parsed) == records == sum(tally.values())
    assert Counter(r.label for r in parsed) == tally
    labels = set(tally)
    assert dos <= labels
    assert labels - dos - {"normal"}, "some non-DoS labels must be there to be filtered out"
    runs = sum(1 for a, b in zip(parsed, parsed[1:]) if a.label != b.label)
    assert runs < records / 10, "labels must come in bursts"


def test_kdd_generator_is_seeded(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    kddgen.write_split(a, kddgen.TRAINING_MIX, 2_000, seed=1)
    kddgen.write_split(b, kddgen.TRAINING_MIX, 2_000, seed=1)
    kddgen.write_split(c, kddgen.TRAINING_MIX, 2_000, seed=2)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()


def test_generator_dos_sets_are_the_pipelines():
    assert kddgen.TRAINING_DOS == kdd.TRAINING_ATTACKS
    assert kddgen.TESTING_DOS == kdd.TESTING_ATTACKS


def _record(spans, busy=()):
    return {"spans": [{"name": n, "parent": p, "start": s, "end": e, "rss_growth_mb": 0.0}
                      for n, p, s, e in spans],
            "busy": [{"name": n, "parent": p, "calls": 1, "seconds": s} for n, p, s in busy],
            "counts": {}, "missing": [], "uncounted": []}


def test_self_time_subtracts_children_and_busy_time():
    record = _record([("root", None, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("b", 0, 5.0, 6.0),
                      ("c", 1, 2.0, 3.0)], busy=[("per-window", 0, 0.5)])
    assert tracing.self_times(record) == pytest.approx([10 - 3 - 1 - 0.5, 2.0, 1.0, 1.0])


def _assert_children_fit(record):
    selfs = tracing.self_times(record)
    for index, span in enumerate(record["spans"]):
        duration = span["end"] - span["start"]
        assert 0.0 <= selfs[index] <= duration
        children = [selfs[i] for i, s in enumerate(record["spans"]) if s["parent"] == index]
        children += [b["seconds"] for b in record["busy"] if b["parent"] == index]
        assert sum(children) <= duration
        for child_self in children:
            assert child_self <= duration


def test_missing_function_is_reported_missing_not_zero(monkeypatch):
    import fvba.cli  # noqa: F401  (loads every module the tracer wraps)

    # Re-set every attribute the tracer may replace, so monkeypatch restores it.
    for name, module in list(sys.modules.items()):
        if name == "fvba" or name.startswith("fvba."):
            for attr, value in list(vars(module).items()):
                monkeypatch.setattr(module, attr, value)
    monkeypatch.delattr(evaluation, "sweep")
    tracer = tracing.Tracer()
    tracer.install()
    values, missing = tracing.layer_metrics([tracer.record("t")])
    assert tracer.missing == ["evaluation.sweep"]
    assert missing == ["evaluation.sweep.points", "evaluation.sweep.s"]
    assert "evaluation.sweep.s" not in values and values["evaluation.score.s"] == 0.0


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    units = run._units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: units[name] for name in [*tracing.LAYER_METRICS,
                                                        "trace.overhead_ratio"]}
    predicted = {name for row in PREDICTIONS["layers"] for name in row["metrics"]}
    assert predicted == set(tracing.LAYER_METRICS)


@pytest.fixture(scope="module")
def traced_chains(tmp_path_factory):
    """One untraced and one traced chain per workload at test scale."""
    env = run._environment()
    chains = {}
    for name, workload in WORKLOADS.items():
        base = tmp_path_factory.mktemp(name)
        chain = workload.build(3, base, TEST_SCALE)
        untraced = run.run_chain(chain, base / "untraced", False, env)
        traced = run.run_chain(chain, base / "traced", True, env)
        tally = run.Tally()
        run.check_chain(chain, base / "untraced", untraced, None, tally)
        run.check_chain(chain, base / "traced", traced, untraced, tally)
        chains[name] = (traced, tally)
    return chains


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_chain_outputs_pass_every_check(traced_chains, workload):
    traced, tally = traced_chains[workload]
    assert tally.failures == []
    assert tally.attempted > 2 * len(traced.invocations)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_child_self_times_fit_inside_their_parent(traced_chains, workload):
    traced, _ = traced_chains[workload]
    assert traced.spans
    for record in traced.spans.values():
        _assert_children_fit(record)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layers_record_calls_exactly_where_predicted(traced_chains, workload):
    traced, _ = traced_chains[workload]
    calls = tracing.calls(list(traced.spans.values()))
    for row in PREDICTIONS["layers"]:
        for function, runs_on in row["runs_on"].items():
            assert (calls[function] > 0) == (workload in runs_on), function
    values, missing = tracing.layer_metrics(list(traced.spans.values()))
    assert missing == []
    assert set(values) == set(tracing.LAYER_METRICS)
