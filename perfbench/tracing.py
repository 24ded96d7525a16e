"""Span tracing of fvba invocations and the per-layer metrics built from it.

Run as a script, this file is the traced entry point of one invocation:

    python3 perfbench/tracing.py SPAN_FILE <fvba arguments>...

It wraps the public functions named in ``LAYERS`` from outside the package
(nothing under ``src/`` changes), runs ``fvba.cli.main`` under a root span
``cli.<subcommand>``, keeps every span in memory and writes them to
SPAN_FILE as JSON when ``main`` returns.  A span is a name, a start, an end
and the index of its parent span.  Functions that run once per window or
once per flow are not given a span per call: their busy time and call count
are summed under the enclosing span.

The self time of a span is its duration minus the part of it covered by
child spans and by the busy time of per-window calls made inside it.  The
per-layer metrics of a chain (``layer_metrics``) sum self times and counts
over the span files of the chain's invocations.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One wrapped public function.

    `per_call` marks functions that run once per window or flow; they are
    recorded as busy time plus a call count instead of a span per call.
    `count` adds the function's work counts from its arguments and result.
    """

    module: str
    function: str
    per_call: bool = False
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('fvba.')}.{self.function}"


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def _count_windowize(counts, args, kwargs, samples):
    counts["profiler.events_scanned"] += len(_arg(args, kwargs, 0, "events"))
    counts["profiler.windows"] += len(samples)
    counts["profiler.flow_window_pairs"] += sum(s.flow_count for s in samples)


def _count_detect_series(counts, args, kwargs, reports):
    counts["detector.windows_evaluated"] += len(reports)
    counts["detector.windows_flagged"] += sum(1 for r in reports if r.is_attack)


def _count_classify(counts, args, kwargs, classifications):
    counts["characterizer.flow_pairs_read"] += len(_arg(args, kwargs, 0, "per_flow_bytes"))
    counts["characterizer.flows_classified"] += len(classifications)
    for c in classifications:
        counts[f"characterizer.band.{c.band.value}"] += 1
        counts["characterizer.excluded_by_history"] += bool(c.excluded_by_history)


LAYERS = (
    Layer("fvba.io", "load_events",
          count=lambda counts, a, k, events: counts.update({"io.events_loaded": len(events)})),
    Layer("fvba.io", "dump_events"),
    Layer("fvba.simulator", "generate",
          count=lambda counts, a, k, stream: counts.update({"simulator.events": len(stream.events)})),
    Layer("fvba.profiler", "windowize", count=_count_windowize),
    Layer("fvba.profiler", "build_profile"),
    Layer("fvba.detector", "detect_series", count=_count_detect_series),
    Layer("fvba.detector", "dump_verdicts"),
    Layer("fvba.characterizer", "classify_flows", per_call=True, count=_count_classify),
    Layer("fvba.characterizer", "throttle_directives", per_call=True,
          count=lambda counts, a, k, directives: counts.update(
              {"characterizer.directives": len(directives)})),
    Layer("fvba.evaluation", "score"),
    Layer("fvba.evaluation", "sweep",
          count=lambda counts, a, k, points: counts.update({"evaluation.sweep.points": len(points)})),
    Layer("fvba.kdd", "parse",
          count=lambda counts, a, k, records: counts.update({"kdd.records_parsed": len(records)})),
    Layer("fvba.kdd", "select_dos_and_normal"),
    Layer("fvba.kdd", "to_flow_windows",
          count=lambda counts, a, k, windows: counts.update(
              {"kdd.windows": sum(len(series) for series in windows.values())})),
    Layer("fvba.kdd", "build_profiles"),
    Layer("fvba.kdd", "evaluate_split"),
)

SUBCOMMANDS = ("simulate", "profile", "detect", "score", "sweep", "characterize", "kdd")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans, per-call busy time and work counts of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.busy: dict[tuple[str, int | None], list] = {}
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.uncounted: list[str] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter(),
                           "end": None, "rss_before_mb": _peak_rss_mb()})
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["rss_growth_mb"] = _peak_rss_mb() - span.pop("rss_before_mb")
        self._open.pop()

    def add_busy(self, name: str, seconds: float) -> None:
        parent = self._open[-1] if self._open else None
        entry = self.busy.setdefault((name, parent), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def wrap(self, layer: Layer, original: Callable) -> Callable:
        name = layer.name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if layer.per_call:
                start = time.perf_counter()
                result = original(*args, **kwargs)
                self.add_busy(name, time.perf_counter() - start)
            else:
                index = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index)
            if layer.count is not None and name not in self.uncounted:
                try:
                    layer.count(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # The function's result no longer has the shape counted;
                    # report its counts as missing rather than as zero.
                    self.uncounted.append(name)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to a layer function inside the fvba modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "fvba" or n.startswith("fvba.")) and m is not None]
        for layer in LAYERS:
            module = sys.modules.get(layer.module)
            original = getattr(module, layer.function, None)
            if not callable(original):
                self.missing.append(layer.name)
                continue
            traced = self.wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def record(self, trace_id: str) -> dict:
        return {
            "trace": trace_id,
            "spans": self.spans,
            "busy": [{"name": name, "parent": parent, "calls": calls, "seconds": seconds}
                     for (name, parent), (calls, seconds) in self.busy.items()],
            "counts": dict(self.counts),
            "missing": self.missing,
            "uncounted": self.uncounted,
        }


def self_times(record: dict) -> list[float]:
    """Self time of each span in a span record, in span order.

    A span's self time is its duration minus the union of its child spans'
    intervals (clipped to the span) and minus the busy time of per-call
    functions recorded directly under it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in record["spans"]:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    busy: Counter = Counter()
    for entry in record["busy"]:
        if entry["parent"] is not None:
            busy[entry["parent"]] += entry["seconds"]
    result = []
    for index, span in enumerate(record["spans"]):
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(max(0.0, end - start - covered - busy[index]))
    return result


# Per-layer metrics: name -> (unit, the layer function whose spans or counts
# produce it).  Time metrics ("*.s", "*.self_s") are self times summed over
# the chain, so the layer times of one invocation add up to its traced wall
# time minus interpreter start-up.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "io.load_events.s": ("s", "io.load_events"),
    "io.events_loaded": ("count", "io.load_events"),
    "io.load_events.rss_growth_mb": ("MB", "io.load_events"),
    "simulator.generate.s": ("s", "simulator.generate"),
    "simulator.events": ("count", "simulator.generate"),
    "io.dump_events.s": ("s", "io.dump_events"),
    "profiler.windowize.s": ("s", "profiler.windowize"),
    "profiler.windowize.calls": ("count", "profiler.windowize"),
    "profiler.events_scanned_per_event": ("ratio", "profiler.windowize"),
    "profiler.windows": ("count", "profiler.windowize"),
    "profiler.flow_window_pairs": ("count", "profiler.windowize"),
    "profiler.flow_maps_read_ratio": ("ratio", "characterizer.classify_flows"),
    "profiler.build_profile.s": ("s", "profiler.build_profile"),
    "detector.detect_series.s": ("s", "detector.detect_series"),
    "detector.windows_evaluated": ("count", "detector.detect_series"),
    "detector.windows_flagged": ("count", "detector.detect_series"),
    "detector.dump_verdicts.s": ("s", "detector.dump_verdicts"),
    "characterizer.classify_flows.s": ("s", "characterizer.classify_flows"),
    "characterizer.flows_classified": ("count", "characterizer.classify_flows"),
    "characterizer.band.normal": ("count", "characterizer.classify_flows"),
    "characterizer.band.suspicious": ("count", "characterizer.classify_flows"),
    "characterizer.band.attack": ("count", "characterizer.classify_flows"),
    "characterizer.excluded_by_history": ("count", "characterizer.classify_flows"),
    "characterizer.throttle_directives.s": ("s", "characterizer.throttle_directives"),
    "characterizer.directives": ("count", "characterizer.throttle_directives"),
    "evaluation.score.s": ("s", "evaluation.score"),
    "evaluation.sweep.s": ("s", "evaluation.sweep"),
    "evaluation.sweep.points": ("count", "evaluation.sweep"),
    "kdd.parse.s": ("s", "kdd.parse"),
    "kdd.records_parsed": ("count", "kdd.parse"),
    "kdd.select_dos_and_normal.s": ("s", "kdd.select_dos_and_normal"),
    "kdd.to_flow_windows.s": ("s", "kdd.to_flow_windows"),
    "kdd.windows": ("count", "kdd.to_flow_windows"),
    "kdd.build_profiles.s": ("s", "kdd.build_profiles"),
    "kdd.evaluate_split.s": ("s", "kdd.evaluate_split"),
    **{f"cli.{sub}.self_s": ("s", f"cli.{sub}") for sub in SUBCOMMANDS},
}


def calls(records: list[dict]) -> Counter:
    """Calls per span or per-call function name over a chain's span records."""
    total: Counter = Counter()
    for record in records:
        total.update(span["name"] for span in record["spans"])
        for entry in record["busy"]:
            total[entry["name"]] += entry["calls"]
    return total


def layer_metrics(records: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one chain and the names of missing metrics.

    A metric is missing, not zero, when the function it is read from no
    longer exists or its result could no longer be counted.
    """
    self_s: Counter = Counter()
    counts: Counter = Counter()
    rss_growth = 0.0
    gone: set[str] = set()
    for record in records:
        for span, seconds in zip(record["spans"], self_times(record)):
            self_s[span["name"]] += seconds
            if span["name"] == "io.load_events":
                rss_growth = max(rss_growth, span["rss_growth_mb"])
        for entry in record["busy"]:
            self_s[entry["name"]] += entry["seconds"]
        counts.update(record["counts"])
        gone.update(record["missing"], record["uncounted"])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {name: float(counts[name]) for name, (unit, _) in LAYER_METRICS.items()
              if unit == "count"}
    values.update({name: float(self_s[name.removesuffix(".s")]) for name in LAYER_METRICS
                   if name.endswith(".s")})
    values.update({f"cli.{sub}.self_s": float(self_s[f"cli.{sub}"]) for sub in SUBCOMMANDS})
    values["profiler.windowize.calls"] = float(calls(records)["profiler.windowize"])
    values["io.load_events.rss_growth_mb"] = rss_growth
    values["profiler.events_scanned_per_event"] = ratio(
        counts["profiler.events_scanned"], counts["io.events_loaded"])
    values["profiler.flow_maps_read_ratio"] = ratio(
        counts["characterizer.flow_pairs_read"], counts["profiler.flow_window_pairs"])
    missing = sorted(name for name, (_, source) in LAYER_METRICS.items() if source in gone)
    for name in missing:
        del values[name]
    return values, missing


def main(argv: list[str]) -> int:
    span_file, fvba_args = argv[0], argv[1:]
    from fvba import cli

    tracer = Tracer()
    tracer.install()
    subcommand = next((a for a in fvba_args if not a.startswith("-")), "fvba")
    root = tracer.open(f"cli.{subcommand}")
    try:
        return cli.main(fvba_args)
    finally:
        tracer.close(root)
        with open(span_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.record(Path(span_file).stem), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
