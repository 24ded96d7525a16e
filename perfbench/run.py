"""Benchmark of the fvba command-line chain.

    python3 perfbench/run.py                        # every workload, untraced then traced
    python3 perfbench/run.py --workload varied-flows --seed 3 --seconds 25 --trace 0

Each workload is a chain of real ``fvba`` subprocesses started one at a time
from this process.  Untraced runs (``--trace 0``) repeat the chain for
``--seconds`` seconds and report the end-to-end metrics ``chain_s``,
``verdict_eps``, ``peak_rss_mb`` and ``setup_s``, plus ``failed_ratio``
(``failed`` / ``attempted`` in the JSON line).  Traced runs (``--trace 1``)
alternate an untraced chain with a chain whose invocations go through
``tracing.py``, and report the per-layer metrics and the tracing overhead.  Every chain's outputs are checked; their
SHA-256 digests are printed and written with all figures to
``.bench_work/<workload>/results-trace<0|1>.json``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is run from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYER_METRICS, layer_metrics, self_times
from workloads import WORKLOADS, Chain, Step, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACING = BENCH / "tracing.py"
# What the installed `fvba` console script runs.
ENTRY = "import sys; from fvba.cli import main; sys.exit(main())"

# setup_s samples before the first chain and after each chain.
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_CHAIN = 2
INVOCATION_TIMEOUT_S = 150.0
# No further chain starts once the run would pass this, so that a run ends
# within 180 s even when the program slows down.
RUN_LIMIT_S = 140.0

END_TO_END_UNITS = {"chain_s": "s", "verdict_eps": "events/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


@dataclass
class Invocation:
    step: Step
    wall_s: float
    peak_rss_mb: float
    exit_code: int


@dataclass
class ChainRun:
    traced: bool
    invocations: list[Invocation]
    wall_s: float
    digests: dict[str, str] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)


class Tally:
    """Attempted and failed invocations and output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(command: list[str], cwd: Path, label: str, env: dict[str, str]) -> tuple[float, float, int]:
    """Run one subprocess to completion; return (wall s, peak RSS MB, exit code).

    Standard output and error go to `<label>.stdout` / `<label>.stderr` in
    `cwd`.  Peak RSS comes from the child's own resource usage (os.wait4).
    """
    with open(cwd / f"{label}.stdout", "wb") as out, open(cwd / f"{label}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_chain(chain: Chain, directory: Path, traced: bool, env: dict[str, str]) -> ChainRun:
    """Run every step of the chain in `directory`, stopping at the first wrong exit code."""
    shutil.rmtree(directory, ignore_errors=True)
    spans_dir = directory / "spans"
    spans_dir.mkdir(parents=True)
    invocations = []
    start = time.perf_counter()
    for step in chain.steps:
        if traced:
            prefix = [sys.executable, str(TRACING), str(spans_dir / f"{step.name}.json")]
        else:
            prefix = [sys.executable, "-c", ENTRY]
        wall, rss, code = invoke(prefix + step.argv, directory, step.name, env)
        invocations.append(Invocation(step, wall, rss, code))
        if code != step.exit_code:
            break
    run = ChainRun(traced, invocations, time.perf_counter() - start)
    for step in chain.steps[:len(invocations)]:
        for name in [*step.outputs, f"{step.name}.stdout"]:
            if (directory / name).is_file():
                run.digests[name] = _sha256(directory / name)
        if traced and (spans_dir / f"{step.name}.json").is_file():
            run.spans[step.name] = json.loads((spans_dir / f"{step.name}.json").read_text())
    return run


def check_chain(chain: Chain, directory: Path, run: ChainRun, reference: ChainRun | None,
                tally: Tally) -> None:
    """Count the chain's invocations and output checks in `tally`."""
    codes = {inv.step.name: inv.exit_code for inv in run.invocations}
    for step in chain.steps:
        tally.record(f"{step.name} exits with {step.exit_code}", codes.get(step.name) == step.exit_code)
    stdout = {step.name: (directory / f"{step.name}.stdout").read_text(encoding="utf-8")
              for step in chain.steps if (directory / f"{step.name}.stdout").is_file()}
    for name, check in chain.checks(directory, stdout).items():
        try:
            ok = bool(check())
        except (OSError, ValueError, IndexError, KeyError):
            ok = False
        tally.record(name, ok)
    if reference is not None:
        label = ("traced outputs byte-identical to untraced outputs" if run.traced
                 else "outputs byte-identical to the first chain")
        tally.record(label, run.digests == reference.digests)


def _verdict(run: ChainRun, workload: Workload) -> Invocation:
    return next(inv for inv in run.invocations if inv.step.name == workload.verdict_step)


def measure(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run of a workload; returns its results document."""
    env = _environment()
    base = WORK / workload.name
    shutil.rmtree(base, ignore_errors=True)
    inputs = base / "inputs"
    inputs.mkdir(parents=True)
    chain = workload.build(seed, inputs, 1.0)
    tally = Tally()
    started = time.perf_counter()
    verdict = next(s for s in chain.steps if s.name == workload.verdict_step)
    # setup_s: `fvba <verdict subcommand> --help`, after one untimed warm-up
    # that compiles the bytecode cache; samples are spread over the run.
    help_command = [sys.executable, "-c", ENTRY, verdict.subcommand, "--help"]
    setup: list[float] = []

    def setup_samples(count: int) -> None:
        for _ in range(count):
            wall, _, code = invoke(help_command, base / "setup", "setup", env)
            tally.record(f"{verdict.subcommand} --help exits with 0", code == 0)
            setup.append(wall)

    if not traced:
        (base / "setup").mkdir()
        invoke(help_command, base / "setup", "setup", env)
        setup_samples(SETUP_SAMPLES_FIRST)

    runs: list[ChainRun] = []
    loop_start = time.perf_counter()
    while True:
        if not traced:
            order = [False]
        else:  # an untraced and a traced chain, alternating which goes first
            order = [False, True] if len(runs) // 2 % 2 == 0 else [True, False]
        for is_traced in order:
            directory = base / ("traced" if is_traced else "untraced")
            run = run_chain(chain, directory, is_traced, env)
            first = next((r for r in runs if not r.traced), None)
            check_chain(chain, directory, run, first, tally)
            runs.append(run)
        if not traced:
            setup_samples(SETUP_SAMPLES_PER_CHAIN)
        elapsed = time.perf_counter() - loop_start
        last = runs[-1].wall_s * (2 if traced else 1)
        if elapsed >= seconds or time.perf_counter() - started + last > RUN_LIMIT_S:
            break

    untraced = [r for r in runs if not r.traced]
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "traced": traced,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "digests": untraced[0].digests,
        "chains": [{"traced": r.traced, "wall_s": r.wall_s,
                    "steps": {i.step.name: {"wall_s": i.wall_s, "peak_rss_mb": i.peak_rss_mb,
                                            "exit_code": i.exit_code} for i in r.invocations}}
                   for r in runs],
    }
    complete = [r for r in untraced if [i.exit_code for i in r.invocations]
                == [step.exit_code for step in chain.steps]]
    if not traced:
        items = chain.verdict_items(base / "untraced") if complete else 0
        result["verdict_items"] = items
        result["setup_samples"] = setup
        result["metrics"] = {
            "chain_s": statistics.median(r.wall_s for r in untraced),
            "verdict_eps": statistics.median(items / _verdict(r, workload).wall_s
                                             for r in complete) if complete else 0.0,
            "peak_rss_mb": statistics.median(max(i.peak_rss_mb for i in r.invocations)
                                             for r in untraced),
            "setup_s": statistics.median(setup),
        }
        return result

    traced_runs = [r for r in runs if r.traced]
    per_chain = [layer_metrics(list(r.spans.values())) for r in traced_runs]
    missing = sorted({name for _, gone in per_chain for name in gone})
    metrics = {name: statistics.median(values[name] for values, _ in per_chain)
               for name in LAYER_METRICS if name not in missing}
    untraced_s = statistics.median(r.wall_s for r in untraced)
    traced_s = statistics.median(r.wall_s for r in traced_runs)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    result.update(metrics=metrics, missing=missing, untraced_chain_s=untraced_s,
                  traced_chain_s=traced_s,
                  verdict_breakdown=_breakdown(traced_runs[-1], workload))
    return result


def _breakdown(run: ChainRun, workload: Workload) -> dict[str, float]:
    """Self time per span name within the traced verdict invocation."""
    record = run.spans.get(workload.verdict_step)
    if record is None:
        return {}
    shares: dict[str, float] = {}
    for span, seconds in zip(record["spans"], self_times(record)):
        shares[span["name"]] = shares.get(span["name"], 0.0) + seconds
    for entry in record["busy"]:
        shares[entry["name"]] = shares.get(entry["name"], 0.0) + entry["seconds"]
    return shares


def _units() -> dict[str, str]:
    units = dict(END_TO_END_UNITS)
    units.update({name: unit for name, (unit, _) in LAYER_METRICS.items()})
    units["trace.overhead_ratio"] = "ratio"
    return units


def report(result: dict) -> None:
    """Print a run's metrics by name with units, its checks and output digests."""
    units = _units()
    chains = [c for c in result["chains"] if c["traced"] == result["traced"]]
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']}  seed {result['seed']}  {mode}  {len(chains)} chains")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if result["traced"]:
        for name in result["missing"]:
            print(f"  {name:40s} {'missing':>14s}")
        print(f"  tracing overhead: traced chain {result['traced_chain_s']:.3f} s, untraced"
              f" {result['untraced_chain_s']:.3f} s (medians)")
        breakdown = result["verdict_breakdown"]
        root = sum(breakdown.values())
        if root:
            parts = sorted(breakdown.items(), key=lambda kv: -kv[1])
            print(f"  verdict invocation, self time by span ({root:.3f} s traced):")
            for name, seconds in parts:
                print(f"    {name:38s} {seconds:10.4f} s {100 * seconds / root:5.1f}%")
    else:
        print(f"  verdict input: {result['verdict_items']} events; medians over {len(chains)}"
              f" chains and {len(result['setup_samples'])} set-up invocations")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'failed_ratio':40s} {ratio:14.6g} ratio"
          f" ({result['failed']} failed of {result['attempted']} attempted)")
    for failure in dict.fromkeys(result["failures"]):
        print(f"  FAILED: {failure}")
    for name, digest in result["digests"].items():
        print(f"  sha256 {digest}  {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # invocation is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fvba" / "cli.py").is_file():
        print(f"run.py: no fvba sources at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = []
    for name in names:
        for traced in modes:
            result = measure(WORKLOADS[name], args.seed, args.seconds, traced)
            (WORK / name / f"results-trace{int(traced)}.json").write_text(
                json.dumps(result, indent=1) + "\n", encoding="utf-8")
            report(result)
            results.append(result)

    units = _units()
    single = len(results) == 1
    metrics = {(name if single else f"{r['workload']}.{name}"): {"value": value, "unit": units[name]}
               for r in results for name, value in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
