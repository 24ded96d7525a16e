"""The benchmark's workloads: their inputs, their fvba chains and output checks.

A workload is a chain of fvba invocations run one after another (a closed
loop: each starts when the previous one exits).  Its inputs are made from
the seed alone; the program only sees the generated files and flags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import kddgen

WINDOW_SECONDS = "0.2"
# Tolerance-factor grid of the ROC sweep: r1 = r2 over 2..8.
SWEEP_GRID = "".join(f"{r}\t{r}\n" for r in range(2, 9))


@dataclass(frozen=True)
class Step:
    """One fvba invocation: its arguments, documented exit code and output files."""

    name: str
    argv: list[str]
    exit_code: int
    outputs: list[str]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Chain:
    """The invocations of one workload and how to check and count their work.

    `checks(chain_dir, stdout_by_step)` returns named checks, each a
    callable that is true when the outputs agree; `verdict_items(chain_dir)`
    counts the input items of the invocation that produces verdicts.
    """

    steps: list[Step]
    checks: Callable[[Path, dict[str, str]], dict[str, Callable[[], bool]]]
    verdict_items: Callable[[Path], int]


@dataclass(frozen=True)
class Workload:
    name: str
    verdict_step: str
    # (seed, inputs dir, size factor): the benchmark runs size 1, its tests less.
    build: Callable[[int, Path, float], Chain]


# --- simulated workloads --------------------------------------------------------

def _simulated_steps(seed: int, scale: float, scenario: list[str],
                     grid: Path | None = None) -> list[Step]:
    # The attack scenario keeps the README's rates and a 1:1:1 split of
    # pre-attack, attack and post-attack time; `scale` shortens all three.
    third = 5.0 * scale
    steps = [
        Step("simulate-train", ["simulate", "--kind", "attack-free", "--clients", "40",
                                "--duration", "75", "--seed", str(2 * seed + 1),
                                "--out", "train.tsv"], 0, ["train.tsv"]),
        Step("simulate-attack", ["simulate", *scenario, "--clients", "40",
                                 "--attack-start", repr(third), "--attack-end", repr(2 * third),
                                 "--duration", repr(3 * third), "--seed", str(2 * seed + 2),
                                 "--out", "attack.tsv", "--truth-out", "truth.tsv",
                                 "--window-truth-out", "wtruth.tsv",
                                 "--window-seconds", WINDOW_SECONDS],
             0, ["attack.tsv", "truth.tsv", "wtruth.tsv"]),
        Step("profile", ["profile", "--events", "train.tsv", "--window-seconds", WINDOW_SECONDS,
                         "--aggregate", "--per-flow-scope", "window", "--out", "profile.txt"],
             0, ["profile.txt"]),
        Step("detect", ["detect", "--events", "attack.tsv", "--profile", "profile.txt",
                        "--out", "verdicts.tsv"], 2, ["verdicts.tsv"]),
        Step("score", ["score", "--verdicts", "verdicts.tsv", "--window-truth", "wtruth.tsv",
                       "--out", "score.tsv"], 0, ["score.tsv"]),
    ]
    if grid is not None:
        steps += [
            Step("sweep", ["sweep", "--events", "attack.tsv", "--profile", "profile.txt",
                           "--window-truth", "wtruth.tsv", "--grid", str(grid),
                           "--out", "roc.tsv"], 0, ["roc.tsv"]),
            Step("characterize", ["characterize", "--events", "attack.tsv",
                                  "--profile", "profile.txt", "--out", "classifications.tsv",
                                  "--throttle-out", "throttles.tsv"],
                 0, ["classifications.tsv", "throttles.tsv"]),
        ]
    return steps


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def _line_count(path: Path) -> int:
    # Streams the file: the benchmark process must stay small, because a
    # child's peak RSS as os.wait4 reports it starts from the parent's.
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _summary(stdout: dict[str, str], step: str, pattern: str) -> re.Match:
    match = re.search(pattern, stdout.get(step, ""))
    if match is None:
        raise ValueError(f"{step}: summary line not found")
    return match


def _percent(rate: str, digits: int) -> str:
    return "undefined" if rate == "undefined" else f"{100 * float(rate):.{digits}f}%"


def _check_simulated(chain: Path, stdout: dict[str, str], extra: bool) -> dict[str, Callable]:
    """Named checks of one simulated chain; each returns True when it holds."""

    def simulate_counts(step, events_file, truth_file=None):
        def check():
            m = _summary(stdout, step, r"simulate: (\d+) events, (\d+) flows")
            ok = int(m[1]) == _line_count(chain / events_file)
            return ok and (truth_file is None or int(m[2]) == _line_count(chain / truth_file))
        return check

    def profile_series():
        _summary(stdout, "profile", r"profile: 1 series \(ALL\)")
        text = (chain / "profile.txt").read_text(encoding="utf-8")
        return text.count("protocol=") == 1 and "protocol=ALL" in text

    def detect_counts():
        m = _summary(stdout, "detect", r"detect: (\d+)/(\d+) windows flagged")
        rows = _rows(chain / "verdicts.tsv")[1:]
        flagged = sum(1 for row in rows if row[2] == "1")
        return (int(m[1]) == flagged > 0 and int(m[2]) == len(rows)
                == _line_count(chain / "wtruth.tsv"))

    def score_rates():
        m = _summary(stdout, "score", r"score: detection (\S+), false positives (\S+)")
        row = _rows(chain / "score.tsv")[1]
        return (m[1] == _percent(row[4], 2) and m[2] == _percent(row[5], 3)
                and row[4] == "1.0" and row[5] == "0.0")

    checks = {
        "simulate-train summary matches train.tsv": simulate_counts("simulate-train", "train.tsv"),
        "simulate-attack summary matches attack.tsv and truth.tsv":
            simulate_counts("simulate-attack", "attack.tsv", "truth.tsv"),
        "profile summary matches profile.txt": profile_series,
        "detect summary matches verdicts.tsv and window truth": detect_counts,
        "score matches score.tsv at 100% detection, 0% false positives": score_rates,
    }
    if not extra:
        return checks

    def sweep_points():
        m = _summary(stdout, "sweep", r"sweep: (\d+) operating points")
        roc = _rows(chain / "roc.tsv")[1:]
        score_row = _rows(chain / "score.tsv")[1]
        at_six = [row for row in roc if row[:2] == ["6.0", "6.0"]]
        return (int(m[1]) == len(roc) == SWEEP_GRID.count("\n")
                and len(at_six) == 1 and at_six[0][3:] == score_row[4:])

    def characterize_windows():
        m = _summary(stdout, "characterize", r"characterize: (\d+) flagged windows")
        flagged = int(_summary(stdout, "detect", r"detect: (\d+)/")[1])
        classified = {row[0] for row in _rows(chain / "classifications.tsv")[1:]}
        return int(m[1]) == len(classified) == flagged

    def characterize_outcomes():
        rows = _rows(chain / "classifications.tsv")[1:]
        outcomes = {(row[7], row[8]) for row in rows}
        suspicious = sum(1 for row in rows if row[7] == "suspicious")
        throttles = _line_count(chain / "throttles.tsv") - 1
        return (outcomes >= {("normal", "0"), ("suspicious", "0"), ("suspicious", "1"),
                             ("attack", "0")}
                and throttles == suspicious > 0)

    checks.update({
        "sweep summary matches roc.tsv and score at r1=r2=6": sweep_points,
        "characterize summary matches classifications.tsv": characterize_windows,
        "characterize bands every outcome and throttles each suspicious flow":
            characterize_outcomes,
    })
    return checks


def _attack_events(chain: Path) -> int:
    return _line_count(chain / "attack.tsv")


def _build_highrate(seed: int, inputs: Path, scale: float) -> Chain:
    steps = _simulated_steps(seed, scale, ["--kind", "high-rate", "--zombies", "100"])
    return Chain(steps, lambda chain, stdout: _check_simulated(chain, stdout, False),
                 _attack_events)


def _build_varied(seed: int, inputs: Path, scale: float) -> Chain:
    grid = inputs / "grid.tsv"
    grid.write_text(SWEEP_GRID, encoding="utf-8")
    scenario = ["--kind", "varied", "--zombies", "1000", "--zombie-packet-bytes", "1500",
                "--high-rate-fraction", "0.005", "--zombie-rate-bps", "3e7",
                "--zombie-low-rate-bps", "1e5"]
    steps = _simulated_steps(seed, scale, scenario, grid)
    return Chain(steps, lambda chain, stdout: _check_simulated(chain, stdout, True),
                 _attack_events)


# --- KDD-format workload ----------------------------------------------------------

# Records per split relative to the original files (494,021 and 311,029).
KDD_SCALE = 0.4


def _build_kdd(seed: int, inputs: Path, scale: float) -> Chain:
    sizes = {"training": round(kddgen.TRAINING_RECORDS * KDD_SCALE * scale),
             "testing": round(kddgen.TESTING_RECORDS * KDD_SCALE * scale)}
    train, test = inputs / "kdd_train.txt", inputs / "kdd_test.txt"
    tallies = {
        "training": kddgen.write_split(train, kddgen.TRAINING_MIX, sizes["training"], 2 * seed + 1),
        "testing": kddgen.write_split(test, kddgen.TESTING_MIX, sizes["testing"], 2 * seed + 2),
    }
    dos = {"training": kddgen.TRAINING_DOS, "testing": kddgen.TESTING_DOS}
    steps = [Step("kdd", ["kdd", "--train", str(train), "--test", str(test),
                          "--out", "scores.tsv", "--breakdown-out", "breakdown.tsv"],
                  0, ["scores.tsv", "breakdown.tsv"])]

    def checks(chain: Path, stdout: dict[str, str]) -> dict[str, Callable]:
        def scores():
            return {row[0]: row for row in _rows(chain / "scores.tsv")[1:]}

        def records(split):
            def check():
                m = _summary(stdout, "kdd", rf"kdd: {split} records: (\d+)")
                return int(m[1]) == sum(tallies[split].values()) == sizes[split]
            return check

        def rates(split):
            def check():
                m = _summary(stdout, "kdd", rf"kdd: {split} overall detection (\S+)"
                                            rf" false positives (\S+)")
                row = scores()[f"{split}/overall"]
                printed = [f"{100 * (0 if r == 'undefined' else float(r)):.{d}f}%"
                           for r, d in ((row[5], 2), (row[6], 3))]
                return [m[1], m[2]] == printed
            return check

        def breakdown(split):
            def check():
                text = (chain / "breakdown.tsv").read_text(encoding="utf-8")
                section = text.split(f"# {split}\n", 1)[1].split("\n# ", 1)[0]
                rows = [line.split("\t") for line in section.splitlines()[1:] if line]
                return ({row[0] for row in rows} <= dos[split]
                        and sum(int(row[3]) for row in rows)
                        == int(scores()[f"{split}/overall"][2]))
            return check

        def per_protocol():
            series = scores()
            return all(f"{split}/{p}" in series for split in dos for p in ("TCP", "UDP", "ICMP"))

        named = {}
        for split in dos:
            named[f"kdd {split} record count matches the generated file"] = records(split)
            named[f"kdd {split} rates match scores.tsv"] = rates(split)
            named[f"kdd {split} breakdown totals match scores.tsv"] = breakdown(split)
        named["kdd scores every protocol series of both splits"] = per_protocol
        return named

    return Chain(steps, checks, lambda chain: sizes["training"] + sizes["testing"])


WORKLOADS = {
    w.name: w for w in (
        Workload("highrate-detect", "detect", _build_highrate),
        Workload("varied-flows", "detect", _build_varied),
        Workload("kdd-records", "kdd", _build_kdd),
    )
}
