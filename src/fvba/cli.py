"""Command-line pipeline: profile, detect, characterize, simulate, kdd, sweep, score.

All inputs and outputs are the plain-text interchange formats (UTF-8, LF,
tab separators); an input path that ends in ".gz" is read as gzip.  Every
subcommand is deterministic given its flags; seeds are explicit.  Exit
codes: 0 success (no attack), 2 attack detected (the `detect` subcommand
only), 1 on any error.

An optional ``--config FILE`` supplies key=value defaults (keys are the
long flag names without the leading dashes); explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

# fvba makes no BLAS call (its matmuls are on integers), yet OpenBLAS starts a
# thread per CPU when numpy loads: on a 2-CPU host one thread saves ~70 ms per
# process.  Set before the first numpy import; a value in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import io as fio
from .characterizer import CLASSIFICATION_HEADER, THROTTLE_HEADER, dump_characterization
from .detector import (
    DEFAULT_FACTORS,
    ToleranceFactors,
    compute_thresholds,
    detect_profiled,
    dump_verdicts,
    flagged_windows,
    load_verdicts,
)
from .errors import Error, InsufficientDataError, ParameterError, ParseError
from .evaluation import (ScoreReport, dump_breakdown, dump_roc, dump_score, dump_score_table,
                         score, sweep)
from .kdd import (
    PROTOCOLS,
    TESTING_ATTACKS,
    TRAINING_ATTACKS,
    build_profiles,
    evaluate_split,
    parse as parse_kdd,
    select_dos_and_normal,
)
from .model import NORMAL_LABEL, SERIES, ProtocolCategory, series_token
from .profiler import NormalProfile, build_profile, dump_profiles, load_profiles, windowize
from .simulator import ScenarioConfig, ScenarioKind, generate

DEFAULT_WINDOW_SECONDS = 0.2
_JOBS_HELP = "accepted for interface compatibility; output is identical for any value"


def _create(path: str):
    """A new text file for an output: UTF-8, lines ended by "\n"."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: str, text: str) -> None:
    with _create(path) as handle:
        handle.write(text)


def _read(path: str) -> str:
    """The text of a small input file, read and checked as every input is:
    gzip by name, UTF-8 by line, with "\r\n" and "\r" read as "\n"."""
    chunks = fio.read_chunks(fio.read_source(path))
    return fio.decode_lines(bytes.decode, b"".join(chunk for chunk, _ in chunks), 0)


_FACTOR_ROLES = {"r1": "volume factor", "r2": "flow factor", "r3": "lower volume factor"}


def _factor_flags(protocol: ProtocolCategory | None) -> list[tuple[str, str]]:
    """The (flag, factor) pairs of `protocol`'s series, one per factor its DEFAULT_FACTORS hold."""
    prefix = "--" if protocol is None else f"--{protocol.value.lower()}-"
    return [(prefix + name, name) for name in _FACTOR_ROLES
            if getattr(DEFAULT_FACTORS[protocol], name) is not None]


def _resolve_factors(args, series) -> dict[ProtocolCategory | None, ToleranceFactors]:
    """Tuned per-series factors overridden by flags; rejects a flag of a series not in `series`."""
    factors = dict(DEFAULT_FACTORS)
    for protocol in SERIES:
        given = {flag: (name, value) for flag, name in _factor_flags(protocol)
                 if (value := getattr(args, flag[2:].replace("-", "_"), None)) is not None}
        if given:
            factors[protocol] = dataclasses.replace(factors[protocol], **dict(given.values()))
            if protocol not in series:
                raise ParameterError(f"{next(iter(given))}: no {protocol or 'aggregate'} profile")
    return factors


def _add_factor_flags(parser: argparse.ArgumentParser, series) -> None:
    for protocol in series:
        for flag, name in _factor_flags(protocol):
            role = f"{_FACTOR_ROLES[name]} of the {protocol or 'aggregate'} series"
            parser.add_argument(flag, type=float, help=role)


# The scenario flags of `simulate`, in --help order, and the ScenarioConfig
# field each sets and takes its default from.
_SCENARIO_FLAGS = (
    ("clients", "legit_clients"), ("zombies", "zombies"),
    ("request-rate", "legit_request_rate"), ("request-bytes", "legit_bytes_per_request"),
    ("link-rate-bps", "client_link_rate_bps"), ("chunk-bytes", "chunk_bytes"),
    ("zombie-rate-bps", "zombie_rate_bps"), ("zombie-low-rate-bps", "zombie_low_rate_bps"),
    ("high-rate-fraction", "high_rate_fraction"), ("zombie-packet-bytes", "zombie_packet_bytes"),
    ("attack-start", "attack_start"), ("attack-end", "attack_end"), ("duration", "duration"),
    ("seed", "seed"),
)


def cmd_simulate(args) -> int:
    config = ScenarioConfig(kind=ScenarioKind(args.kind),
                            **{name: getattr(args, name) for _, name in _SCENARIO_FLAGS})
    stream = generate(config)
    # Before any file is written, so that a rejected window length leaves none.
    window_truth = stream.window_truth(args.window_seconds) if args.window_truth_out else None
    with _create(args.out) as handle:
        fio.dump_events(stream.events, handle)
    if args.truth_out:
        _write(args.truth_out, fio.dump_truth(stream.truth))
    if window_truth is not None:
        _write(args.window_truth_out, fio.dump_window_truth(window_truth))
    print(f"simulate: {len(stream.events)} events, {len(stream.truth)} flows -> {args.out}")
    return 0


def cmd_profile(args) -> int:
    events = fio.load_events(args.events)
    if not events:
        raise InsufficientDataError("no events to profile")
    series = [None] if args.aggregate else sorted(events.protocols(), key=SERIES.index)
    profiles = []
    for protocol in series:
        windows = windowize(events, args.window_seconds, protocol)
        profiles.append(build_profile(windows, per_flow_scope=args.per_flow_scope))
    _write(args.out, dump_profiles(profiles))
    names = ", ".join(series_token(p.protocol) for p in profiles)
    print(f"profile: {len(profiles)} series ({names}) -> {args.out}")
    return 0


def _note_unprofiled(protocols, remedy: str) -> None:
    """Note on stderr the `protocols` that have windows but no profile, if any."""
    if protocols:
        names = ", ".join(sorted(p.value for p in protocols))
        print(f"fvba: note: no profile for {names}; those windows are not evaluated ({remedy})",
              file=sys.stderr)


def _profiled_series(args):
    """The windows, profiles and verdicts of each profiled series; notes unprofiled protocols."""
    events = fio.load_events(args.events)
    profiles = load_profiles(_read(args.profile))
    factors = _resolve_factors(args, profiles)
    _note_unprofiled(set() if None in profiles else events.protocols() - set(profiles),
                     "profile an aggregate series or training traffic with that protocol")
    series = {p: windowize(events, profile.window_length, p) for p, profile in profiles.items()}
    return series, profiles, detect_profiled(series, profiles, factors)


def cmd_detect(args) -> int:
    _, _, verdicts = _profiled_series(args)
    _write(args.out, dump_verdicts(verdicts.values()))
    _, flags = flagged_windows(verdicts.values())
    attacked = int(flags.sum())
    print(f"detect: {attacked}/{flags.size} windows flagged -> {args.out}")
    return 2 if attacked else 0


def cmd_characterize(args) -> int:
    series, profiles, verdicts = _profiled_series(args)
    # Every input is read and checked before an output is opened; then each
    # flagged window's lines are written as it is characterized.
    flagged = 0
    with _create(args.out) as out, _create(args.throttle_out or os.devnull) as throttles:
        out.write(CLASSIFICATION_HEADER + "\n")
        throttles.write(THROTTLE_HEADER + "\n")
        for protocol, outcomes in verdicts.items():
            flagged += dump_characterization(series[protocol], outcomes, profiles[protocol], out,
                                             throttles)
    print(f"characterize: {flagged} flagged windows -> {args.out}")
    return 0


def _rates(report: ScoreReport, separator: str) -> str:
    """The two rates of `report` as percentages, "undefined" where a rate has no units."""
    detection, fp = (("undefined" if rate is None else f"{100 * rate:.{digits}f}%") for rate, digits
                     in ((report.detection_rate, 2), (report.false_positive_rate, 3)))
    return f"detection {detection}{separator}false positives {fp}"


def cmd_kdd(args) -> int:
    splits = [("training", args.train, TRAINING_ATTACKS)]
    if args.test:
        splits.append(("testing", args.test, TESTING_ATTACKS))
    profiles = None
    rows = []
    breakdown_text = []
    rate_lines = []
    for split, path, attacks in splits:
        records = parse_kdd(path)
        print(f"kdd: {split} records: {len(records)}")
        stream = select_dos_and_normal(records, attacks)
        del records
        if profiles is None:
            # Profiles come from the normal records of the training split.
            profiles = build_profiles(stream[stream.label_mask({NORMAL_LABEL})], args.record_window)
            factors = _resolve_factors(args, profiles)
        evaluation = evaluate_split(stream, attacks, profiles, factors, args.record_window)
        del stream
        _note_unprofiled(evaluation.per_protocol.keys() - profiles.keys(),
                         "train on at least two windows of normal records with that protocol")
        rows.extend((f"{split}/{p.value}", report) for p, report in evaluation.per_protocol.items())
        rows.append((f"{split}/overall", evaluation.overall))
        breakdown_text.append(f"# {split}\n" + dump_breakdown(evaluation.breakdown))
        rate_lines.append(f"kdd: {split} overall {_rates(evaluation.overall, ' ')}")
    print("\n".join(rate_lines))
    _write(args.out, dump_score_table(rows))
    if args.breakdown_out:
        _write(args.breakdown_out, "\n".join(breakdown_text))
    return 0


def _load_grid(path: str, profile: NormalProfile) -> list[ToleranceFactors]:
    """Grid rows (`read_rows`), each checked against `profile` (r3 exactly for UDP)."""
    def row(r1: str, r2: str, r3: str = "-") -> ToleranceFactors:
        factors = ToleranceFactors(fio.float_token(r1, "r1"), fio.float_token(r2, "r2"),
                                   None if r3 == "-" else fio.float_token(r3, "r3"))
        compute_thresholds(profile, factors)
        return factors

    return fio.read_rows(_read(path), (2, 3), row, comments=True)


def cmd_sweep(args) -> int:
    events = fio.load_events(args.events)
    profiles = load_profiles(_read(args.profile))
    if len(profiles) != 1:
        raise ParameterError("sweep needs a single-series profile file (re-run profile with"
                             " --aggregate or a single-protocol stream)")
    ((protocol, profile),) = profiles.items()
    truth = fio.load_window_truth(_read(args.window_truth))
    windows = windowize(events, profile.window_length, protocol)
    grid = _load_grid(args.grid, profile)
    points = sweep(windows, profile, truth, grid, volume_only=args.volume_only)
    _write(args.out, dump_roc(points))
    print(f"sweep: {len(points)} operating points -> {args.out}")
    return 0


def cmd_score(args) -> int:
    verdicts = load_verdicts(_read(args.verdicts))
    truth = fio.load_window_truth(_read(args.window_truth))
    report = score(verdicts.values(), truth)
    _write(args.out, dump_score(report))
    print(f"score: {_rates(report, ', ')}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a rejected argument as a ParameterError,
    for `main` to print and exit 1 on, as on any other error.  `stages` holds
    the names of the top-level parser's subcommands."""

    stages: frozenset[str] = frozenset()

    def error(self, message: str):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fvba", description="Flow-volume based flooding-DDoS detection pipeline")
    parser.add_argument("--config", help="key=value defaults file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic labelled event stream")
    p.add_argument("--kind", required=True, choices=[k.value for k in ScenarioKind])
    defaults = {field.name: field.default for field in dataclasses.fields(ScenarioConfig)}
    defaults["legit_clients"] = 40  # the field has no default
    for flag, name in _SCENARIO_FLAGS:
        p.add_argument(f"--{flag}", dest=name, metavar=flag.upper().replace("-", "_"),
                       type=type(defaults[name]), default=defaults[name])
    p.add_argument("--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS,
                   help="window length for --window-truth-out")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out")
    p.add_argument("--window-truth-out")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("profile", help="build normal profiles from an event stream")
    p.add_argument("--events", required=True)
    p.add_argument("--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS)
    p.add_argument("--aggregate", action="store_true",
                   help="one profile over all protocols (simulation-style runs)")
    p.add_argument("--per-flow-scope", choices=["capture", "window"], default="capture")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("detect", help="flag attack windows against a profile")
    p.add_argument("--events", required=True)
    p.add_argument("--profile", required=True)
    _add_factor_flags(p, SERIES)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_detect)

    p = sub.add_parser("characterize", help="band flows of flagged windows")
    p.add_argument("--events", required=True)
    p.add_argument("--profile", required=True)
    _add_factor_flags(p, SERIES)
    p.add_argument("--out", required=True)
    p.add_argument("--throttle-out")
    p.set_defaults(handler=cmd_characterize)

    p = sub.add_parser("kdd", help="KDD-99 ingestion, training and evaluation")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--record-window", type=int, default=100)
    _add_factor_flags(p, PROTOCOLS)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", required=True)
    p.add_argument("--breakdown-out")
    p.set_defaults(handler=cmd_kdd)

    p = sub.add_parser("sweep", help="tolerance-factor sweep producing ROC points")
    p.add_argument("--events", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--window-truth", required=True)
    p.add_argument("--grid", required=True, help="TSV rows: r1, r2 and optional r3")
    p.add_argument("--volume-only", action="store_true",
                   help="ignore the flow condition (single-metric sweep)")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("score", help="score a verdict file against window truth")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--window-truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_score)

    parser.stages = frozenset(sub.choices)
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Prepend config-file entries as flags so explicit flags win.  Raises
    ParameterError for a second --config, on either side of the subcommand."""
    found = [index for index, token in enumerate(argv) if token.split("=", 1)[0] == "--config"]
    if len(found) > 1:
        raise ParameterError("--config given twice")
    if not found:
        return argv
    index = found[0]
    _, equals, path = argv[index].partition("=")
    if not equals and index + 1 >= len(argv):
        raise ParameterError("--config requires a file path")
    path = path if equals else argv[index + 1]
    rest = argv[:index] + argv[index + (1 if equals else 2) :]
    injected = []
    for number, line in enumerate(_read(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("config lines are key=value", line=number)
        key, value = line.split("=", 1)
        injected.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    # Keep the subcommand first, then config defaults, then explicit flags.
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + injected + rest[1:]
    return injected + rest


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv)
        args = parser.parse_args(argv)
        # Two outputs that name one file would replace or interleave each other.
        outputs: dict[str, str] = {}
        for dest, path in vars(args).items():
            if path is not None and (dest == "out" or dest.endswith("_out")):
                flag = "--" + dest.replace("_", "-")
                first = outputs.setdefault(os.path.abspath(path), flag)
                if first != flag:
                    raise ParameterError(f"{first} and {flag} name the same file")
        return args.handler(args)
    except (Error, OSError) as exc:
        # Only a subcommand names the stage; any other first token is an
        # error before the subcommand.
        stage = f" {argv[0]}" if argv and argv[0] in parser.stages else ""
        print(f"fvba{stage}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
