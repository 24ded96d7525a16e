import argparse
import contextlib
import dataclasses
import gzip
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import fvba
from fvba.cli import _load_grid, _resolve_factors, build_parser, main
from fvba import io as fio
from fvba.detector import DEFAULT_FACTORS, ToleranceFactors, compute_thresholds
from fvba.errors import ParameterError
from fvba.model import SERIES, ProtocolCategory, parse_series
from fvba.profiler import NormalProfile, dump_profiles
from fvba.simulator import ScenarioConfig


def run(args, tmp_path):
    """Invoke the CLI in-process; returns (exit_code, stdout) via capsys-free capture."""
    return main([str(a) for a in args])


def simulate(tmp_path, name, *extra, kind="high-rate", clients=6, zombies=12,
             duration=30, start=10, end=20, seed=7):
    out = tmp_path / f"{name}.tsv"
    args = [
        "simulate", "--kind", kind, "--clients", clients, "--duration", duration,
        "--seed", seed, "--out", out,
    ]
    if kind != "attack-free":
        args += ["--zombies", zombies, "--attack-start", start, "--attack-end", end]
    args += list(extra)
    assert run(args, tmp_path) == 0
    return out


@pytest.fixture()
def pipeline(tmp_path):
    train = simulate(tmp_path, "train", kind="attack-free", seed=5)
    attack = simulate(
        tmp_path, "attack",
        "--truth-out", tmp_path / "truth.tsv",
        "--window-truth-out", tmp_path / "wt.tsv",
        "--window-seconds", "0.2",
    )
    profile = tmp_path / "profile.txt"
    assert run(["profile", "--events", train, "--window-seconds", "0.2",
                "--aggregate", "--out", profile], tmp_path) == 0
    return tmp_path, train, attack, profile


class TestSimulate:
    def test_deterministic_reruns(self, tmp_path):
        a = simulate(tmp_path, "a", seed=9)
        b = simulate(tmp_path, "b", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_truth_sidecar_loads(self, tmp_path):
        simulate(tmp_path, "s", "--truth-out", tmp_path / "truth.tsv")
        truth = fio.load_truth((tmp_path / "truth.tsv").read_text())
        assert sum(label != "normal" for label in truth.values()) == 12


class TestSimulateFlags:
    def test_flag_defaults_are_scenario_config_defaults(self):
        args = build_parser().parse_args(["simulate", "--kind", "attack-free", "--out", "o"])
        for field in dataclasses.fields(ScenarioConfig):
            if field.name != "kind":
                # --clients has a default of its own; the field has none.
                expected = 40 if field.name == "legit_clients" else field.default
                value = getattr(args, field.name)
                assert (value, type(value)) == (expected, type(expected)), field.name

    def test_each_flag_sets_its_field(self):
        args = build_parser().parse_args(["simulate", "--kind", "attack-free", "--out", "o",
                                          "--request-bytes", "7", "--link-rate-bps", "9"])
        assert (args.legit_bytes_per_request, args.client_link_rate_bps) == (7, 9.0)


class TestProfileCommand:
    def test_empty_events_file_fails(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = run(["profile", "--events", empty, "--window-seconds", "0.2",
                    "--out", tmp_path / "p.txt"], tmp_path)
        assert code == 1

    @pytest.mark.parametrize("timestamp", ["nan", "inf"])
    def test_non_finite_timestamp_fails_with_line(self, tmp_path, capsys, timestamp):
        events = tmp_path / "events.tsv"
        events.write_text(f"0.0\tTCP\tc0\t1\tsrv\t80\t10\n{timestamp}\tTCP\tc0\t1\tsrv\t80\t10\n")
        code = run(["profile", "--events", events, "--out", tmp_path / "p.txt"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("fvba profile: error: line 2: non-finite timestamp")
        assert "Traceback" not in err

    def test_unsorted_events_fail_with_line(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text("0.5\tTCP\tc0\t1\tsrv\t80\t10\n0.2\tTCP\tc0\t1\tsrv\t80\t10\n")
        code = run(["profile", "--events", events, "--out", tmp_path / "p.txt"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "fvba profile: error: line 2: events are not sorted by timestamp (0.2 after 0.5)")

    def test_far_future_timestamp_fails_before_allocating(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text("".join(f"{t}\tTCP\tc0\t1\tsrv\t80\t10\n" for t in ("0.0", "0.1", "1e15")))
        code = run(["profile", "--events", events, "--out", tmp_path / "p.txt"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("fvba profile: error: timestamps span 0.0 to 1000000000000000.0 s,"
                              " 5000000000000001 windows of 0.2 s")
        assert "Traceback" not in err

    def test_per_protocol_sections(self, pipeline):
        tmp_path, train, attack, _ = pipeline
        out = tmp_path / "per_proto.txt"
        assert run(["profile", "--events", attack, "--window-seconds", "0.2",
                    "--out", out], tmp_path) == 0
        text = out.read_text()
        assert "protocol=TCP" in text and "protocol=UDP" in text
        assert "protocol=ALL" not in text

    def test_series_listed_in_series_order(self, tmp_path, capsys):
        # ICMP comes first in the stream and in the alphabet, but last of the protocols.
        events = tmp_path / "events.tsv"
        events.write_text("".join(f"{t}\tICMP\tc0\t0\tsrv\t0\t10\n{t}\tUDP\tc0\t53\tsrv\t53\t10\n"
                                  f"{t}\tTCP\tc0\t1\tsrv\t80\t10\n" for t in ("0.1", "0.3", "0.5")))
        out = tmp_path / "p.txt"
        assert run(["profile", "--events", events, "--out", out], tmp_path) == 0
        assert capsys.readouterr().out == f"profile: 3 series (TCP, UDP, ICMP) -> {out}\n"
        assert [line for line in out.read_text().splitlines() if line.startswith("protocol=")] == [
            "protocol=TCP", "protocol=UDP", "protocol=ICMP"]

    def test_profile_bytes_reproducible(self, pipeline):
        tmp_path, train, _, profile = pipeline
        again = tmp_path / "again.txt"
        assert run(["profile", "--events", train, "--window-seconds", "0.2",
                    "--aggregate", "--out", again], tmp_path) == 0
        assert again.read_bytes() == profile.read_bytes()


class TestDetectCommand:
    def test_attack_stream_exits_2(self, pipeline):
        tmp_path, _, attack, profile = pipeline
        code = run(["detect", "--events", attack, "--profile", profile,
                    "--out", tmp_path / "v.tsv"], tmp_path)
        assert code == 2

    def test_attack_free_stream_exits_0(self, pipeline):
        tmp_path, train, _, profile = pipeline
        code = run(["detect", "--events", train, "--profile", profile,
                    "--out", tmp_path / "v0.tsv"], tmp_path)
        assert code == 0

    def test_missing_profile_exits_1(self, pipeline):
        tmp_path, _, attack, _ = pipeline
        code = run(["detect", "--events", attack, "--profile", tmp_path / "nope.txt",
                    "--out", tmp_path / "v.tsv"], tmp_path)
        assert code == 1

    def test_non_finite_factor_rejected(self, pipeline, capsys):
        tmp_path, _, attack, profile = pipeline
        code = run(["detect", "--events", attack, "--profile", profile, "--r1", "nan",
                    "--out", tmp_path / "v.tsv"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("fvba detect: error: tolerance factors must be positive and finite")
        assert not (tmp_path / "v.tsv").exists()

    def test_gzip_events_give_the_same_verdicts(self, pipeline):
        tmp_path, _, attack, profile = pipeline
        packed = tmp_path / "attack.tsv.gz"
        packed.write_bytes(gzip.compress(attack.read_bytes()))
        for events, name in ((attack, "plain.tsv"), (packed, "packed.tsv")):
            assert run(["detect", "--events", events, "--profile", profile,
                        "--out", tmp_path / name], tmp_path) == 2
        assert (tmp_path / "plain.tsv").read_bytes() == (tmp_path / "packed.tsv").read_bytes()

    def test_jobs_flag_does_not_change_output(self, pipeline):
        tmp_path, _, attack, profile = pipeline
        for jobs, name in ((1, "v1.tsv"), (4, "v4.tsv")):
            run(["detect", "--events", attack, "--profile", profile,
                 "--jobs", jobs, "--out", tmp_path / name], tmp_path)
        assert (tmp_path / "v1.tsv").read_bytes() == (tmp_path / "v4.tsv").read_bytes()

    def test_unprofiled_protocol_noted(self, pipeline, capsys):
        # The attack-free stream has TCP flows only; the zombies send UDP.
        tmp_path, train, attack, aggregate = pipeline
        tcp = tmp_path / "tcp.txt"
        assert run(["profile", "--events", train, "--out", tcp], tmp_path) == 0
        capsys.readouterr()
        for profile, note in ((aggregate, ""), (tcp, (
                "fvba: note: no profile for UDP; those windows are not evaluated"
                " (profile an aggregate series or training traffic with that protocol)\n"))):
            assert run(["detect", "--events", attack, "--profile", profile,
                        "--out", tmp_path / "v.tsv"], tmp_path) == 2
            assert capsys.readouterr().err == note


class TestScoreAndSweep:
    def test_score_output(self, pipeline):
        tmp_path, _, attack, profile = pipeline
        run(["detect", "--events", attack, "--profile", profile,
             "--out", tmp_path / "v.tsv"], tmp_path)
        code = run(["score", "--verdicts", tmp_path / "v.tsv",
                    "--window-truth", tmp_path / "wt.tsv",
                    "--out", tmp_path / "score.tsv"], tmp_path)
        assert code == 0
        lines = (tmp_path / "score.tsv").read_text().splitlines()
        assert len(lines) == 2
        detection = lines[1].split("\t")[4]
        assert float(detection) >= 0.95

    def test_sweep_rows_follow_grid(self, pipeline):
        tmp_path, _, attack, profile = pipeline
        grid = tmp_path / "grid.tsv"
        grid.write_text("2\t2\n4\t4\n6\t6\n")
        code = run(["sweep", "--events", attack, "--profile", profile,
                    "--window-truth", tmp_path / "wt.tsv", "--grid", grid,
                    "--out", tmp_path / "roc.tsv"], tmp_path)
        assert code == 0
        assert len((tmp_path / "roc.tsv").read_text().splitlines()) == 4

    @given(st.lists(st.tuples(*[st.floats(min_value=5e-324, allow_infinity=False)] * 3),
                    min_size=1, max_size=5), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_grid_round_trips(self, tmp_path_factory, rows, udp, data):
        # r3 for UDP, "-" or no third column for any other series.
        protocol = ProtocolCategory.UDP if udp else None
        profile = NormalProfile(protocol, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        grid = [ToleranceFactors(r1, r2, r3 if udp else None) for r1, r2, r3 in rows]
        lines = ["# r1\tr2\tr3"]
        for f in grid:
            r3 = repr(f.r3) if udp else data.draw(st.sampled_from(["\t-", ""]))
            lines.append(f"{f.r1!r}\t{f.r2!r}" + ("\t" + r3 if udp else r3))
        path = tmp_path_factory.mktemp("grid") / "grid.tsv"
        path.write_text("\n".join(lines) + "\n")
        assert _load_grid(str(path), profile) == grid

    def test_sweep_needs_single_series_profile(self, pipeline):
        tmp_path, _, attack, _ = pipeline
        multi = tmp_path / "multi.txt"
        run(["profile", "--events", attack, "--window-seconds", "0.2", "--out", multi], tmp_path)
        grid = tmp_path / "grid.tsv"
        grid.write_text("2\t2\n")
        code = run(["sweep", "--events", attack, "--profile", multi,
                    "--window-truth", tmp_path / "wt.tsv", "--grid", grid,
                    "--out", tmp_path / "roc.tsv"], tmp_path)
        assert code == 1


class TestCharacterizeCommand:
    def test_writes_classifications_and_throttles(self, pipeline):
        tmp_path, _, attack, profile = pipeline
        code = run(["characterize", "--events", attack, "--profile", profile,
                    "--out", tmp_path / "cls.tsv",
                    "--throttle-out", tmp_path / "thr.tsv"], tmp_path)
        assert code == 0
        cls_lines = (tmp_path / "cls.tsv").read_text().splitlines()
        assert cls_lines[0].startswith("window_index\t")
        assert len(cls_lines) > 1
        thr_lines = (tmp_path / "thr.tsv").read_text().splitlines()
        assert thr_lines[0].startswith("window_index\t")
        for line in thr_lines[1:]:
            assert 0 < float(line.split("\t")[-1]) <= 1

    def test_rejected_run_writes_no_output(self, pipeline, capsys):
        # Outputs are opened only after every input and factor is checked.
        tmp_path, _, attack, profile = pipeline
        code = run(["characterize", "--events", attack, "--profile", profile, "--r1", "nan",
                    "--out", tmp_path / "cls.tsv", "--throttle-out", tmp_path / "thr.tsv"],
                   tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith("fvba characterize: error: tolerance factors")
        assert not (tmp_path / "cls.tsv").exists() and not (tmp_path / "thr.tsv").exists()

    def test_one_path_for_both_outputs_rejected(self, pipeline, capsys):
        tmp_path, _, attack, profile = pipeline
        code = run(["characterize", "--events", attack, "--profile", profile,
                    "--out", tmp_path / "both.tsv", "--throttle-out", tmp_path / "." / "both.tsv"],
                   tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            "fvba characterize: error: --out and --throttle-out name the same file\n")
        assert not (tmp_path / "both.tsv").exists()


# Every step of the simulated and KDD-99 chains, run in one interpreter,
# which then prints whether numpy.ma was imported.
_CHAIN_SCRIPT = """
import sys
from fvba.cli import main
steps = [
    "simulate --kind attack-free --clients 6 --duration 30 --seed 5 --out train.tsv",
    "simulate --kind high-rate --clients 6 --zombies 12 --duration 30 --attack-start 10"
    " --attack-end 20 --seed 7 --out attack.tsv --window-truth-out wt.tsv",
    "profile --events train.tsv --aggregate --per-flow-scope window --out profile.txt",
    "detect --events attack.tsv --profile profile.txt --out verdicts.tsv",
    "score --verdicts verdicts.tsv --window-truth wt.tsv --out score.tsv",
    "sweep --events attack.tsv --profile profile.txt --window-truth wt.tsv --grid grid.tsv"
    " --out roc.tsv",
    "characterize --events attack.tsv --profile profile.txt --out cls.tsv --throttle-out thr.tsv",
    "kdd --train mini_kdd.csv --test mini_kdd.csv --out scores.tsv",
]
codes = [main(step.split()) for step in steps]
print(codes, "numpy.ma" in sys.modules, file=sys.stderr)
"""


class TestImports:
    def test_no_step_imports_numpy_ma(self, tmp_path):
        # numpy.ma costs a process about 1.25 MB and 10-20 ms to import; a
        # plain np.unique imports it in numpy 2.x.
        TestKddCommand().make_file(tmp_path)
        (tmp_path / "grid.tsv").write_text("2\t2\n6\t6\n")
        # The child runs in tmp_path and imports the fvba under test.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fvba.__file__)))
        result = subprocess.run([sys.executable, "-c", _CHAIN_SCRIPT], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == "[0, 0, 0, 2, 0, 0, 0, 0] False"


class TestKddCommand:
    def make_file(self, tmp_path):
        import random
        rng = random.Random(2)

        def line(service="http", flag="SF", src=None, dst=None, label="normal.", proto="tcp"):
            src = rng.randint(300, 700) if src is None else src
            dst = rng.randint(300, 700) if dst is None else dst
            return ",".join(["0", proto, service, flag, str(src), str(dst)] + ["0"] * 35) + "," + label

        lines = [line() for _ in range(400)]
        lines += [line(service=f"p{i % 50}", flag="S0", src=0, dst=0, label="neptune.")
                  for i in range(100)]
        lines += [line() for _ in range(100)]
        path = tmp_path / "mini_kdd.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_kdd_pipeline(self, tmp_path, capsys):
        data = self.make_file(tmp_path)
        code = run(["kdd", "--train", data, "--record-window", "100",
                    "--out", tmp_path / "scores.tsv",
                    "--breakdown-out", tmp_path / "breakdown.tsv"], tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "training records: 600" in printed
        table = (tmp_path / "scores.tsv").read_text().splitlines()
        assert table[0].startswith("series\t")
        assert any(row.startswith("training/overall") for row in table)
        assert "neptune" in (tmp_path / "breakdown.tsv").read_text()

    def test_undefined_rate_printed_as_undefined(self, tmp_path, capsys):
        # No attack record, so the detection rate has no denominator.
        line = ",".join(["0", "tcp", "http", "SF", "400", "500"] + ["0"] * 35) + ",normal."
        data = tmp_path / "normal.csv"
        data.write_text(f"{line}\n" * 40)
        assert run(["kdd", "--train", data, "--record-window", "5",
                    "--out", tmp_path / "scores.tsv"], tmp_path) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == "kdd: training overall detection undefined false positives 0.000%"
        overall = (tmp_path / "scores.tsv").read_text().splitlines()[-1].split("\t")
        assert overall[0] == "training/overall" and overall[5:] == ["undefined", "0.0"]

    def test_training_and_testing_splits(self, tmp_path, capsys):
        data = self.make_file(tmp_path)
        code = run(["kdd", "--train", data, "--test", data, "--out", tmp_path / "scores.tsv",
                    "--breakdown-out", tmp_path / "breakdown.tsv"], tmp_path)
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:2] == ["kdd: training records: 600", "kdd: testing records: 600"]
        assert printed[2].startswith("kdd: training overall detection 100.00%")
        assert printed[3].startswith("kdd: testing overall detection 100.00%")
        assert len(printed) == 4
        rows = [row.split("\t") for row in (tmp_path / "scores.tsv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["training/TCP", "training/overall",
                                             "testing/TCP", "testing/overall"]
        # One file as both splits: its neptune records are DoS in both.
        assert rows[0][1:] == rows[2][1:]
        breakdown = (tmp_path / "breakdown.tsv").read_text()
        assert breakdown.startswith("# training\n") and "\n# testing\n" in breakdown

    def test_unprofiled_protocol_noted(self, tmp_path, capsys):
        # Three windows of ICMP records, none of them normal, so no ICMP profile.
        lines = self.make_file(tmp_path).read_text().splitlines()
        smurf = ",".join(["0", "icmp", "ecr_i", "SF", "1032", "0"] + ["0"] * 35) + ",smurf."
        data = tmp_path / "smurf.csv"
        data.write_text("\n".join(lines + [smurf] * 300) + "\n")
        for path, note in ((tmp_path / "mini_kdd.csv", ""), (data, (
                "fvba: note: no profile for ICMP; those windows are not evaluated"
                " (train on at least two windows of normal records with that protocol)\n"))):
            assert run(["kdd", "--train", path, "--out", tmp_path / "scores.tsv"], tmp_path) == 0
            assert capsys.readouterr().err == note
        rows = (tmp_path / "scores.tsv").read_text().splitlines()
        assert rows[2].split("\t")[:3] == ["training/ICMP", "0", "300"]

    @pytest.mark.parametrize("token", ["1.e999", "-500"])
    def test_bad_byte_count_fails_with_line(self, tmp_path, capsys, token):
        data = self.make_file(tmp_path)
        lines = data.read_text().splitlines()
        fields = lines[2].split(",")
        fields[4] = token
        lines[2] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        code = run(["kdd", "--train", data, "--out", tmp_path / "scores.tsv"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"fvba kdd: error: line 3: src_bytes must be a non-negative count"
                              f" within int64, got '{token}'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--tcp-r1", "--udp-r3"])
    def test_non_finite_factor_rejected(self, tmp_path, capsys, flag):
        data = self.make_file(tmp_path)
        code = run(["kdd", "--train", data, flag, "nan", "--out", tmp_path / "scores.tsv"], tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("fvba kdd: error: ") and "finite" in err
        assert "Traceback" not in err


_VERDICT_HEADER = "window_index\tprotocol\tis_attack\ttriggered\tvolume_deviation\tflow_deviation\n"


class TestMalformedInput:
    """A malformed input ends in exit 1 and one `fvba <stage>: error:` line."""

    def fails(self, capsys, args, message):
        """Assert that the command exits 1 with one error line that starts
        with `message`; returns that line."""
        code = main([str(a) for a in args])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(message), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        return err

    @pytest.mark.parametrize("row,message", [
        ("6\tsix", "line 2: malformed r2: 'six'"),
        ("1_0\t6", "line 2: malformed r1: '1_0'"),
        ("6\t6\t+1_0", "line 2: malformed r3: '+1_0'"),
        (" ", "line 2: expected 2 or 3 columns, got 1"),
        ("6\t6\t-1", "line 2: lower volume factor must be positive and finite"),
        ("6\t6\t1.5", "line 2: lower volume factor r3 only applies to UDP, not the aggregate"
                      " series"),
    ])
    def test_grid_row(self, pipeline, capsys, row, message):
        tmp_path, _, attack, profile = pipeline
        grid = tmp_path / "grid.tsv"
        grid.write_text(f"2\t2\n{row}\n")
        self.fails(capsys, ["sweep", "--events", attack, "--profile", profile,
                            "--window-truth", tmp_path / "wt.tsv", "--grid", grid,
                            "--out", tmp_path / "roc.tsv"], "fvba sweep: error: " + message)

    def score(self, tmp_path, capsys, verdict_rows, truth_rows, message):
        verdicts, truth = tmp_path / "v.tsv", tmp_path / "wt.tsv"
        verdicts.write_text(_VERDICT_HEADER + "".join(row + "\n" for row in verdict_rows))
        truth.write_text("".join(row + "\n" for row in truth_rows))
        self.fails(capsys, ["score", "--verdicts", verdicts, "--window-truth", truth,
                            "--out", tmp_path / "s.tsv"], "fvba score: error: " + message)

    @pytest.mark.parametrize("row,message", [
        ("1\tALL\t1\tbogus\t0.0\t0.0", "line 3: 'bogus' is not a valid triggered set"),
        ("1\tALL\t1\t-\t0.0\t0.0", "line 3: is_attack must mirror the triggered set"),
        # One spelling per series and per set of fired conditions, as dump_verdicts writes.
        ("0\t tcp \t1\tflow,flow,-\t0.0\t1.0", "line 3: unknown series: ' tcp '"),
        ("1\ttcp\t0\t-\t0.0\t0.0", "line 3: unknown series: 'tcp'"),
        ("1\tALL\t1\tflow,flow\t0.0\t0.0", "line 3: 'flow,flow' is not a valid triggered set"),
        ("1\tALL\t1\tflow,-\t0.0\t0.0", "line 3: 'flow,-' is not a valid triggered set"),
        ("1\tALL\t1\tflow,volume_upper\t0.0\t0.0",
         "line 3: 'flow,volume_upper' is not a valid triggered set"),
        ("9223372036854775808\tALL\t0\t-\t0.0\t0.0",
         "line 3: window index 9223372036854775808 does not fit int64"),
        ("-9223372036854775809\tALL\t0\t-\t0.0\t0.0",
         "line 3: window index -9223372036854775809 does not fit int64"),
        # A second row for window 0 of the series; it was merged with the first.
        ("0\tALL\t1\tflow\t0.0\t50.0", "line 3: window 0 of the ALL series given twice"),
        ("1_0\tALL\t0\t-\t0.0\t0.0", "line 3: malformed window index: '1_0'"),
        ("1\tALL\t0\t-\t+1_0\t0.0", "line 3: malformed volume deviation: '+1_0'"),
    ])
    def test_verdict_row(self, tmp_path, capsys, row, message):
        self.score(tmp_path, capsys, ["0\tALL\t0\t-\t0.0\t0.0", row],
                   ["0\tnormal", "1\tattack"], message)

    def test_window_truth_row(self, tmp_path, capsys):
        self.score(tmp_path, capsys, ["0\tALL\t0\t-\t0.0\t0.0"], ["0\tnormal", "x\tattack"],
                   "line 2: malformed window index: 'x'")

    def test_window_truth_index_beyond_int64(self, tmp_path, capsys):
        # Named by line, as a verdict row's index is, not by a window-set mismatch.
        self.score(tmp_path, capsys, ["0\tALL\t0\t-\t0.0\t0.0"],
                   ["0\tnormal", "9223372036854775808\tattack"],
                   "line 2: window index 9223372036854775808 does not fit int64")

    def test_profile_without_profile_block(self, tmp_path, capsys):
        events, profile = tmp_path / "events.tsv", tmp_path / "profile.txt"
        events.write_text("0.0\tTCP\tc0\t1\tsrv\t80\t10\n")
        profile.write_text("version=1\n")
        self.fails(capsys, ["detect", "--events", events, "--profile", profile,
                            "--out", tmp_path / "v.tsv"],
                   "fvba detect: error: the profile document holds no profile block")
        assert not (tmp_path / "v.tsv").exists()

    def test_profile_first_block_without_protocol(self, tmp_path, capsys):
        events, profile = tmp_path / "events.tsv", tmp_path / "profile.txt"
        events.write_text("0.0\tTCP\tc0\t1\tsrv\t80\t10\n")
        block = dump_profiles([NormalProfile(ProtocolCategory.TCP, 0.2, 10, *[1.0] * 6)])
        block = block.removeprefix("version=1\n\n")
        profile.write_text(f"version=1\nvolume_mean=99.0\ntraining_windows=1_0\n\n{block}")
        self.fails(capsys, ["detect", "--events", events, "--profile", profile,
                            "--out", tmp_path / "v.tsv"],
                   "fvba detect: error: line 1: profile block missing field 'protocol'")
        profile.write_text(f"version=1\n\n{block.replace('TCP', 'tcp')}")
        self.fails(capsys, ["detect", "--events", events, "--profile", profile,
                            "--out", tmp_path / "v.tsv"],
                   "fvba detect: error: line 3: bad profile block: unknown series: 'tcp'")

    def test_window_truth_repeated_index(self, tmp_path, capsys):
        self.score(tmp_path, capsys, ["0\tALL\t0\t-\t0.0\t0.0"], ["0\tnormal", "0\tattack"],
                   "line 2: window 0 given twice")

    @pytest.mark.parametrize("deviations", ["nan\t0.0", "0.0\tinf", "-inf\t0.0"])
    def test_verdict_non_finite_deviation(self, tmp_path, capsys, deviations):
        self.score(tmp_path, capsys, ["0\tALL\t0\t-\t0.0\t0.0", f"1\tALL\t0\t-\t{deviations}"],
                   ["0\tnormal", "1\tnormal"], "line 3: deviations must be finite")

    @pytest.mark.parametrize("duration,message", [
        ("inf", "require finite attack_start < attack_end <= duration"),
        ("1e12", "scenario expects 6e+13 events, more than the 20,000,000"),
    ])
    def test_unbounded_simulate_duration(self, tmp_path, capsys, duration, message):
        # Rejected when the scenario is built, before anything is generated.
        self.fails(capsys, ["simulate", "--kind", "attack-free", "--clients", "2",
                            "--duration", duration, "--out", tmp_path / "x.tsv"],
                   "fvba simulate: error: " + message)
        assert not (tmp_path / "x.tsv").exists()

    def test_negative_simulate_attack_start(self, tmp_path, capsys):
        # Rejected when the scenario is built, naming the field, not a generated event.
        self.fails(capsys, ["simulate", "--kind", "high-rate", "--zombies", "2", "--clients", "2",
                            "--duration", "10", "--attack-start", "-5", "--attack-end", "5",
                            "--seed", "1", "--out", tmp_path / "x.tsv"],
                   "fvba simulate: error: attack_start must be >= 0, got -5.0")
        assert not (tmp_path / "x.tsv").exists()

    @pytest.mark.parametrize("duration", ["0", "-1"])
    def test_non_positive_simulate_duration(self, tmp_path, capsys, duration):
        self.fails(capsys, ["simulate", "--kind", "attack-free", "--clients", "2",
                            "--duration", duration, "--out", tmp_path / "x.tsv"],
                   f"fvba simulate: error: duration must be positive and finite, got {float(duration)}")

    def test_negative_simulate_seed(self, tmp_path, capsys):
        self.fails(capsys, ["simulate", "--kind", "attack-free", "--clients", "2",
                            "--duration", "3", "--seed", "-1", "--out", tmp_path / "x.tsv"],
                   "fvba simulate: error: seed must be non-negative, got -1")
        assert not (tmp_path / "x.tsv").exists()

    @pytest.mark.parametrize("length,message", [
        ("0", "window length must be positive and finite, got 0.0"),
        ("nan", "window length must be positive and finite, got nan"),
        ("-0.2", "window length must be positive and finite, got -0.2"),
        # Far more windows than MAX_WINDOWS over 3 s.
        ("1e-300", "timestamps span "),
        ("1e-6", "timestamps span "),
    ])
    def test_bad_window_truth_length(self, tmp_path, capsys, length, message):
        err = self.fails(capsys, ["simulate", "--kind", "attack-free", "--clients", "2",
                                  "--duration", "3", "--out", tmp_path / "x.tsv",
                                  "--window-truth-out", tmp_path / "wt.tsv",
                                  "--window-seconds", length],
                         "fvba simulate: error: " + message)
        if message.startswith("timestamps"):
            assert err.endswith(f" windows of {float(length)} s; at most 1000000 windows are"
                                " supported\n")
        assert not (tmp_path / "x.tsv").exists() and not (tmp_path / "wt.tsv").exists()

    _HUGE_SIMULATE = ["simulate", "--kind", "high-rate", "--zombies", "1", "--clients", "1",
                      "--duration", "1", "--attack-start", "0", "--attack-end", "1"]

    @pytest.mark.parametrize("args,message", [
        (["detect", "--events", "huge.tsv", "--profile", "p.txt", "--out", "out.tsv"],
         "the window index of timestamp 1e+308 s at 0.2 s windows does not fit int64"),
        (["characterize", "--events", "huge.tsv", "--profile", "p.txt", "--out", "out.tsv"],
         "the window index of timestamp 1e+308 s at 0.2 s windows does not fit int64"),
        (["sweep", "--events", "huge.tsv", "--profile", "p.txt", "--window-truth", "wt.tsv",
          "--grid", "grid.tsv", "--out", "out.tsv"],
         "the window index of timestamp 1e+308 s at 0.2 s windows does not fit int64"),
        (["profile", "--events", "train.tsv", "--aggregate", "--window-seconds", "1e-310",
          "--out", "out.tsv"],
         "the window index of timestamp 0.3 s at 1e-310 s windows does not fit int64"),
        (["detect", "--events", "train.tsv", "--profile", "tiny.txt", "--out", "out.tsv"],
         "the window index of timestamp 0.3 s at 1e-310 s windows does not fit int64"),
        (["simulate", "--kind", "attack-free", "--clients", "2", "--duration", "3",
          "--window-seconds", "1e-320", "--window-truth-out", "wt-out.tsv", "--out", "out.tsv"],
         "the window index of timestamp "),
        ([*_HUGE_SIMULATE, "--chunk-bytes", "99999999999999999999", "--out", "out.tsv"],
         "client link rate (finite) and chunk size (within int64) must be positive"),
        ([*_HUGE_SIMULATE, "--zombie-packet-bytes", "9223372036854775808", "--out", "out.tsv"],
         "zombie packet size must be positive and within int64"),
    ])
    def test_index_or_size_beyond_int64(self, tmp_path, capsys, monkeypatch, args, message):
        # Indices that overflow to inf and sizes that overflow int64 end in an error line.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "huge.tsv").write_text("1e308\tTCP\tc0\t1\tsrv\t80\t10\n")
        (tmp_path / "train.tsv").write_text("0.0\tTCP\tc0\t1\tsrv\t80\t10\n"
                                            "0.3\tTCP\tc0\t1\tsrv\t80\t12\n")
        (tmp_path / "wt.tsv").write_text("0\tnormal\n")
        (tmp_path / "grid.tsv").write_text("2\t2\n")
        for name, length in [("p.txt", 0.2), ("tiny.txt", 1e-310)]:
            (tmp_path / name).write_text(dump_profiles([NormalProfile(None, length, 2, *[1.0] * 6)]))
        self.fails(capsys, args, f"fvba {args[0]}: error: {message}")
        assert not (tmp_path / "out.tsv").exists() and not (tmp_path / "wt-out.tsv").exists()

    def test_rejected_arguments_exit_1(self, tmp_path, capsys):
        config = tmp_path / "c.conf"
        config.write_text("clients=many\n")
        invalid = "fvba simulate: error: argument --clients: invalid int value: 'many'"
        self.fails(capsys, ["simulate", "--config", config, "--kind", "attack-free",
                            "--out", tmp_path / "x.tsv"], invalid)
        self.fails(capsys, ["--config", config, "simulate", "--kind", "attack-free",
                            "--out", tmp_path / "x.tsv"], invalid)
        self.fails(capsys, ["simulate", "--kind", "attack-free", "--clients", "many",
                            "--out", tmp_path / "x.tsv"], invalid)
        self.fails(capsys, ["simulate", "--kind", "attack-free"],
                   "fvba simulate: error: the following arguments are required: --out")
        self.fails(capsys, ["--config"], "fvba: error: --config requires a file path")
        # A second --config, of either spelling and on either side of the
        # subcommand, is neither dropped nor read as a flag's value.
        empty, strict = tmp_path / "empty.cfg", tmp_path / "strict.cfg"
        empty.write_text("# nothing\n")
        strict.write_text("r1=0.001\n")
        simulate = ["simulate", "--kind", "attack-free", "--out", tmp_path / "x.tsv"]
        for args in ([["--config", empty, "--config", strict] + simulate,
                      ["--config", strict, "--config", empty] + simulate,
                      [f"--config={strict}", "--config", empty] + simulate,
                      ["--config", strict] + simulate + [f"--config={empty}"]]):
            self.fails(capsys, args, "fvba: error: --config given twice\n")
        self.fails(capsys, simulate + ["--config", strict, "--config", empty],
                   "fvba simulate: error: --config given twice\n")
        assert not (tmp_path / "x.tsv").exists()

    def test_unknown_subcommand_names_no_stage(self, tmp_path, capsys):
        # A word that is not a subcommand fails before any stage, as does
        # its config file.
        self.fails(capsys, ["bogus"], "fvba: error: argument command: invalid choice: 'bogus'")
        self.fails(capsys, ["bogus", "--config", tmp_path / "missing.conf"], "fvba: error: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit:
            main(["simulate", "--help"])
        assert exit.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fvba simulate")

    def test_events_not_utf8(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_bytes(b"0.0\tTCP\tc0\t1\tsrv\t80\t10\r\n0.1\tTCP\tc\xff\t1\tsrv\t80\t10\n")
        self.fails(capsys, ["profile", "--events", events, "--out", tmp_path / "p.txt"],
                   "fvba profile: error: line 2: not UTF-8: byte 0xff")
        # "\r" ends a line, "\x0b" and "\x85" do not: line 1 is one bad
        # address, named before line 2.
        events.write_bytes(b"0.0\tTCP\tc\x0b\xc2\x85\t1\tsrv\t80\t10\r0.1\tTCP\tc\xff\t1\tsrv\t80\t10\n")
        self.fails(capsys, ["detect", "--events", events, "--profile", tmp_path / "p.txt",
                            "--out", tmp_path / "v.tsv"],
                   "fvba detect: error: line 1: flow address holds a tab or line break: 'c\\x0b\\x85'")
        events.write_bytes(b"0.0\tTCP\tc0\t1\tsrv\t80\t10\r0.1\tTCP\tc\xff\t1\tsrv\t80\t10\n")
        self.fails(capsys, ["detect", "--events", events, "--profile", tmp_path / "p.txt",
                            "--out", tmp_path / "v.tsv"],
                   "fvba detect: error: line 2: not UTF-8: byte 0xff")

    def test_first_bad_line_named_before_a_later_non_utf8_line(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_bytes(b"0.0\tTCP\tc0\t1\tsrv\t80\n0.1\tTCP\tc\xff\t1\tsrv\t80\t10\n")
        self.fails(capsys, ["profile", "--events", events, "--out", tmp_path / "p.txt"],
                   "fvba profile: error: line 1: expected 7 columns, got 6")

    def test_events_truncated_gzip(self, pipeline, capsys):
        tmp_path, _, attack, profile = pipeline
        path = tmp_path / "attack.tsv.gz"
        data = gzip.compress(attack.read_bytes())
        path.write_bytes(data[: len(data) // 2])
        self.fails(capsys, ["detect", "--events", path, "--profile", profile,
                            "--out", tmp_path / "v.tsv"],
                   f"fvba detect: error: {path}: corrupt or truncated gzip data: Compressed file"
                   " ended before the end-of-stream marker was reached")

    def kdd_fails(self, capsys, path, message):
        self.fails(capsys, ["kdd", "--train", path, "--out", path.parent / "scores.tsv"],
                   "fvba kdd: error: " + message)

    def test_kdd_not_utf8(self, tmp_path, capsys):
        path = TestKddCommand().make_file(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b"http", b"htt\xff")
        path.write_bytes(b"\n".join(lines))
        self.kdd_fails(capsys, path, "line 5: not UTF-8: byte 0xff")

    def test_kdd_truncated_and_corrupt_gzip(self, tmp_path, capsys):
        path = tmp_path / "records.gz"
        data = gzip.compress(TestKddCommand().make_file(tmp_path).read_bytes())
        path.write_bytes(data[: len(data) // 2])
        self.kdd_fails(capsys, path, f"{path}: corrupt or truncated gzip data: Compressed file"
                                     " ended before the end-of-stream marker was reached")
        path.write_bytes(data[:20] + bytes(64) + data[84:])
        self.kdd_fails(capsys, path, f"{path}: corrupt or truncated gzip data: Error -3 while"
                                     " decompressing data")


def _mutations(data: bytes):
    """Byte-level edits of `data`: insert, delete, replace and truncate."""
    position = st.integers(0, len(data))
    edit = st.one_of(
        st.tuples(st.just("insert"), position, st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("delete"), position, st.integers(1, 40)),
        st.tuples(st.just("replace"), position, st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("truncate"), position, st.just(b"")),
    )
    return st.lists(edit, min_size=1, max_size=4)


def _mutate(data: bytes, edits) -> bytes:
    for kind, at, value in edits:
        if kind == "insert":
            data = data[:at] + value + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + value:]
        elif kind == "replace":
            data = data[:at] + value + data[at + len(value):]
        else:
            data = data[:at]
    return data


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small event file with its aggregate profile, and a small KDD file;
    the event file's window truth is left in wtruth.tsv."""
    root = tmp_path_factory.mktemp("fuzz")
    events = simulate(root, "events", "--window-truth-out", root / "wtruth.tsv", clients=3,
                      zombies=2, duration=4, start=1, end=3)
    profile = root / "profile.txt"
    assert main(["profile", "--events", str(events), "--aggregate", "--out", str(profile)]) == 0
    kdd_lines = TestKddCommand().make_file(root).read_bytes().split(b"\n")
    return root, events.read_bytes(), profile, b"\n".join(kdd_lines[:350] + [b""])


@pytest.fixture(scope="module")
def fuzz_tables(fuzz_inputs):
    """Verdicts and window truth of the fuzz event file, and a sweep grid."""
    root, _, profile, _ = fuzz_inputs
    verdicts = root / "verdicts.tsv"
    assert main(["detect", "--events", str(root / "events.tsv"), "--profile", str(profile),
                 "--out", str(verdicts)]) in (0, 2)
    return (verdicts.read_bytes(), (root / "wtruth.tsv").read_bytes(),
            b"# r1 r2\n2\t2\n4\t4\t-\n6\t6\n")


class TestFuzz:
    """Mangled input ends in exit 0, 1 or 2, never in an escaping exception;
    exit 1 prints one `fvba <stage>: error:` line."""

    def check(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith(f"fvba {argv[0]}: error: "), err.getvalue()

    @given(data=st.data(), compress=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_event_commands(self, fuzz_inputs, data, compress):
        root, events, profile, _ = fuzz_inputs
        if compress:
            events = gzip.compress(events, mtime=0)
        mangled = root / ("mangled.tsv.gz" if compress else "mangled.tsv")
        mangled.write_bytes(_mutate(events, data.draw(_mutations(events))))
        self.check(["profile", "--events", mangled, "--out", root / "p.txt"])
        self.check(["detect", "--events", mangled, "--profile", profile, "--out", root / "v.tsv"])
        self.check(["characterize", "--events", mangled, "--profile", profile,
                    "--out", root / "c.tsv", "--throttle-out", root / "t.tsv"])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_config_file(self, fuzz_inputs, data):
        root, _, profile, _ = fuzz_inputs
        config = b"# detect defaults\nr1 = 6\nr2=6\njobs=1\n"
        mangled = root / "mangled.conf"
        mangled.write_bytes(_mutate(config, data.draw(_mutations(config))))
        try:
            self.check(["detect", "--config", mangled, "--events", root / "events.tsv",
                        "--profile", profile, "--out", root / "v.tsv"])
        except SystemExit as exit:
            # A key such as "h" abbreviates --help, which prints help and exits 0.
            assert exit.code == 0

    @given(data=st.data(), compress=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_kdd_command(self, fuzz_inputs, data, compress):
        root, _, _, records = fuzz_inputs
        if compress:
            records = gzip.compress(records, mtime=0)
        mangled = root / ("mangled.csv.gz" if compress else "mangled.csv")
        mangled.write_bytes(_mutate(records, data.draw(_mutations(records))))
        self.check(["kdd", "--train", mangled, "--record-window", "50", "--out", root / "s.tsv"])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_score_command(self, fuzz_inputs, fuzz_tables, data):
        root = fuzz_inputs[0]
        files = []
        for name, content in zip(("mangled-verdicts.tsv", "mangled-wtruth.tsv"), fuzz_tables):
            files.append(root / name)
            if data.draw(st.booleans()):
                content = _mutate(content, data.draw(_mutations(content)))
            files[-1].write_bytes(content)
        self.check(["score", "--verdicts", files[0], "--window-truth", files[1],
                    "--out", root / "score.tsv"])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sweep_command(self, fuzz_inputs, fuzz_tables, data):
        root, _, profile, _ = fuzz_inputs
        grid = fuzz_tables[2]
        mangled = root / "mangled-grid.tsv"
        mangled.write_bytes(_mutate(grid, data.draw(_mutations(grid))))
        self.check(["sweep", "--events", root / "events.tsv", "--profile", profile,
                    "--window-truth", root / "wtruth.tsv", "--grid", mangled,
                    "--out", root / "roc.tsv"])


def _inputs(command):
    return ["--train", "t"] if command == "kdd" else ["--events", "e", "--profile", "p"]


_FACTOR_FLAGS = [
    ("--r1", None, "r1"), ("--r2", None, "r2"),
    ("--tcp-r1", ProtocolCategory.TCP, "r1"), ("--tcp-r2", ProtocolCategory.TCP, "r2"),
    ("--udp-r1", ProtocolCategory.UDP, "r1"), ("--udp-r2", ProtocolCategory.UDP, "r2"),
    ("--udp-r3", ProtocolCategory.UDP, "r3"),
    ("--icmp-r1", ProtocolCategory.ICMP, "r1"), ("--icmp-r2", ProtocolCategory.ICMP, "r2"),
]


class TestFactorFlags:
    # kdd has no aggregate series, so no aggregate flags.
    @pytest.mark.parametrize("command,flag,protocol,name", [
        (command, *case) for command in ("detect", "characterize", "kdd") for case in _FACTOR_FLAGS
        if command != "kdd" or case[1] is not None
    ])
    def test_flag_overrides_one_factor_of_one_series(self, command, flag, protocol, name):
        args = build_parser().parse_args([command, *_inputs(command), "--out", "o", flag, "9"])
        expected = dict(DEFAULT_FACTORS)
        expected[protocol] = dataclasses.replace(expected[protocol], **{name: 9.0})
        assert _resolve_factors(args, SERIES) == expected

    # Flags of factors that no series of the subcommand takes: r3 of every
    # series but UDP, and on kdd the aggregate series' r1 and r2.
    @pytest.mark.parametrize("flag", ["--tcp-r3", "--icmp-r3", "--r3", "--r1", "--r2"])
    def test_no_lower_factor_flag_for_tcp_or_icmp(self, flag):
        commands = ["kdd"] if flag in ("--r1", "--r2") else ["detect", "characterize", "kdd"]
        for command in commands:
            with pytest.raises(ParameterError, match=f"^unrecognized arguments: {flag} 1$"):
                build_parser().parse_args([command, *_inputs(command), "--out", "o", flag, "1"])

    @pytest.mark.parametrize("command,count", [("detect", 9), ("characterize", 9), ("kdd", 7)])
    def test_every_factor_flag_moves_the_thresholds_of_its_series(self, command, count):
        # The flags are read from the parser, so that one added later is covered too.
        (subcommands,) = (a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = [a.option_strings[0] for a in subcommands.choices[command]._actions
                 if "factor of the" in (a.help or "")]
        assert len(flags) == count
        profiles = {p: NormalProfile(p, 0.2, 10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0) for p in SERIES}
        for flag in flags:
            args = build_parser().parse_args([command, *_inputs(command), "--out", "o", flag, "9.5"])
            factors = _resolve_factors(args, SERIES)
            moved = [p for p in SERIES if compute_thresholds(profiles[p], factors[p])
                     != compute_thresholds(profiles[p], DEFAULT_FACTORS[p])]
            assert moved == [parse_series(flag[2:].rpartition("-")[0].upper() or "ALL")], flag

    @pytest.mark.parametrize("command", ["detect", "characterize"])
    @pytest.mark.parametrize("scope,flag,series", [
        ("aggregate", "--tcp-r1", "TCP"), ("per-protocol", "--r1", "aggregate"),
        ("config", "--tcp-r1", "TCP"),
    ])
    def test_flag_of_unprofiled_series_rejected(self, pipeline, capsys, command, scope, flag,
                                                series):
        tmp_path, _, attack, profile = pipeline
        given = [flag, "2"]
        if scope == "per-protocol":
            profile = tmp_path / "per-protocol.txt"
            assert run(["profile", "--events", attack, "--out", profile], tmp_path) == 0
        elif scope == "config":
            (tmp_path / "run.conf").write_text(f"{flag[2:]}=2\n")
            given = ["--config", tmp_path / "run.conf"]
        capsys.readouterr()
        code = run([command, "--events", attack, "--profile", profile, *given,
                    "--out", tmp_path / "out.tsv"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == f"fvba {command}: error: {flag}: no {series} profile\n"
        assert not (tmp_path / "out.tsv").exists()

    def test_kdd_flag_of_unprofiled_protocol_rejected(self, tmp_path, capsys):
        data = TestKddCommand().make_file(tmp_path)  # TCP records only
        code = run(["kdd", "--train", data, "--icmp-r1", "2", "--out", tmp_path / "scores.tsv",
                    "--breakdown-out", tmp_path / "breakdown.tsv"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == "fvba kdd: error: --icmp-r1: no ICMP profile\n"
        assert not (tmp_path / "scores.tsv").exists() and not (tmp_path / "breakdown.tsv").exists()


class TestOutputPaths:
    @pytest.mark.parametrize("argv,flags", [
        ("simulate --kind attack-free --out x.tsv --truth-out x.tsv", "--out and --truth-out"),
        ("simulate --kind attack-free --out x.tsv --window-truth-out ./x.tsv",
         "--out and --window-truth-out"),
        ("simulate --kind attack-free --out e.tsv --truth-out x.tsv --window-truth-out x.tsv",
         "--truth-out and --window-truth-out"),
        ("kdd --train missing.csv --out x.tsv --breakdown-out x.tsv", "--out and --breakdown-out"),
    ])
    def test_two_outputs_naming_one_file_rejected(self, tmp_path, capsys, monkeypatch, argv,
                                                  flags):
        # Rejected before the subcommand runs: no input is read, no file made.
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 1
        assert capsys.readouterr().err == (
            f"fvba {argv.split()[0]}: error: {flags} name the same file\n")
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("clients=6\nduration=30\nseed=7\nkind=attack-free\n")
        out1 = tmp_path / "c1.tsv"
        assert run(["simulate", "--config", config, "--out", out1], tmp_path) == 0
        # Same settings fully via flags.
        out2 = simulate(tmp_path, "c2", kind="attack-free", clients=6, duration=30, seed=7)
        assert out1.read_bytes() == out2.read_bytes()
        # An explicit flag overrides the config value.
        out3 = tmp_path / "c3.tsv"
        assert run(["simulate", "--config", config, "--seed", "8", "--out", out3], tmp_path) == 0
        assert out1.read_bytes() != out3.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fvba.cli", "simulate", "--kind", "attack-free",
             "--clients", "3", "--duration", "10", "--seed", "1",
             "--out", str(tmp_path / "x.tsv")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "x.tsv").exists()
