import argparse
import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from aridem import (
    JoinDeadlockError,
    MachineConfig,
    baseline,
    build_matmul_program,
    cli,
    machine,
    matmul_oracle,
    simulate,
    validate_metrics,
)

CMD = [sys.executable, "-m", "aridem"]

# Byte-exact sweep outputs. To rewrite one after an intended change:
#   PYTHONPATH=src python -m aridem sweep --sizes 2,3,5 --procs 1,2,3 \
#       [FLAGS] --format FMT --out tests/sweep_golden/GRID.FMT
SWEEP_GOLDEN_DIR = Path(__file__).with_name("sweep_golden")
SWEEP_GOLDEN_ARGS = ("sweep", "--sizes", "2,3,5", "--procs", "1,2,3")
SWEEP_GOLDEN_FLAGS = {
    "default": (),
    "roundrobin-tmaster2": ("--dispatch", "roundrobin", "--t-master", "2"),
}
# The default sweep, the paper grid, in each format; CI compares a full
# rerun with each, and Tier-1 checks its n = 40 rows. To rewrite one:
#   PYTHONPATH=src python -m aridem sweep --format FMT > tests/sweep_golden/paper.FMT

# Byte-exact `aridem demo NAME` outputs. To rewrite one after an intended change:
#   PYTHONPATH=src python -m aridem demo NAME > tests/cli_golden/demo-NAME.txt
DEMO_GOLDEN_DIR = Path(__file__).with_name("cli_golden")
README = Path(__file__).resolve().parent.parent / "README.md"


def aridem(*args, check=True):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


def comment_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


class TestDemo:
    def test_negate_trace_ends_with_result(self):
        out = aridem("demo", "negate").stdout.rstrip("\n").splitlines()
        assert out[-1] == "a = -5"
        assert out[0] == "pop b = 5"

    def test_square(self):
        out = aridem("demo", "square").stdout.rstrip("\n").splitlines()
        assert out[-1] == "square_area = 25"

    def test_unknown_name_is_usage_error(self):
        assert aridem("demo", "cube", check=False).returncode == 2

    @pytest.mark.parametrize("name", ["negate", "square"])
    def test_output_matches_golden(self, name):
        out = subprocess.run(CMD + ["demo", name], capture_output=True, check=True).stdout
        assert out == (DEMO_GOLDEN_DIR / f"demo-{name}.txt").read_bytes()


class TestRun:
    def test_csv_header_and_fields(self):
        out = aridem("run", "element", "--n", "2", "--procs", "1", "--seed", "7").stdout
        header, row = out.splitlines()
        assert header == ("model,n,procs,seed,elements_processed,messages,"
                          "sim_time,idle_time_total,imbalance,result_checksum")
        record = parse_csv(out)[0]
        assert record["model"] == "element"
        assert record["elements_processed"] == "44"

    def test_matches_library_simulation(self):
        out = aridem("run", "element", "--n", "4", "--procs", "2").stdout
        record = parse_csv(out)[0]
        m = simulate(build_matmul_program(4, 0), MachineConfig(workers=2))
        assert int(record["messages"]) == m.messages
        assert int(record["sim_time"]) == m.sim_time
        assert int(record["result_checksum"]) == m.result_checksum

    def test_checksum_p_invariant(self):
        one = parse_csv(aridem("run", "element", "--n", "4", "--procs", "1").stdout)[0]
        eight = parse_csv(aridem("run", "element", "--n", "4", "--procs", "8").stdout)[0]
        assert one["result_checksum"] == eight["result_checksum"]
        assert one["elements_processed"] == eight["elements_processed"]

    def test_instruction_messages(self):
        out = aridem("run", "instruction", "--n", "40", "--procs", "4").stdout
        assert parse_csv(out)[0]["messages"] == "12"

    def test_json_format(self):
        out = aridem("run", "instruction", "--n", "8", "--procs", "2",
                     "--format", "json").stdout
        record = json.loads(out)
        assert record["model"] == "instruction"
        assert record["messages"] == 6
        assert set(record) == {"model", "n", "procs", "seed", "elements_processed",
                               "messages", "sim_time", "idle_time_total",
                               "imbalance", "result_checksum"}

    def test_out_file(self, tmp_path):
        target = tmp_path / "record.csv"
        proc = aridem("run", "element", "--n", "2", "--out", str(target))
        assert proc.stdout == ""
        assert parse_csv(target.read_text())[0]["elements_processed"] == "44"

    def test_zero_costs_fail_with_exit_1(self):
        proc = aridem("run", "element", "--n", "2", "--t-proc", "0",
                      "--t-msg", "0", "--t-master", "0", check=False)
        assert proc.returncode == 1
        assert "error" in proc.stderr

    @pytest.mark.parametrize("model", ["element", "instruction"])
    def test_procs_past_the_cap_is_a_usage_error(self, model):
        proc = aridem("run", model, "--n", "2", "--procs", "1000000000", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: aridem run ")
        assert proc.stderr.endswith("aridem run: error: argument --procs: expected a "
                                    "worker count of at most 65536, got 1000000000\n")

    def test_model_error_fails_with_exit_1(self, monkeypatch, capsys):
        def deadlocked(*args):
            raise JoinDeadlockError("machine quiescent with 1 unmatched "
                                    "operand(s), first id0(0) = 3")

        monkeypatch.setattr(cli, "simulate", deadlocked)
        assert cli.main(["run", "element", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: machine quiescent with 1 unmatched "
                                "operand(s), first id0(0) = 3\n")

    def test_bad_n_is_usage_error(self):
        assert aridem("run", "element", "--n", "0", check=False).returncode == 2
        assert aridem("run", "element", check=False).returncode == 2

    @pytest.mark.parametrize("flag, text, kind", [
        ("--n", "abc", "positive"), ("--n", "0", "positive"),
        ("--seed", "x", "non-negative"), ("--seed", "-1", "non-negative"),
        ("--t-proc", "1.5", "non-negative"),
    ])
    def test_malformed_int_flag_is_a_usage_error(self, capsys, flag, text, kind):
        # a text that int() refuses was reported as "invalid _positive_int
        # value: 'abc'", naming a private function of the module
        args = ["run", "element", flag, text] + ([] if flag == "--n" else ["--n", "2"])
        with pytest.raises(SystemExit) as exited:
            cli.main(args)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"aridem run: error: argument {flag}: expected a {kind} integer, got {text}")

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("grid", sorted(SWEEP_GOLDEN_FLAGS))
    @pytest.mark.parametrize("model", ("element", "instruction"))
    def test_record_matches_the_sweep_row(self, capsys, model, grid, fmt):
        flags = (*SWEEP_GOLDEN_FLAGS[grid], "--format", fmt)
        assert cli.main([*SWEEP_GOLDEN_ARGS, *flags]) == 0
        swept = capsys.readouterr().out
        assert cli.main(["run", model, "--n", "3", "--procs", "2", *flags]) == 0
        ran = capsys.readouterr().out
        if fmt == "json":
            [row] = [r for r in json.loads(swept)["records"]
                     if (r["model"], r["n"], r["procs"]) == (model, 3, 2)]
            assert json.loads(ran) == row
        else:
            lines = swept.splitlines()
            [row] = [line for line in lines if line.startswith(f"{model},3,2,")]
            assert ran.splitlines() == [lines[0], row]


@pytest.mark.parametrize("args, out", [
    (("counts", "--sizes", "4"), "missing/x.csv"),  # FileNotFoundError
    (("sweep", "--sizes", "2", "--procs", "1"), "."),  # IsADirectoryError
], ids=["counts-missing-directory", "sweep-into-a-directory"])
def test_unwritable_out_fails_with_exit_1(tmp_path, args, out):
    proc = aridem(*args, "--out", str(tmp_path / out), check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("run", "element", "--n", "2"),
    ("sweep", "--sizes", "2", "--procs", "1"),
], ids=["run", "sweep"])
def test_unwritable_out_fails_before_the_run(monkeypatch, capsys, tmp_path, args):
    """--out is checked before any program is built or simulated."""
    def never(*args):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, "build_matmul_program", never)
    monkeypatch.setattr(cli, "simulate", never)
    assert cli.main([*args, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_out_check_keeps_an_existing_file(monkeypatch, tmp_path):
    """The check before the run truncates nothing: a run that then fails
    leaves the file as it was."""
    def deadlocked(*args):
        raise JoinDeadlockError("machine quiescent")

    monkeypatch.setattr(cli, "simulate", deadlocked)
    target = tmp_path / "kept.csv"
    target.write_text("kept\n")
    assert cli.main(["run", "element", "--n", "2", "--out", str(target)]) == 1
    assert target.read_text() == "kept\n"


def _deadlocked(*args):
    raise JoinDeadlockError("machine quiescent")


@pytest.mark.parametrize("args, simulator", [
    (("run", "element", "--n", "2"), _deadlocked),
    (("run", "element", "--n", "2", "--t-proc", "0", "--t-msg", "0"), simulate),
], ids=["model-error", "value-error"])
def test_failed_run_leaves_no_out_file(monkeypatch, tmp_path, args, simulator):
    """A run that fails removes the --out file it created, and leaves an
    existing one as it was."""
    monkeypatch.setattr(cli, "simulate", simulator)
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    assert cli.main([*args, "--out", str(tmp_path / "new.csv")]) == 1
    assert cli.main([*args, "--out", str(kept)]) == 1
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_text() == "kept\n"


def _unreachable(*args):
    raise AssertionError("a refused run started")


_SIZE_PAST = "expected a size of at most 128, got 129"
_PROCS_PAST = "expected a worker count of at most 65536, got 70000"


@pytest.mark.parametrize("args, text", [
    (("run", "element", "--n", "129"), _SIZE_PAST),
    (("run", "instruction", "--n", "129"), _SIZE_PAST),
    (("sweep", "--sizes", "4,129"), _SIZE_PAST),
    (("run", "element", "--n", "2", "--procs", "70000"), _PROCS_PAST),
    (("run", "instruction", "--n", "2", "--procs", "70000"), _PROCS_PAST),
    (("sweep", "--sizes", "4", "--procs", "2,70000"), _PROCS_PAST),
], ids=["size-run-element", "size-run-instruction", "size-sweep",
        "procs-run-element", "procs-run-instruction", "procs-sweep"])
def test_value_past_its_bound_is_a_usage_error_before_any_work(monkeypatch, capsys,
                                                               tmp_path, args, text):
    """A size above 128 or a worker count above 65,536 is refused as
    argparse reads it: exit 2 with the usage line, before any program is
    built or simulated or any --out file is made, and an existing file is
    left as it was."""
    monkeypatch.setattr(cli, "build_matmul_program", _unreachable)
    monkeypatch.setattr(cli, "simulate", _unreachable)
    monkeypatch.setattr(cli, "simulate_instruction_model", _unreachable)
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    for out in (tmp_path / "new.csv", kept):
        with pytest.raises(SystemExit) as exited:
            cli.main([*args, "--out", str(out)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"usage: aridem {args[0]} ")
        assert lines[-1] == f"aridem {args[0]}: error: argument {args[-2]}: {text}"
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_text() == "kept\n"


def test_interrupted_run_leaves_no_out_file(monkeypatch, tmp_path):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "simulate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "element", "--n", "2", "--out", str(tmp_path / "new.csv")])
    assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_one_build_per_size(self, monkeypatch, tmp_path):
        calls = []

        def counting_build(n, seed):
            calls.append(n)
            return build_matmul_program(n, seed)

        monkeypatch.setattr(cli, "build_matmul_program", counting_build)
        out = tmp_path / "sweep.csv"
        assert cli.main([*SWEEP_GOLDEN_ARGS, "--out", str(out)]) == 0
        assert calls == [2, 3, 5]
        assert out.read_bytes() == (SWEEP_GOLDEN_DIR / "default.csv").read_bytes()

    def test_one_product_per_size(self, monkeypatch, tmp_path):
        calls = []

        def counting_oracle(a, b):
            calls.append(a.n)
            return matmul_oracle(a, b)

        baseline._seeded_outputs.cache_clear()
        monkeypatch.setattr(baseline, "matmul_oracle", counting_oracle)
        out = tmp_path / "sweep.csv"
        assert cli.main([*SWEEP_GOLDEN_ARGS, "--out", str(out)]) == 0
        assert calls == [2, 3, 5]
        assert out.read_bytes() == (SWEEP_GOLDEN_DIR / "default.csv").read_bytes()

    def test_one_validation_per_record(self, monkeypatch, tmp_path):
        """worker_busy_profile validates each record; the CLI does not again."""
        checked = []

        def counting_validate(metrics):
            checked.append(metrics)
            return validate_metrics(metrics)

        monkeypatch.setattr(machine, "validate_metrics", counting_validate)
        out = tmp_path / "sweep.csv"
        assert cli.main([*SWEEP_GOLDEN_ARGS, "--out", str(out)]) == 0
        assert len(checked) == len(parse_csv(out.read_text())) == 18
        assert len(set(map(id, checked))) == 18
        assert out.read_bytes() == (SWEEP_GOLDEN_DIR / "default.csv").read_bytes()

    def test_cardinality_and_order(self):
        out = aridem("sweep", "--sizes", "4,6,8,10", "--procs", "1,2,3,4").stdout
        records = parse_csv(out)
        assert len(records) == 32  # 2 models x 4 sizes x 4 proc counts
        keys = [(r["model"], int(r["n"]), int(r["procs"])) for r in records]
        assert keys == sorted(keys)

    def test_byte_identical_repeats(self):
        args = ("sweep", "--sizes", "4,8", "--procs", "1,2", "--seed", "3")
        assert aridem(*args).stdout == aridem(*args).stdout

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("grid", sorted(SWEEP_GOLDEN_FLAGS))
    def test_output_matches_golden(self, grid, fmt):
        out = aridem(*SWEEP_GOLDEN_ARGS, *SWEEP_GOLDEN_FLAGS[grid], "--format", fmt).stdout
        assert out.encode() == (SWEEP_GOLDEN_DIR / f"{grid}.{fmt}").read_bytes()

    def test_paper_grid_rows_at_n40(self, capsys):
        """The n = 40 records and summary lines of the paper grid, in
        paper.csv's order; CI checks the whole grid."""
        assert cli.main(["sweep", "--sizes", "40"]) == 0
        lines = capsys.readouterr().out.splitlines()
        paper = (SWEEP_GOLDEN_DIR / "paper.csv").read_text().splitlines()
        rows = [line for line in paper[1:]
                if line.split(",")[1:2] == ["40"] or " n=40 " in line]
        assert len(rows) == 10  # 2 models x 4 worker counts, and 2 summary lines
        assert lines == [paper[0], *rows]

    def test_summary_flags_monotone_speedup(self):
        out = aridem("sweep", "--sizes", "16", "--procs", "1,2,4,8,16").stdout
        summary = comment_lines(out)
        assert "# model=element n=16 sim_time_decreasing=true" in summary

    def test_element_messages_p_invariant_in_records(self):
        out = aridem("sweep", "--sizes", "6", "--procs", "1,2,4").stdout
        messages = {r["messages"] for r in parse_csv(out) if r["model"] == "element"}
        assert len(messages) == 1

    def test_csv_round_trips(self):
        out = aridem("sweep", "--sizes", "4", "--procs", "1,2").stdout
        records = parse_csv(out)
        assert all(float(r["imbalance"]) >= 1.0 for r in records)
        assert all(int(r["sim_time"]) > 0 for r in records)

    def test_json_structure(self):
        out = aridem("sweep", "--sizes", "4", "--procs", "1,2",
                     "--format", "json").stdout
        doc = json.loads(out)
        assert len(doc["records"]) == 4
        assert {s["model"] for s in doc["summary"]} == {"element", "instruction"}

    def test_oversize_rejected(self, tmp_path):
        out = tmp_path / "f.csv"
        proc = aridem("sweep", "--sizes", "4,200", "--out", str(out), check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: aridem sweep ")
        assert proc.stderr.endswith(
            "aridem sweep: error: argument --sizes: expected a size of at most 128, got 200\n")
        assert not out.exists()

    def test_max_size_boundary_accepted(self, capsys):
        """run --n and each sweep --sizes entry may be 128 and not 129, and
        each run or sweep --procs entry 65536 and not 65537, while counts,
        which is closed-form, takes any size; checked by the parser alone,
        so no such run is made."""
        parser = cli.build_parser()
        assert parser.parse_args(["counts", "--sizes", "1000"]).sizes == [1000]
        assert parser.parse_args(["sweep", "--sizes", "128,4"]).sizes == [128, 4]
        assert parser.parse_args(["run", "instruction", "--n", "128"]).n == 128
        assert parser.parse_args(["sweep", "--procs", "65536,2"]).procs == [65536, 2]
        run = parser.parse_args(["run", "element", "--n", "1", "--procs", "65536"])
        assert run.procs == 65536
        size, procs = "a size of at most 128", "a worker count of at most 65536"
        for args, text in (
            (["sweep", "--sizes", "128,129"], f"{size}, got 129"),
            (["run", "element", "--n", "129"], f"{size}, got 129"),
            (["sweep", "--procs", "65536,65537"], f"{procs}, got 65537"),
            (["run", "element", "--n", "1", "--procs", "65537"], f"{procs}, got 65537"),
        ):
            with pytest.raises(SystemExit) as exited:
                parser.parse_args(args)
            assert exited.value.code == 2
            assert capsys.readouterr().err.endswith(f"expected {text}\n")

    def test_malformed_size_list(self, capsys):
        for args, text in (
            (["sweep", "--sizes", "4,x"], "expected a positive integer, got x"),
            (["sweep", "--sizes", ""], "expected a non-empty list of positive integers"),
            (["counts", "--sizes", "0"], "expected a positive integer, got 0"),
        ):
            with pytest.raises(SystemExit) as exited:
                cli.main(args)
            assert exited.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1] == (
                f"aridem {args[0]}: error: argument --sizes: {text}")


class TestCounts:
    def test_reference_tables_exact(self):
        records = parse_csv(aridem("counts").stdout)
        instructions = {int(r["n"]): int(r["instructions_reference"]) for r in records}
        elements = {int(r["n"]): int(r["elements_reference"]) for r in records}
        assert instructions == {40: 2_731_200, 60: 9_025_200,
                                80: 21_164_800, 100: 41_070_000}
        assert elements == {40: 912_000, 60: 3_060_000,
                            80: 7_232_000, 100: 14_100_000}

    def test_encoding_column(self):
        records = parse_csv(aridem("counts").stdout)
        by_n = {int(r["n"]): int(r["elements_encoding"]) for r in records}
        assert by_n[60] == 874_800

    def test_ratio_column(self):
        records = parse_csv(aridem("counts").stdout)
        ratios = [float(r["instruction_element_ratio"]) for r in records]
        assert ratios == sorted(ratios, reverse=True)
        assert all(2.85 <= r <= 3.0 for r in ratios)

    def test_custom_sizes_json(self):
        doc = json.loads(aridem("counts", "--sizes", "50", "--format", "json").stdout)
        assert doc["rows"][0]["instructions_reference"] == 40 * 50**3 + 107 * 50**2


def test_no_arguments_is_usage_error():
    assert aridem(check=False).returncode == 2


def readme_command_line():
    """The text of README's "Command line" section."""
    text = README.read_text()
    start = text.index("\n## Command line\n")
    return text[start:text.index("\n## ", start + 1)]


class TestReadme:
    """README's command-line contract, checked against the parser and the
    CLI's output."""

    def test_usage_block_shows_exactly_each_subcommands_options(self):
        shown = {}
        for line in readme_command_line().split("```")[1].strip().splitlines():
            if line.startswith("aridem "):
                command = line.split()[1]
                shown[command] = set()
            shown[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
        [commands] = [action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        options = {name: {flag for action in sub._actions for flag in action.option_strings
                          if flag.startswith("--") and flag != "--help"}
                   for name, sub in commands.items()}
        assert shown == options

    def test_columns_line_is_the_csv_header(self, capsys):
        [columns] = [line for line in readme_command_line().splitlines()
                     if line.startswith("model,n,procs,")]
        assert cli.main(["run", "element", "--n", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == columns
