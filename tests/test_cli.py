import json
import subprocess
import sys
from pathlib import Path

import pytest

from sqfactor.bench import record_from_json
from sqfactor.cli import DEFAULT_MAX_ITERATIONS, _budget_from, build_parser, main, parse_modulus
from sqfactor.engine import Budget
from sqfactor.numeric import ceil_sqrt, shown


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorText:
    def test_instant_semiprime(self, capsys):
        code, out, err = run_cli(capsys, "factor", "187")
        assert (code, out, err) == (0, "p=11 q=17 k=0 iterations=0\n", "")

    def test_walk_semiprime(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "5959")
        assert (code, out) == (0, "p=59 q=101 k=2 iterations=2\n")

    def test_hex_modulus(self, capsys):
        assert run_cli(capsys, "factor", "0xBB") == run_cli(capsys, "factor", "187")

    def test_even_input_lists_all_factors(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "11918")
        assert (code, out) == (0, "2 × 59 × 101\n")

    def test_power_of_two(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "8")
        assert (code, out) == (0, "2 × 2 × 2\n")

    def test_even_with_prime_residual_is_complete(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "6")
        assert (code, out) == (0, "2 × 3\n")

    def test_two_is_prime(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "2")
        assert (code, out) == (2, "no nontrivial factor (iterations=0)\n")

    def test_odd_prime(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "17")
        assert (code, out) == (2, "no nontrivial factor (iterations=4)\n")

    def test_progress_flag_is_quiet_on_fast_runs(self, capsys):
        code, out, err = run_cli(capsys, "factor", "187", "--progress")
        assert (code, err) == (0, "")


class TestBudgetsAndResume:
    def test_iteration_budget_writes_checkpoint(self, capsys):
        code, out, err = run_cli(capsys, "factor", "5959", "--max-iterations", "1")
        assert code == 3
        assert out == "n=5959 y0=78 k=1\n"
        assert "budget exhausted after 1 iterations" in err
        assert "--resume" in err

    def test_zero_budget(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "187", "--max-iterations", "0")
        assert (code, out) == (3, "n=187 y0=14 k=0\n")

    def test_resume_completes_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "factor", "5959", "--max-iterations", "1")
        assert code == 3
        ckpt = tmp_path / "walk.ckpt"
        ckpt.write_text(out)
        code, out, _ = run_cli(capsys, "factor", "5959", "--resume", str(ckpt))
        assert (code, out) == (0, "p=59 q=101 k=2 iterations=2\n")

    def test_resume_uses_last_nonempty_line(self, capsys, tmp_path):
        ckpt = tmp_path / "walk.ckpt"
        ckpt.write_text("n=5959 y0=78 k=0\n\nn=5959 y0=78 k=1\n\n")
        code, out, _ = run_cli(capsys, "factor", "5959", "--resume", str(ckpt))
        assert (code, out) == (0, "p=59 q=101 k=2 iterations=2\n")

    def test_resume_applies_to_odd_residual_of_even_input(self, capsys, tmp_path):
        ckpt = tmp_path / "walk.ckpt"
        ckpt.write_text("n=5959 y0=78 k=1\n")
        code, out, _ = run_cli(capsys, "factor", "11918", "--resume", str(ckpt))
        assert (code, out) == (0, "2 × 59 × 101\n")

    def test_resume_wrong_subcommand(self, capsys, tmp_path):
        ckpt = tmp_path / "walk.ckpt"
        ckpt.write_text("n=5959 y0=78 x=2\n")
        code, _, err = run_cli(capsys, "factor", "5959", "--resume", str(ckpt))
        assert code == 1
        assert "wrong subcommand" in err

    def test_resume_wrong_modulus(self, capsys, tmp_path):
        ckpt = tmp_path / "walk.ckpt"
        ckpt.write_text("n=5959 y0=78 k=1\n")
        code, _, err = run_cli(capsys, "factor", "187", "--resume", str(ckpt))
        assert code == 1
        assert "checkpoint is for modulus 5959, but 187 normalizes to 187" in err

    def test_resume_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "factor", "187", "--resume", str(tmp_path / "absent")
        )
        assert code == 1
        assert "cannot read checkpoint file" in err

    @pytest.mark.parametrize("as_json", [False, True])
    def test_resume_file_that_is_not_utf8(self, capsys, tmp_path, as_json):
        # used to print only the codec's "can't decode byte 0xff in position 0"
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"\xff\xfe")
        args = ("factor", "187", "--resume", str(ckpt)) + (("--json",) if as_json else ())
        code, out, err = run_cli(capsys, *args)
        message = f"cannot read checkpoint file: {shown(str(ckpt))} is not UTF-8 text"
        assert code == 1
        if as_json:
            assert (json.loads(out), err) == ({"error": message}, "")
        else:
            assert (out, err) == ("", f"error: {message}\n")

    def test_exhaustion_on_even_input_checkpoints_residual(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "11918", "--max-iterations", "1")
        assert (code, out) == (3, "n=5959 y0=78 k=1\n")

    def test_nan_seconds_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "187", "--max-seconds", "nan")
        assert code == 1
        assert "max_seconds must be finite and positive" in err

    @pytest.mark.parametrize(
        "flags, budget",
        [
            ((), Budget(max_iterations=DEFAULT_MAX_ITERATIONS)),
            # a wall-clock bound already bounds the run, so alone it lifts the default
            (("--max-seconds", "2.5"), Budget(max_seconds=2.5)),
            (("--max-seconds", "2.5", "--max-iterations", "7"), Budget(7, 2.5)),
        ],
        ids=["no-flag", "seconds-only", "both"],
    )
    @pytest.mark.parametrize("command", ["factor", "xscan", "bench"])
    def test_budget_from_flags(self, command, flags, budget):
        head = ["--bits", "24", "--gaps", "8", "--seed", "0", "--out", "r.jsonl"]
        args = build_parser().parse_args(
            [command] + (head if command == "bench" else ["187"]) + list(flags)
        )
        assert _budget_from(args) == budget

    def test_time_budget(self, capsys):
        n = (2**89 - 1) * (2**107 - 1)
        code, out, err = run_cli(capsys, "factor", str(n), "--max-seconds", "0.05")
        assert code == 3
        k = int(out.split()[-1].partition("=")[2])
        assert k % 4096 == 0  # the clock is polled on a fixed candidate stride
        assert "budget exhausted" in err


class TestXScanCommand:
    def test_factors_match_fermat(self, capsys):
        code, out, _ = run_cli(capsys, "xscan", "187")
        assert (code, out) == (0, "p=11 q=17 k=0 iterations=3\n")

    def test_budget_and_resume(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "xscan", "5959", "--max-iterations", "2")
        assert (code, out) == (3, "n=5959 y0=78 x=2\n")
        ckpt = tmp_path / "scan.ckpt"
        ckpt.write_text(out)
        code, out, _ = run_cli(capsys, "xscan", "5959", "--resume", str(ckpt))
        assert (code, out) == (0, "p=59 q=101 k=2 iterations=21\n")

    def test_y_walk_checkpoint_rejected(self, capsys, tmp_path):
        ckpt = tmp_path / "walk.ckpt"
        ckpt.write_text("n=5959 y0=78 k=1\n")
        code, _, err = run_cli(capsys, "xscan", "5959", "--resume", str(ckpt))
        assert code == 1
        assert "wrong subcommand" in err


def _from_decimal(text):
    # int() of a string over 4300 digits raises on CPython 3.11+; two
    # shorter pieces stay under the limit for up to 8300 digits
    return int(text[:-4000] or "0") * 10**4000 + int(text[-4000:])


@pytest.fixture
def default_int_str_limit(monkeypatch):
    """CPython's default int/str limit in force, and changing it an error."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:  # the limit exists from CPython 3.11 on
        saved = sys.get_int_max_str_digits()
        set_limit(sys.int_info.default_max_str_digits)

    def refuse(maxdigits):
        raise AssertionError("the process-wide int/str limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    yield
    if set_limit is not None:
        set_limit(saved)


@pytest.mark.usefixtures("default_int_str_limit")
class TestWideIntegers:
    def test_hex_square_split_is_printed(self, capsys):
        root = 2**16000 + 1  # 4817 decimal digits
        code, out, err = run_cli(capsys, "factor", hex(root * root))
        assert (code, err) == (0, "")
        fields = dict(token.split("=") for token in out.split())
        assert fields["p"] == fields["q"]
        assert _from_decimal(fields["p"]) == root
        assert (fields["k"], fields["iterations"]) == ("0", "0")

    def test_hex_square_split_json(self, capsys):
        root = 2**16000 + 1
        code, out, err = run_cli(capsys, "factor", hex(root * root), "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["p"] == doc["q"] == doc["factors"][0] == doc["factors"][1]
        assert _from_decimal(doc["p"]) == root
        assert (doc["k"], doc["iterations"]) == (0, 0)

    def test_wide_decimal_checkpoint_resumes(self, capsys, tmp_path):
        modulus = "1" + "0" * 4999 + "1"  # 10**5000 + 1
        code, out, _ = run_cli(capsys, "factor", modulus, "--max-iterations", "0")
        assert code == 3
        assert out.startswith(f"n={modulus} y0=1") and out.endswith(" k=0\n")
        ckpt = tmp_path / "wide.ckpt"
        ckpt.write_text(out)
        code, again, _ = run_cli(
            capsys, "factor", modulus, "--max-iterations", "5", "--resume", str(ckpt)
        )
        assert code == 3
        assert again == out.replace(" k=0\n", " k=5\n")

    def test_parse_modulus_lifts_the_limit_only_for_the_parse(self):
        assert parse_modulus("1" + "0" * 4999 + "1") == 10**5000 + 1

    def test_wide_integer_flag(self, capsys):
        code, out, err = run_cli(capsys, "factor", "187", "--max-iterations", "1" + "0" * 5000)
        assert (code, out, err) == (0, "p=11 q=17 k=0 iterations=0\n", "")

    def test_bad_integer_flag_is_not_echoed(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--bits", "z" * 5000, "--max-gap", "2", "--seed", "0"
        )
        assert code == 1
        last = err.splitlines()[-1]
        assert last.endswith("argument --bits: invalid int value: "
                             "'zzzzzzzzzzzzzzzzzzzzzzzz'... (5000 characters)")
        assert len(last.encode()) < 200

    def test_wide_gap_bounds(self, capsys, tmp_path):
        # windows [1, 10**5000] and [10**5000 + 1, 10**5000 + 1]; an odd gap is impossible
        gaps = "1" + "0" * 5000 + ",1" + "0" * 4999 + "1"
        wide = "[a 16610-bit integer, a 16610-bit integer]"
        args = ("bench", "--bits", "24", "--gaps", gaps, "--seed", "0",
                "--methods", "fermat", "--out", str(tmp_path / "r.jsonl"))
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (0, f"wrote 1 records to {tmp_path / 'r.jsonl'}\n")
        assert err.startswith(f"warning: skipping gap window {wide}: no 24-bit semiprime")
        assert len(err.splitlines()[0].encode()) < 400
        code, out, _ = run_cli(capsys, *args, "--json")
        bound = "1" + "0" * 4999 + "1"
        assert (code, json.loads(out)["skipped"]) == (0, [[bound, bound]])

    def test_bad_float_flag_is_not_echoed(self, capsys):
        code, _, err = run_cli(capsys, "factor", "187", "--max-seconds", "z" * 5000)
        assert code == 1
        last = err.splitlines()[-1]
        assert last.endswith("argument --max-seconds: invalid float value: "
                             "'zzzzzzzzzzzzzzzzzzzzzzzz'... (5000 characters)")
        assert len(last.encode()) < 200
        code, _, err = run_cli(capsys, "factor", "187", "--max-seconds", "abc")
        assert err.splitlines()[-1].endswith("argument --max-seconds: invalid float value: 'abc'")

    @pytest.mark.parametrize("flag", ["--resume", "--out", "--summary-csv"])
    def test_long_file_name_is_not_echoed(self, capsys, tmp_path, flag):
        name = "f" * 5000  # longer than any file system allows
        if flag == "--resume":
            args = ("factor", "187", "--resume", name)
        else:
            args = ("bench", "--bits", "20", "--gaps", "8,64", "--seed", "0",
                    "--methods", "fermat", "--out", str(tmp_path / "r.jsonl"), flag, name)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(": 'ffffffffffffffffffffffff'... (5000 characters)\n")
        assert len(err.encode()) < 200

    def test_checkpoint_for_another_modulus_is_not_echoed(self, capsys, tmp_path):
        ckpt = tmp_path / "walk.ckpt"
        ckpt.write_text("n=5959 y0=78 k=1\n")
        modulus = "1" + "0" * 4999 + "1"
        code, out, err = run_cli(capsys, "factor", modulus, "--resume", str(ckpt))
        assert (code, out) == (1, "")
        assert err == (
            "error: checkpoint is for modulus 5959, but a 16610-bit integer "
            "normalizes to a 16610-bit integer\n"
        )
        assert len(err.encode()) < 200


class TestJsonOutput:
    def test_found_document(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "187", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": "187",
            "twos": 0,
            "method": "fermat",
            "outcome": "found",
            "p": "11",
            "q": "17",
            "k": 0,
            "iterations": 0,
            "factors": ["11", "17"],
        }

    def test_found_document_even_input(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "11918", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["twos"] == 1
        assert doc["factors"] == ["2", "59", "101"]

    def test_exhausted_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "5959", "--max-iterations", "1", "--json"
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["outcome"] == "budget_exhausted"
        assert doc["iterations"] == 1
        assert doc["checkpoint"] == "n=5959 y0=78 k=1"
        assert doc["resume"] == {"n": "5959", "y0": "78", "k": "1"}

    def test_counts_from_2_to_the_53_are_strings(self, capsys, tmp_path):
        n = (2**89 - 1) * (2**107 - 1)
        k = 2**60 + 1
        ckpt = tmp_path / "walk.ckpt"
        ckpt.write_text(f"n={n} y0={ceil_sqrt(n)} k={k}\n")
        code, out, _ = run_cli(
            capsys, "factor", str(n), "--resume", str(ckpt), "--max-iterations", "5", "--json"
        )
        assert code == 3
        assert '"iterations": "1152921504606846982"' in out
        doc = json.loads(out)
        assert doc["iterations"] == doc["resume"]["k"] == str(k + 5)

    def test_xscan_exhausted_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "xscan", "5959", "--max-iterations", "2", "--json"
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["resume"] == {"n": "5959", "y0": "78", "x": "2"}

    def test_prime_document(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "17", "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["outcome"] == "no_factor"
        assert doc["iterations"] == 4
        assert doc["factors"] is None

    def test_two_document(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "2", "--json")
        assert code == 2
        assert json.loads(out)["outcome"] == "no_factor"

    def test_power_of_two_document(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "complete"
        assert doc["factors"] == ["2", "2", "2"]

    def test_error_document(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "0", "--json")
        assert code == 1
        assert "error" in json.loads(out)


class TestGenerateCommand:
    def test_text_output_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--bits", "16", "--max-gap", "64",
            "--seed", "1", "--count", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            obj = json.loads(line)
            assert set(obj) == {"p", "q", "n", "gap", "bits", "seed"}
            assert obj["seed"] == str(1 + i)
            assert int(obj["p"]) * int(obj["q"]) == int(obj["n"])
            assert 1 <= int(obj["gap"]) <= 64

    def test_readme_example_is_byte_exact(self, capsys):
        expected = (
            '{"bits": "48", "gap": "30", "n": "136165140916099", '
            '"p": "11668967", "q": "11668997", "seed": "7"}\n'
            '{"bits": "48", "gap": "2", "n": "95623990677503", '
            '"p": "9778751", "q": "9778753", "seed": "8"}\n'
        )
        argv = "generate --bits 48 --max-gap 65536 --seed 7 --count 2"
        assert run_cli(capsys, *argv.split()) == (0, expected, "")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"$ sqfactor {argv}\n{expected}" in readme

    @pytest.mark.parametrize("as_json", [False, True])
    def test_odd_gap_window_fails_at_once(self, capsys, as_json):
        argv = ["generate", "--bits", "64", "--max-gap", "1", "--seed", "0"]
        code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 1
        message = json.loads(out)["error"] if as_json else err
        assert "gap in [1, 1]" in message
        assert "q - p > 0 is even" in message

    def test_deterministic_stdout(self, capsys):
        args = ("generate", "--bits", "24", "--max-gap", "256", "--seed", "7",
                "--count", "4")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)

    def test_seed_indexing_wraps_at_64_bits(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--bits", "12", "--max-gap", "32",
            "--seed", str(2**64 - 1), "--count", "2",
        )
        assert code == 0
        seeds = [json.loads(ln)["seed"] for ln in out.splitlines()]
        assert seeds == [str(2**64 - 1), "0"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_start_seed_outside_64_bits_rejected(self, capsys, seed, as_json):
        argv = ["generate", "--bits", "16", "--max-gap", "64", "--seed", seed]
        code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 1
        if as_json:
            assert (json.loads(out), err) == ({"error": "seed must fit in 64 bits"}, "")
        else:
            assert (out, err) == ("", "error: seed must fit in 64 bits\n")

    @pytest.mark.parametrize(
        "bits, max_gap, message",
        [("2", "4", "bits must be >= 4, got 2"), ("16", "-4", "max_gap must be >= 0, got -4")],
    )
    @pytest.mark.parametrize("as_json", [False, True])
    def test_request_is_checked_even_for_count_zero(self, capsys, bits, max_gap, message, as_json):
        argv = ["generate", "--bits", bits, "--max-gap", max_gap, "--seed", "0", "--count", "0"]
        code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        if as_json:
            assert (code, json.loads(out), err) == (1, {"error": message}, "")
        else:
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_negative_count_rejected(self, capsys):
        argv = ["generate", "--bits", "16", "--max-gap", "64", "--seed", "1"]
        assert run_cli(capsys, *argv, "--count", "-3") == (
            1, "", "error: count must be >= 0, got -3\n"
        )
        assert run_cli(capsys, *argv, "--count", "0") == (0, "", "")
        assert run_cli(capsys, *argv, "--count", "0", "--json") == (0, "[]\n", "")

    def test_json_array(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--bits", "16", "--max-gap", "64",
            "--seed", "1", "--count", "2", "--json",
        )
        assert code == 0
        items = json.loads(out)
        assert isinstance(items, list) and len(items) == 2

    def test_json_array_is_byte_exact(self, capsys):
        expected = (
            '[{"p": "11668967", "q": "11668997", "n": "136165140916099", '
            '"gap": "30", "bits": "48", "seed": "7"}, '
            '{"p": "9778751", "q": "9778753", "n": "95623990677503", '
            '"gap": "2", "bits": "48", "seed": "8"}]\n'
        )
        argv = "generate --bits 48 --max-gap 65536 --seed 7 --count 2 --json"
        assert run_cli(capsys, *argv.split()) == (0, expected, "")


class TestBenchCommand:
    def test_writes_jsonl_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        csv_path = tmp_path / "summary.csv"
        code, out, err = run_cli(
            capsys, "bench", "--bits", "24", "--gaps", "8,64", "--seed", "0",
            "--out", str(out_path), "--methods", "fermat",
            "--summary-csv", str(csv_path),
        )
        assert code == 0
        assert out.splitlines()[0] == f"wrote 2 records to {out_path}"
        records = [record_from_json(ln) for ln in out_path.read_text().splitlines()]
        assert len(records) == 2
        assert all(r.outcome == "found" for r in records)
        header = csv_path.read_text().splitlines()[0]
        assert header == (
            "gap,n_bits,runs,median_iterations,analytic_iterations,ratio,median_elapsed_ns"
        )
        assert "median_iter" in out  # aligned table on stdout

    def test_odd_gap_rung_is_skipped_with_a_warning(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        args = ("bench", "--bits", "64", "--gaps", "1,16,256", "--seed", "0",
                "--out", str(out_path))
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        # one plain line, not Python's warning display with its source line
        assert err == (
            "warning: skipping gap window [1, 1]: no 64-bit semiprime with gap in [1, 1]: "
            "p and q are odd primes, so a gap q - p > 0 is even, and the window holds no "
            "even gap above 0\n"
        )
        records = [record_from_json(ln) for ln in out_path.read_text().splitlines()]
        assert out.splitlines()[0] == f"wrote {len(records)} records to {out_path}"
        assert [(r.method, 1 < r.gap <= 256) for r in records] == [
            ("fermat", True), ("xscan", True), ("fermat", True), ("xscan", True)
        ]
        code, out, _ = run_cli(capsys, *args, "--json")
        assert (code, json.loads(out)["skipped"]) == (0, [["1", "1"]])

    def test_single_gap_skips_summary(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        code, out, err = run_cli(
            capsys, "bench", "--bits", "20", "--gaps", "8", "--seed", "2",
            "--out", str(out_path), "--methods", "fermat",
        )
        assert code == 0
        assert "wrote 1 records" in out
        assert "summary skipped: need found records from at least 2 distinct gaps" in err

    def test_text_summary_counts_the_fermat_runs_it_leaves_out(self, capsys, tmp_path):
        args = ("bench", "--bits", "64", "--gaps", "8388608,16777216,1073741824,2147483648",
                "--seed", "1", "--methods", "fermat", "--max-iterations", "100000",
                "--out", str(tmp_path / "r.jsonl"))
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert out.splitlines()[0] == f"wrote 4 records to {tmp_path / 'r.jsonl'}"
        assert len(out.splitlines()) == 5  # the count line, the header and 3 rows
        assert err == "summary leaves out fermat runs: 1 budget_exhausted\n"
        code, out, err = run_cli(capsys, *args, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["summary_note"] is None

    def test_json_document(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys, "bench", "--bits", "24", "--gaps", "8,64", "--seed", "0",
            "--out", str(out_path), "--methods", "fermat,xscan", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 4
        assert doc["summary_csv"].startswith("gap,n_bits,")
        assert doc["summary_note"] is None
        assert doc["skipped"] == []

    def test_worker_flag(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys, "bench", "--bits", "20", "--gaps", "4,32", "--seed", "1",
            "--out", str(out_path), "--methods", "fermat", "--workers", "2",
        )
        assert code == 0
        assert "wrote 2 records" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--methods", "rho"), ("--bits", "2"), ("--seed", "-1"), ("--gaps", "64,8"),
            ("--workers", "0"), ("--workers", "-3"), ("--gaps", ","),
            ("--methods", "fermat,fermat"), ("--gaps", "8,,64"), ("--gaps", "8,"),
        ],
    )
    def test_usage_error_leaves_out_untouched(self, capsys, tmp_path, flag, value):
        out_path = tmp_path / "records.jsonl"
        out_path.write_bytes(b"kept\n")
        argv = {"--bits": "20", "--gaps": "8,64", "--seed": "0", "--methods": "fermat"}
        argv[flag] = value
        args = [part for item in argv.items() for part in item]
        code, _, err = run_cli(capsys, "bench", *args, "--out", str(out_path))
        assert code == 1
        assert err.startswith("error: ")
        assert out_path.read_bytes() == b"kept\n"

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        args = ("bench", "--bits", "20", "--gaps", "8,64", "--seed", "0",
                "--out", str(tmp_path / "absent" / "r.jsonl"))
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "No such file or directory" in err
        code, out, err = run_cli(capsys, *args, "--json")
        assert (code, err) == (1, "")
        assert "No such file or directory" in json.loads(out)["error"]

    def test_zero_iteration_budget(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bench", "--bits", "24", "--gaps", "8,64", "--seed", "0",
            "--out", str(tmp_path / "r.jsonl"), "--max-iterations", "0", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 4
        assert {(r["outcome"], r["iterations"]) for r in doc["records"]} == {
            ("budget_exhausted", 0)
        }
        assert doc["summary_csv"] is None
        assert doc["summary_note"].startswith("no found outcomes to summarize")

    def test_nan_seconds_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--bits", "24", "--gaps", "8,64", "--seed", "0",
            "--out", str(tmp_path / "r.jsonl"), "--max-seconds", "nan",
        )
        assert code == 1
        assert "max_seconds must be finite and positive" in err

    def test_summary_csv_file_matches_json_document(self, capsys, tmp_path):
        csv_path = tmp_path / "summary.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--bits", "24", "--gaps", "8,64", "--seed", "0",
            "--out", str(tmp_path / "r.jsonl"), "--summary-csv", str(csv_path), "--json",
        )
        assert code == 0
        assert csv_path.read_text(encoding="utf-8") == json.loads(out)["summary_csv"]

    def test_bad_gaps_text(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--bits", "20", "--gaps", "8;64", "--seed", "0",
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 1
        assert "comma-separated" in err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_modulus(self, capsys):
        assert main(["factor"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["factor", "187", "--turbo"]) == 1

    def test_bad_modulus_text(self, capsys):
        code, _, err = run_cli(capsys, "factor", "12z")
        assert code == 1
        assert "not a decimal or 0x-hex integer" in err

    def test_huge_bad_modulus_is_not_echoed(self, capsys):
        code, _, err = run_cli(capsys, "factor", "z" * 5000)
        assert code == 1
        assert "(5000 characters) is not a decimal or 0x-hex integer" in err
        assert len(err.encode()) < 200

    def test_negative_modulus(self, capsys):
        code, _, err = run_cli(capsys, "factor", "-7")
        assert code == 1

    def test_modulus_below_two(self, capsys):
        assert run_cli(capsys, "factor", "1")[0] == 1
        assert run_cli(capsys, "factor", "0")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["factor", "--help"]) == 0


# (id, argv) of exit-1 runs on every subcommand: argparse's usage errors
# and the commands' own domain errors
_EXIT_1_RUNS = [
    ("no-command", []),
    ("invalid-choice", ["zzz"]),
    ("factor-missing-modulus", ["factor"]),
    ("factor-unknown-flag", ["factor", "187", "--turbo"]),
    ("factor-bad-int-flag", ["factor", "187", "--max-iterations", "x"]),
    ("factor-bad-modulus", ["factor", "12z"]),
    ("factor-below-two", ["factor", "0"]),
    ("factor-missing-checkpoint", ["factor", "187", "--resume", "absent.ckpt"]),
    ("xscan-missing-modulus", ["xscan"]),
    ("xscan-bad-float-flag", ["xscan", "187", "--max-seconds", "fast"]),
    ("xscan-nan-seconds", ["xscan", "187", "--max-seconds", "nan"]),
    ("generate-missing-flags", ["generate", "--bits", "48"]),
    ("generate-bits-too-small", ["generate", "--bits", "2", "--max-gap", "4", "--seed", "0"]),
    ("bench-missing-flags", ["bench", "--bits", "24"]),
    ("bench-bad-gaps", ["bench", "--bits", "20", "--gaps", "8;64", "--seed", "0", "--out", "r.jsonl"]),
    ("bench-unknown-method", ["bench", "--bits", "20", "--gaps", "8,64", "--seed", "0",
                              "--methods", "rho", "--out", "r.jsonl"]),
    ("long-invalid-choice", ["z" * 5000]),
    ("long-unrecognized-argument", ["factor", "187", "z" * 5000]),
    ("long-unrecognized-option", ["factor", "187", "--" + "z" * 5000]),
]


class TestOneErrorPath:
    # every exit-1 run ends in one `error:` line, or one {"error": ...}
    # document under --json, whichever part of the program refused it
    @pytest.mark.parametrize("argv", [a for _, a in _EXIT_1_RUNS], ids=[i for i, _ in _EXIT_1_RUNS])
    def test_one_error_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv", [a for _, a in _EXIT_1_RUNS], ids=[i for i, _ in _EXIT_1_RUNS])
    def test_one_json_document(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (1, "")
        assert out.count("\n") == 1 and out.endswith("\n")
        doc = json.loads(out)
        assert list(doc) == ["error"] and len(doc["error"].encode()) < 200

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["z" * 5000], "argument command: invalid choice: 'zzz"),
            (["factor", "187", "z" * 5000], "unrecognized arguments: zzz"),
            (["factor", "187", "--" + "z" * 5000], "unrecognized arguments: --zzz"),
        ],
        ids=["invalid-choice", "unrecognized-argument", "unrecognized-option"],
    )
    def test_long_argv_text_is_cut(self, capsys, argv, kind):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {kind}") and "characters)" in err
        assert len(err.encode()) < 200

    def test_argv_text_is_escaped_to_one_line(self, capsys):
        code, _, err = run_cli(capsys, "factor", "187", "a\nb", "\u00e9")
        assert code == 1
        assert err == "error: unrecognized arguments: a\\nb \\xe9\n"

    def test_empty_checkpoint_file(self, capsys, tmp_path):
        ckpt = tmp_path / "blank.ckpt"
        ckpt.write_text("\n  \n", encoding="utf-8")
        code, out, err = run_cli(capsys, "factor", "187", "--resume", str(ckpt))
        assert (code, out) == (1, "")
        assert err.startswith("error: checkpoint file ") and err.endswith(" is empty\n")


@pytest.mark.parametrize("command, walk", [("factor", "fermat_factor"), ("xscan", "xscan_factor")])
def test_interrupted_walk_exits_130(capsys, monkeypatch, command, walk):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(f"sqfactor.cli.{walk}", interrupted)
    assert run_cli(capsys, command, "187") == (130, "", "interrupted\n")


def test_console_script_is_main():
    # the installed script runs sys.exit(main()), so main is the one entry function
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert 'sqfactor = "sqfactor.cli:main"' in text.split("[project.scripts]")[1].split("[")[0]


class TestParseModulus:
    def test_accepts_decimal_and_hex(self):
        assert parse_modulus("187") == 187
        assert parse_modulus("0xbb") == 187
        assert parse_modulus("0XBB") == 187
        assert parse_modulus("  42 ") == 42

    @pytest.mark.parametrize("bad", ["", "12z", "0x", "bb", "+-3", "12.5"])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError):
            parse_modulus(bad)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            parse_modulus("-7")

    @pytest.mark.parametrize(
        "text", ["1_87", "+187", "0187", " \u0661\u0668\u0667\n", "\uff11\uff18\uff17", "1_8_7"]
    )
    def test_decimal_syntax_is_that_of_int(self, text):
        assert parse_modulus(text) == int(text, 10) == 187

    @pytest.mark.parametrize(
        "bad",
        ["1.0", "1e3", "1E0", "nan", "inf", "-inf", "Infinity", "sNaN", "1__87", "_187",
         "187_", "+_187", "+ 187", "--187", "0x_", "1 87"],
    )
    def test_rejects_what_int_rejects(self, bad):
        with pytest.raises(ValueError):
            int(bad, 10)
        with pytest.raises(ValueError, match="is not a decimal or 0x-hex integer"):
            parse_modulus(bad)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sqfactor", "factor", "187"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "p=11 q=17 k=0 iterations=0\n"
