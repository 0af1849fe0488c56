"""Golden output of the factor and xscan subcommands.

Every branch that turns an outcome into output is pinned here byte for
byte: stdout (UTF-8, including key order of the JSON documents), stderr
and the exit code.  A key of ``CHECKPOINTS`` in an argument list, such
as ``{ckpt}``, stands for a checkpoint file holding that key's line for
the walk.
"""

import pytest

from sqfactor.cli import main

CHECKPOINTS = {
    "{ckpt}": {"factor": "n=5959 y0=78 k=1\n", "xscan": "n=5959 y0=78 x=2\n"},
    # past the split 187 = 11 * 17, which the walks reach at k=0 and x=3
    "{past}": {"factor": "n=187 y0=14 k=1\n", "xscan": "n=187 y0=14 x=4\n"},
    "{prime}": {"factor": "n=17 y0=5 k=1\n", "xscan": "n=17 y0=5 x=1\n"},
}

PAST_SPLIT = (
    "checkpoint is past a split: 187 is composite, "
    "but the walk from the checkpoint on found no factor"
)

EXHAUSTED_NOTE = (
    "budget exhausted after {} iterations; "
    "save the line above and continue with --resume\n"
)

# (argv, exit code, stdout, stderr)
GOLDEN = [
    # found split, no factors of two
    (["factor", "187"], 0, "p=11 q=17 k=0 iterations=0\n", ""),
    (["factor", "187", "--json"], 0,
     '{"n": "187", "twos": 0, "method": "fermat", "outcome": "found", "p": "11", '
     '"q": "17", "k": 0, "iterations": 0, "factors": ["11", "17"]}\n', ""),
    (["xscan", "187"], 0, "p=11 q=17 k=0 iterations=3\n", ""),
    (["xscan", "187", "--json"], 0,
     '{"n": "187", "twos": 0, "method": "xscan", "outcome": "found", "p": "11", '
     '"q": "17", "k": 0, "iterations": 3, "factors": ["11", "17"]}\n', ""),
    # found split of the odd residual of an even input
    (["factor", "11918"], 0, "2 × 59 × 101\n", ""),
    (["factor", "11918", "--json"], 0,
     '{"n": "11918", "twos": 1, "method": "fermat", "outcome": "found", "p": "59", '
     '"q": "101", "k": 2, "iterations": 2, "factors": ["2", "59", "101"]}\n', ""),
    (["xscan", "11918"], 0, "2 × 59 × 101\n", ""),
    (["xscan", "11918", "--json"], 0,
     '{"n": "11918", "twos": 1, "method": "xscan", "outcome": "found", "p": "59", '
     '"q": "101", "k": 2, "iterations": 21, "factors": ["2", "59", "101"]}\n', ""),
    # powers of two never reach a walk
    (["factor", "8"], 0, "2 × 2 × 2\n", ""),
    (["factor", "8", "--json"], 0,
     '{"n": "8", "twos": 3, "method": "fermat", "outcome": "complete", '
     '"iterations": 0, "factors": ["2", "2", "2"]}\n', ""),
    (["xscan", "8"], 0, "2 × 2 × 2\n", ""),
    (["xscan", "8", "--json"], 0,
     '{"n": "8", "twos": 3, "method": "xscan", "outcome": "complete", '
     '"iterations": 0, "factors": ["2", "2", "2"]}\n', ""),
    (["factor", "2"], 2, "no nontrivial factor (iterations=0)\n", ""),
    (["factor", "2", "--json"], 2,
     '{"n": "2", "twos": 1, "method": "fermat", "outcome": "no_factor", '
     '"iterations": 0, "factors": null}\n', ""),
    (["xscan", "2"], 2, "no nontrivial factor (iterations=0)\n", ""),
    (["xscan", "2", "--json"], 2,
     '{"n": "2", "twos": 1, "method": "xscan", "outcome": "no_factor", '
     '"iterations": 0, "factors": null}\n', ""),
    # an odd prime, and an even input whose odd residual is prime
    (["factor", "17"], 2, "no nontrivial factor (iterations=4)\n", ""),
    (["factor", "17", "--json"], 2,
     '{"n": "17", "twos": 0, "method": "fermat", "outcome": "no_factor", '
     '"iterations": 4, "factors": null}\n', ""),
    (["xscan", "17"], 2, "no nontrivial factor (iterations=8)\n", ""),
    (["xscan", "17", "--json"], 2,
     '{"n": "17", "twos": 0, "method": "xscan", "outcome": "no_factor", '
     '"iterations": 8, "factors": null}\n', ""),
    (["factor", "6"], 0, "2 × 3\n", ""),
    (["factor", "6", "--json"], 0,
     '{"n": "6", "twos": 1, "method": "fermat", "outcome": "complete", '
     '"iterations": 0, "factors": ["2", "3"]}\n', ""),
    (["xscan", "6"], 0, "2 × 3\n", ""),
    (["xscan", "6", "--json"], 0,
     '{"n": "6", "twos": 1, "method": "xscan", "outcome": "complete", '
     '"iterations": 1, "factors": ["2", "3"]}\n', ""),
    # budget exhausted: checkpoint line on stdout, note on stderr
    (["factor", "5959", "--max-iterations", "1"], 3,
     "n=5959 y0=78 k=1\n", EXHAUSTED_NOTE.format(1)),
    (["factor", "5959", "--max-iterations", "1", "--json"], 3,
     '{"n": "5959", "twos": 0, "method": "fermat", "outcome": "budget_exhausted", '
     '"iterations": 1, "checkpoint": "n=5959 y0=78 k=1", '
     '"resume": {"n": "5959", "y0": "78", "k": "1"}}\n', ""),
    (["xscan", "11918", "--max-iterations", "2"], 3,
     "n=5959 y0=78 x=2\n", EXHAUSTED_NOTE.format(2)),
    (["xscan", "11918", "--max-iterations", "2", "--json"], 3,
     '{"n": "11918", "twos": 1, "method": "xscan", "outcome": "budget_exhausted", '
     '"iterations": 2, "checkpoint": "n=5959 y0=78 x=2", '
     '"resume": {"n": "5959", "y0": "78", "x": "2"}}\n', ""),
    # resumed runs
    (["factor", "5959", "--resume", "{ckpt}"], 0, "p=59 q=101 k=2 iterations=2\n", ""),
    (["factor", "11918", "--resume", "{ckpt}", "--json"], 0,
     '{"n": "11918", "twos": 1, "method": "fermat", "outcome": "found", "p": "59", '
     '"q": "101", "k": 2, "iterations": 2, "factors": ["2", "59", "101"]}\n', ""),
    (["xscan", "5959", "--resume", "{ckpt}"], 0, "p=59 q=101 k=2 iterations=21\n", ""),
    (["xscan", "5959", "--resume", "{ckpt}", "--json"], 0,
     '{"n": "5959", "twos": 0, "method": "xscan", "outcome": "found", "p": "59", '
     '"q": "101", "k": 2, "iterations": 21, "factors": ["59", "101"]}\n', ""),
    # a resumed walk that ends without a factor is checked for primality
    (["factor", "187", "--resume", "{past}"], 1, "", f"error: {PAST_SPLIT}\n"),
    (["factor", "187", "--resume", "{past}", "--json"], 1,
     f'{{"error": "{PAST_SPLIT}"}}\n', ""),
    (["xscan", "187", "--resume", "{past}"], 1, "", f"error: {PAST_SPLIT}\n"),
    (["xscan", "187", "--resume", "{past}", "--json"], 1,
     f'{{"error": "{PAST_SPLIT}"}}\n', ""),
    (["factor", "374", "--resume", "{past}"], 1, "", f"error: {PAST_SPLIT}\n"),
    (["factor", "374", "--resume", "{past}", "--json"], 1,
     f'{{"error": "{PAST_SPLIT}"}}\n', ""),
    (["factor", "17", "--resume", "{prime}"], 2, "no nontrivial factor (iterations=4)\n", ""),
    (["xscan", "17", "--resume", "{prime}", "--json"], 2,
     '{"n": "17", "twos": 0, "method": "xscan", "outcome": "no_factor", '
     '"iterations": 8, "factors": null}\n', ""),
]


@pytest.mark.parametrize(
    "argv, code, stdout, stderr", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_split_output_is_byte_exact(capsysbinary, tmp_path, argv, code, stdout, stderr):
    ckpt = tmp_path / "walk.ckpt"
    for a in argv:
        if a in CHECKPOINTS:
            ckpt.write_text(CHECKPOINTS[a][argv[0]], encoding="utf-8")
    argv = [str(ckpt) if a in CHECKPOINTS else a for a in argv]
    assert main(argv) == code
    captured = capsysbinary.readouterr()
    assert captured.out == stdout.encode("utf-8")
    assert captured.err == stderr.encode("utf-8")
