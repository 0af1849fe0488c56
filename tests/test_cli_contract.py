"""The contract of the factor and xscan subcommands, over drawn argv.

Every argv gets an answer: ``main`` returns 0, 1, 2 or 3 and raises
nothing.  Exit 1 is one ``error:`` line on stderr, or under ``--json``
one ``{"error": ...}`` document and an empty stderr, either way under
200 bytes.  Exit 0's factors multiply back to n.  Exit 2 means n is
prime, also after a resume.  Exit 3's checkpoint parses, and resuming
it reaches the outcome of the same run without a budget.  The text and
``--json`` forms of a run agree.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from sqfactor.cli import main
from sqfactor.engine import (
    Budget,
    BudgetExhausted,
    checkpoint_line,
    fermat_factor,
    parse_checkpoint,
    xscan_factor,
)
from sqfactor.numeric import is_probable_prime

_DIGITS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")  # ASCII, Arabic-Indic, fullwidth

_JUNK = st.one_of(
    st.sampled_from(
        ["", " ", "0x", "0xg", "--5", "+-5", "-", "1__0", "_1", "1_", "1e3", "1.0", "nan", "١٨z"]
    ),
    # no "-", so no junk reads as an option such as --help
    st.text(alphabet="0123456789abcxz +_.", max_size=12).map(lambda t: t + "z"),
)


@st.composite
def _moduli(draw):
    """(argv text, the int it denotes, or None for junk)."""
    if draw(st.sampled_from(["value", "value", "value", "value", "junk"])) == "junk":
        return draw(_JUNK), None
    n = draw(st.one_of(st.integers(3, 1 << 16),
                       st.sampled_from([0, 1, 2, 3, 4, 9, 17, 187, 5959, 11918, 65536])))
    if draw(st.sampled_from(["decimal", "hex"])) == "hex":
        text = draw(st.sampled_from(["0x", "0X"])) + format(n, "x")
    else:
        digits = str(n)
        if len(digits) > 1:
            cuts = draw(st.lists(st.booleans(), min_size=len(digits) - 1, max_size=len(digits) - 1))
            digits = digits[0] + "".join(("_" if cut else "") + d for cut, d in zip(cuts, digits[1:]))
        digits = digits.translate(str.maketrans("0123456789", draw(st.sampled_from(_DIGITS))))
        sign = draw(st.sampled_from(["", "", "+", "-"]))
        text, n = sign + digits, -n if sign == "-" else n
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "])), n


_FLAG_VALUES = {
    "--max-iterations": {
        "small": st.integers(0, 64).map(str),
        "large": st.integers(0, 3000).map(str),
        "refused": st.sampled_from(["x", "-1", "1.5", ""]),
    },
    "--max-seconds": {
        "valid": st.sampled_from(["30", "1e3"]),
        "refused": st.sampled_from(["nan", "0", "-1", "inf", "fast"]),
    },
}


@st.composite
def _budget_flags(draw):
    """A --max-iterations and a --max-seconds flag, each absent, valid or refused."""
    flags = []
    for flag, kinds in (
        ("--max-iterations", ["small", "small", "large", "absent", "refused"]),
        ("--max-seconds", ["absent", "absent", "absent", "valid", "refused"]),
    ):
        kind = draw(st.sampled_from(kinds))
        if kind != "absent":
            flags += [flag, draw(_FLAG_VALUES[flag][kind])]
    return flags


_RESUME = st.sampled_from(
    [None, None, "real", "real", "real", "mutated", "other-walk", "not-utf8", "empty"]
)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _exhausted_line(walk, n, j):
    """A checkpoint line of walk on the odd part of n, or on 5959 where
    that is below 3: after j candidates, or after none where the walk
    ends sooner."""
    odd = n >> ((n & -n).bit_length() - 1) if n > 0 else 0
    if odd < 3:
        odd = 5959
    out = walk(odd, Budget(max_iterations=j))
    if not isinstance(out, BudgetExhausted):
        out = walk(odd, Budget(max_iterations=0))
    return checkpoint_line(out.resume)


def _text_form(code, doc):
    """(stdout, stderr) the text form of a run prints, from its JSON document."""
    if code == 1:
        return "", f"error: {doc['error']}\n"
    if code == 3:
        note = (f"budget exhausted after {doc['iterations']} iterations; "
                "save the line above and continue with --resume\n")
        return doc["checkpoint"] + "\n", note
    if code == 2:
        return f"no nontrivial factor (iterations={doc['iterations']})\n", ""
    if doc["outcome"] == "found" and not doc["twos"]:
        return f"p={doc['p']} q={doc['q']} k={doc['k']} iterations={doc['iterations']}\n", ""
    return " × ".join(doc["factors"]) + "\n", ""


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(["factor", "xscan"]),
    modulus=_moduli(),
    flags=_budget_flags(),
    progress=st.booleans(),
    resume=_RESUME,
    j=st.integers(0, 200),
    mutation=st.tuples(st.integers(0, 1 << 16), st.sampled_from("0123456789xk=- ")),
    json_first=st.booleans(),
)
def test_every_argv_gets_a_contract_answer(command, modulus, flags, progress, resume, j,
                                           mutation, json_first):
    text, n = modulus
    argv = [command, text] + flags
    if progress:
        argv.append("--progress")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "walk.ckpt")
        if resume is not None:
            own, other = (fermat_factor, xscan_factor)[:: 1 if command == "factor" else -1]
            line = _exhausted_line(other if resume == "other-walk" else own, n or 0, j)
            if resume == "mutated":
                at, char = mutation
                at %= len(line)
                line = line[:at] + char + line[at + 1:]
            with open(ckpt, "wb") as fh:
                fh.write({"not-utf8": b"\xff\xfe", "empty": b""}.get(resume, line.encode()))
            argv += ["--resume", ckpt]

        code, out, err = _call(argv)
        json_argv = [command, "--json"] + argv[1:] if json_first else argv + ["--json"]
        jcode, jout, jerr = _call(json_argv)

        assert code in (0, 1, 2, 3) and jcode == code
        assert jout.count("\n") == 1 and jout.endswith("\n")
        doc = json.loads(jout)
        if code == 1:
            assert list(doc) == ["error"] and jerr == ""
            assert len(err.encode()) < 200
        else:
            assert n is not None, "junk modulus text was accepted"
        if code == 0:
            assert math.prod(int(f) for f in doc["factors"]) == n
        if code == 2:
            assert is_probable_prime(n)
        assert (out, err) == _text_form(code, doc)
        assert jerr == ""

        if code == 3:
            resumed = os.path.join(tmp, "resumed.ckpt")
            with open(resumed, "w", encoding="utf-8") as fh:
                fh.write(out)
            assert parse_checkpoint(doc["checkpoint"]) == parse_checkpoint(out)
            unbudgeted = [command, text, "--json"] + (["--resume", ckpt] if resume else [])
            assert _call([command, text, "--resume", resumed, "--json"]) == _call(unbudgeted)
