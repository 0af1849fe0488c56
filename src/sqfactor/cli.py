"""Command-line interface: factor, xscan, generate, and bench subcommands.

Exit codes: 0 success (factorization completed, or generation/bench
ran), 1 usage or domain errors, 2 no nontrivial factor (the input is
prime), 3 budget exhausted (a resumable checkpoint line goes to
stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings

from .engine import (
    Budget,
    BudgetExhausted,
    Found,
    NoNontrivialFactor,
    SearchState,
    checkpoint_line,
    fermat_factor,
    normalize_input,
    parse_checkpoint,
    resume_fermat,
    resume_xscan,
    xscan_factor,
)
from .numeric import int_to_str, is_probable_prime, json_int, require_int, shown, str_to_int

DEFAULT_MAX_ITERATIONS = 10**8  # library default is unlimited; the CLI is not

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NO_FACTOR = 2
_EXIT_EXHAUSTED = 3

_MASK64 = (1 << 64) - 1


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2, which the contract reserves for
    # "input is prime"; raise for main to report as one error line.  The
    # message quotes argv whole, so it is escaped to ASCII and, as shown
    # cuts a long string, cut to a prefix naming the error, and its length.
    def error(self, message):
        text = ascii(message)[1:-1]
        raise ValueError(text if len(text) <= 160 else f"{text[:120]}... ({len(text)} characters)")


def parse_modulus(text: str) -> int:
    s = text.strip()
    try:
        # a power-of-two base is exempt from the int/str limit; decimal is not
        value = int(s, 16) if s[:2].lower() == "0x" else str_to_int(s)
    except (ValueError, IndexError):
        raise ValueError(f"modulus {shown(text)} is not a decimal or 0x-hex integer")
    return require_int("modulus", value)


def _int_arg(text: str) -> int:
    try:
        return str_to_int(text)  # any width, where int() stops at 4300 digits
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}")


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {shown(text)}")


def _budget_from(args) -> Budget:
    # a wall-clock bound already bounds the run, so it lifts the candidate default
    if args.max_iterations is None and args.max_seconds is None:
        return Budget(max_iterations=DEFAULT_MAX_ITERATIONS)
    return Budget(max_iterations=args.max_iterations, max_seconds=args.max_seconds)


def _emit(doc, text: str, as_json: bool) -> None:
    """Write a result: doc as one JSON line under --json, else text as given."""
    if as_json:
        import json  # not loaded by a factor/xscan run without --json
        text = json.dumps(doc) + "\n"
    sys.stdout.write(text)


def _fail(message: str, as_json: bool) -> int:
    if as_json:
        _emit({"error": message}, "", True)
    else:
        print(f"error: {message}", file=sys.stderr)
    return _EXIT_USAGE


def _os_error_text(exc: OSError) -> str:
    """str(exc), with the file name quoted through shown."""
    if exc.filename is None:
        return str(exc)
    return f"[Errno {exc.errno}] {exc.strerror}: {shown(exc.filename)}"


def _load_checkpoint(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read checkpoint file: {_os_error_text(exc)}")
    except UnicodeDecodeError:
        raise ValueError(f"cannot read checkpoint file: {shown(path)} is not UTF-8 text")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"checkpoint file {shown(path)} is empty")
    return parse_checkpoint(lines[-1])  # last line wins, files are appendable


def _split_result(n: int, norm, method: str, outcome) -> tuple[dict, str, int]:
    """The result document of one split, in output key order, its text
    form, and its exit code."""
    doc = {"n": int_to_str(n), "twos": norm.two_exponent, "method": method}
    iterations = json_int(outcome.iterations)
    if isinstance(outcome, BudgetExhausted):
        line = checkpoint_line(outcome.resume)
        doc.update(
            outcome="budget_exhausted",
            iterations=iterations,
            checkpoint=line,
            resume=dict(token.split("=") for token in line.split()),
        )
        return doc, line + "\n", _EXIT_EXHAUSTED
    factors = norm.two_factors()
    text = None
    if isinstance(outcome, Found):
        p, q, k = int_to_str(outcome.p), int_to_str(outcome.q), json_int(outcome.k)
        doc.update(outcome="found", p=p, q=q, k=k, iterations=iterations)
        factors += [outcome.p, outcome.q]
        if not norm.two_exponent:
            text = f"p={p} q={q} k={k} iterations={iterations}\n"
    else:
        if not norm.is_fully_factored:
            factors.append(norm.residual)  # the walk found the odd residual prime
        if len(factors) < 2:  # n itself is prime
            doc.update(outcome="no_factor", iterations=iterations, factors=None)
            return doc, f"no nontrivial factor (iterations={iterations})\n", _EXIT_NO_FACTOR
        doc.update(outcome="complete", iterations=iterations)
    doc["factors"] = [int_to_str(f) for f in factors]
    return doc, text or (" × ".join(doc["factors"]) + "\n"), _EXIT_OK


def _run_split(args) -> int:
    n = parse_modulus(args.modulus)
    norm = normalize_input(n)  # raises on n < 2
    fermat = args.method == "fermat"
    state = None
    if args.resume:
        state = _load_checkpoint(args.resume)
        if isinstance(state, SearchState) != fermat:
            kind = "y-walk (factor)" if isinstance(state, SearchState) else "x-walk (xscan)"
            raise ValueError(f"checkpoint is for the {kind}; wrong subcommand")
        if state.n != norm.residual:
            raise ValueError(
                f"checkpoint is for modulus {shown(state.n)}, but {shown(n)} normalizes "
                f"to {shown(norm.residual)}"
            )

    if norm.is_fully_factored:
        # powers of two never reach a walk; nothing is left to split
        outcome = NoNontrivialFactor(iterations=0)
    else:
        progress = None
        if args.progress:
            label = "k" if fermat else "x"
            progress = lambda count: print(f"{label}={count}", file=sys.stderr, flush=True)
        budget = _budget_from(args)
        if state is not None:
            outcome = (resume_fermat if fermat else resume_xscan)(state, budget, progress)
            # the walk ruled out only the candidates from the checkpoint on, so
            # it proves nothing prime; a failed Miller-Rabin round proves n composite
            if isinstance(outcome, NoNontrivialFactor) and not is_probable_prime(state.n):
                raise ValueError(
                    f"checkpoint is past a split: {shown(state.n)} is composite, "
                    "but the walk from the checkpoint on found no factor"
                )
        else:
            walk = fermat_factor if fermat else xscan_factor
            outcome = walk(norm.residual, budget, progress)

    doc, text, code = _split_result(n, norm, args.method, outcome)
    _emit(doc, text, args.json)
    if code == _EXIT_EXHAUSTED and not args.json:
        print(
            f"budget exhausted after {doc['iterations']} iterations; "
            "save the line above and continue with --resume",
            file=sys.stderr,
        )
    return code


def _cmd_generate(args) -> int:
    import json
    from dataclasses import replace
    from .semiprimes import SemiprimeSpec, generate  # not loaded by factor/xscan runs
    spec = SemiprimeSpec(args.bits, args.max_gap, args.seed)  # checked even for --count 0
    items = [  # only the --count advance wraps
        generate(replace(spec, seed=(spec.seed + i) & _MASK64)).as_json_dict()
        for i in range(require_int("count", args.count))
    ]
    _emit(items, "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in items), args.json)
    return _EXIT_OK


class _OutFile:
    """Text sink that creates or truncates `path` at its first write, so a
    study that fails validation leaves an existing file as it was."""

    def __init__(self, path: str, stack: contextlib.ExitStack):
        self._path, self._stack, self._fh = path, stack, None

    def write(self, text: str) -> None:
        if self._fh is None:
            self._fh = self._stack.enter_context(open(self._path, "w", encoding="utf-8"))
        self._fh.write(text)


def _cmd_bench(args) -> int:
    import json
    from .bench import SkippedWindow, record_to_json, run_study, scaling_summary
    gaps = _parse_gaps(args.gaps)
    methods = tuple(args.methods.split(","))
    budget = _budget_from(args)
    with contextlib.ExitStack() as stack:
        # recorded, then printed as plain lines without Python's source-line display
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always", SkippedWindow)
        sink = _OutFile(args.out, stack)
        records = run_study(
            bits=args.bits,
            gaps=gaps,
            seed=args.seed,
            budget=budget,
            methods=methods,
            sink=sink,
            workers=args.workers,
        )
        sink.write("")  # a study with no records still leaves an empty file
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    skipped = [w.message for w in caught if isinstance(w.message, SkippedWindow)]
    try:
        summary, note = scaling_summary(records), None
    except ValueError as exc:
        summary, note = None, str(exc)
    csv = None if summary is None else summary.as_csv()

    if args.summary_csv and csv is not None:
        with open(args.summary_csv, "w", encoding="utf-8") as fh:
            fh.write(csv)

    doc = {
        "records": [json.loads(record_to_json(r)) for r in records],
        "summary_csv": csv,
        "summary_note": note,
        "skipped": [[int_to_str(w.lo), int_to_str(w.hi)] for w in skipped],
    }
    text = f"wrote {len(records)} records to {args.out}\n"
    _emit(doc, text if summary is None else text + summary.as_text(), args.json)
    left_out = sorted(r.outcome for r in records if r.method == "fermat" and r.outcome != "found")
    if summary is None and not args.json:
        print(f"summary skipped: {note}", file=sys.stderr)
    elif left_out and not args.json:
        counts = ", ".join(f"{left_out.count(o)} {o}" for o in dict.fromkeys(left_out))
        print(f"summary leaves out fermat runs: {counts}", file=sys.stderr)
    return _EXIT_OK


def _parse_gaps(text: str) -> list[int]:
    try:
        return [str_to_int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"gaps {shown(text)} must be comma-separated integers")


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-iterations", type=_int_arg, default=None, metavar="M",
        help=f"candidate budget for this run (default {DEFAULT_MAX_ITERATIONS:_} "
        "unless --max-seconds is given)",
    )
    sub.add_argument(
        "--max-seconds", type=_float_arg, default=None, metavar="S",
        help="wall-clock budget for this run; alone, it replaces the candidate default",
    )
    sub.add_argument("--json", action="store_true", help="emit one JSON object")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sqfactor", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    for name, method, help_text in (
        ("factor", "fermat", "difference-of-squares factor search"),
        ("xscan", "xscan", "half-gap scan variant"),
    ):
        p_split = subs.add_parser(name, help=help_text)
        p_split.add_argument("modulus", help="decimal, or hexadecimal with an 0x prefix")
        _add_budget_flags(p_split)
        p_split.add_argument(
            "--resume", metavar="FILE", default=None,
            help="continue from a checkpoint line written by an exhausted run",
        )
        p_split.add_argument(
            "--progress", action="store_true",
            help="periodic candidate-count lines on stderr",
        )
        p_split.set_defaults(handler=_run_split, method=method)

    p_gen = subs.add_parser("generate", help="deterministic test semiprimes")
    p_gen.add_argument("--bits", type=_int_arg, required=True)
    p_gen.add_argument("--max-gap", type=_int_arg, required=True)
    p_gen.add_argument("--seed", type=_int_arg, required=True)
    p_gen.add_argument(
        "--count", type=_int_arg, default=1,
        help="emit this many, advancing the seed by one each time",
    )
    p_gen.add_argument("--json", action="store_true", help="emit one JSON array")
    p_gen.set_defaults(handler=_cmd_generate)

    p_bench = subs.add_parser("bench", help="gap-ladder iteration study")
    p_bench.add_argument("--bits", type=_int_arg, required=True)
    p_bench.add_argument("--gaps", required=True, help="comma-separated gap bounds")
    p_bench.add_argument("--seed", type=_int_arg, required=True)
    p_bench.add_argument(
        "--methods", default="fermat,xscan", help="subset of fermat,xscan"
    )
    p_bench.add_argument("--out", required=True, metavar="FILE", help="JSONL sink")
    p_bench.add_argument("--summary-csv", default=None, metavar="FILE")
    p_bench.add_argument("--workers", type=_int_arg, default=1)
    _add_budget_flags(p_bench)
    p_bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None  # until parsing succeeds, --json is read from argv
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BrokenPipeError:
        raise  # stdout is gone, so there is nowhere to report it
    except (ValueError, OSError) as exc:
        message = _os_error_text(exc) if isinstance(exc, OSError) else str(exc)
        return _fail(message, getattr(args, "json", "--json" in argv))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
