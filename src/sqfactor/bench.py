"""Measurement harness: iteration counts and wall time per factorization.

Records are JSON Lines, one object per (modulus, method) run, so long
studies can stream to disk and survive interruption.  Values that may
not fit a double (the gap and the seed always, any count beyond 2**53)
are emitted as decimal strings; readers accept either form.

Iteration counts are pure functions of (seed, budget) for a budget
without max_seconds, so re-running such a study reproduces them bit
for bit; elapsed_ns is then the only field allowed to differ.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
from importlib import resources
from typing import IO, get_args, get_type_hints

from .engine import (
    Budget,
    BudgetExhausted,
    Found,
    NoNontrivialFactor,
    fermat_factor,
    xscan_factor,
)
from .numeric import ceil_sqrt, int_to_str, json_int, require_int, shown, str_to_int
from .semiprimes import FeasibilityError, generate_in_window, ladder_windows, rung_seeds

METHODS = ("fermat", "xscan")


@dataclass(frozen=True)
class BenchRecord:
    n_bits: int
    gap: int | None  # q - p when known, else None
    method: str
    iterations: int
    elapsed_ns: int
    outcome: str  # a value of _OUTCOME_NAMES
    seed: int | None = None
    predicted_iterations: int | None = None  # (p+q)/2 - ceil_sqrt(n) when p, q known


# gap and seed are labels, always decimal strings; counts are JSON numbers
# only where a double holds them exactly
_LABELS = ("gap", "seed")
_HINTS = get_type_hints(BenchRecord)
# (name, int-to-JSON conversion or None for a str field, optional) in declaration order
_FIELDS = tuple(
    (f.name, None if _HINTS[f.name] is str else int_to_str if f.name in _LABELS else json_int,
     type(None) in get_args(_HINTS[f.name]))
    for f in fields(BenchRecord)
)
# the writer fills its dict in key order, so json.dumps with default arguments
# (its cached C encoder) writes the bytes that sort_keys=True would
_SORTED_FIELDS = tuple(sorted(_FIELDS))


def record_to_json(record: BenchRecord) -> str:
    """One JSONL line, keys sorted; decimal strings for gap, seed, and oversize counts."""
    obj = {}
    for name, convert, _ in _SORTED_FIELDS:
        value = getattr(record, name)
        obj[name] = value if convert is None or value is None else convert(value)
    return json.dumps(obj)


def _int_field(name: str, value) -> int:
    if isinstance(value, str):
        return str_to_int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an int or a decimal string, got {shown(value)}")


def record_from_json(line: str) -> BenchRecord:
    """Inverse of record_to_json; an int field is an int or a decimal string
    (a float or a boolean raises ValueError rather than being truncated)."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError(f"a bench record must be a JSON object, got {shown(line)}")
    values = {}
    for name, convert, optional in _FIELDS:
        if not optional and name not in obj:
            raise ValueError(f"a bench record needs the field {name!r}")
        value = obj.get(name)
        skip = convert is None or (value is None and optional)
        values[name] = value if skip else _int_field(name, value)
    _require_one_of("method", values["method"], METHODS)
    _require_one_of("outcome", values["outcome"], _OUTCOME_NAMES.values())
    return BenchRecord(**values)


def _require_one_of(name: str, value, choices) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {shown(value)}")


class SkippedWindow(UserWarning):
    """run_study skipped the gap window [lo, hi]: no semiprime was generated in it."""

    def __init__(self, lo: int, hi: int, reason: FeasibilityError):
        super().__init__(f"skipping gap window [{shown(lo)}, {shown(hi)}]: {reason}")
        self.lo, self.hi = lo, hi


_OUTCOME_NAMES = {
    Found: "found", NoNontrivialFactor: "no_factor", BudgetExhausted: "budget_exhausted"
}


def measure(
    n: int,
    method: str = "fermat",
    budget: Budget | None = None,
    factors: tuple[int, int] | None = None,
    seed: int | None = None,
) -> BenchRecord:
    """Run one factorization and record what happened.

    `factors`, when the true (p, q) is known up front (generated
    inputs), fills gap and predicted_iterations even if the run
    exhausts its budget.  A found outcome fills them from the result.
    """
    _require_one_of("method", method, METHODS)
    run = fermat_factor if method == "fermat" else xscan_factor
    t0 = time.perf_counter_ns()
    outcome = run(n, budget)
    elapsed = max(time.perf_counter_ns() - t0, 1)

    kind = _OUTCOME_NAMES[type(outcome)]
    p, q = (outcome.p, outcome.q) if kind == "found" else factors or (None, None)
    return BenchRecord(
        n_bits=n.bit_length(),
        gap=None if p is None else q - p,
        method=method,
        iterations=outcome.iterations,
        elapsed_ns=elapsed,
        outcome=kind,
        seed=seed,
        predicted_iterations=None if p is None else (p + q) // 2 - ceil_sqrt(n),
    )


def _measure_cell(cell: tuple) -> BenchRecord:
    sp, method, budget = cell
    return measure(sp.n, method, budget, (sp.p, sp.q), sp.seed)


def run_study(
    bits: int,
    gaps: Sequence[int],
    seed: int,
    budget: Budget | None = None,
    methods: Sequence[str] = METHODS,
    sink: IO[str] | None = None,
    workers: int = 1,
) -> list[BenchRecord]:
    """Generate a gap ladder and measure every (semiprime, method) cell.

    Records come back, and stream to `sink` as JSONL, in ladder order
    (gap, then method) for every `workers`; `workers` > 1 measures the
    cells in a pool of at most one process per cell.  Iteration columns
    are deterministic for a fixed (seed, budget) whose max_seconds is
    None; wall times are not.
    An infeasible rung raises a ``SkippedWindow`` warning and is skipped;
    the rest proceeds.
    """
    require_int("workers", workers, 1)
    if budget is not None and not isinstance(budget, Budget):
        # the engine's own check, made here before any semiprime is generated
        raise ValueError(f"budget must be a Budget or None, got {type(budget).__name__}")
    if not methods:
        raise ValueError("methods must be nonempty")
    for i, m in enumerate(methods):
        _require_one_of("method", m, METHODS)
        if m in methods[:i]:
            raise ValueError(f"method {shown(m)} is listed twice")
    windows = ladder_windows(gaps)
    cells = []
    for rung_seed, (lo, hi) in zip(rung_seeds(seed, len(windows)), windows):
        try:
            sp = generate_in_window(bits, lo, hi, rung_seed)
        except FeasibilityError as exc:
            warnings.warn(SkippedWindow(lo, hi, exc))
            continue
        cells.extend((sp, method, budget) for method in methods)

    records = []
    with contextlib.ExitStack() as stack:
        run = map
        workers = min(workers, len(cells))  # a pool may start all its workers at once
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for record in run(_measure_cell, cells):
            if sink is not None:
                sink.write(record_to_json(record) + "\n")
            records.append(record)
    return records


# --- aggregation ---------------------------------------------------------------

@dataclass(frozen=True)
class SummaryRow:
    gap: int
    n_bits: int
    runs: int
    median_iterations: float
    analytic_iterations: float
    ratio: float | None  # median / analytic; None when analytic is 0
    median_elapsed_ns: float


_ROW_HINTS = get_type_hints(SummaryRow)
# (name, format spec) per column; the ratio's spec is the caller's
_COLUMNS = tuple(
    (f.name, ".6g" if _ROW_HINTS[f.name] is float else "") for f in fields(SummaryRow)
)


def _cells(row: SummaryRow, ratio_spec: str, no_ratio: str) -> list[str]:
    """One row's cells in column order, for both the CSV and the text table."""
    cells = []
    for name, spec in _COLUMNS:
        value = getattr(row, name)
        if name == "ratio":
            cells.append(no_ratio if value is None else format(value, ratio_spec))
        else:
            cells.append(format(value, spec))
    return cells


def _gap_text(gap: int) -> str:
    """The text table's gap: decimal up to 2**64, else 2^e with e to two
    decimals, so a 1024-bit ladder's column stays readable.  The CSV and
    the JSON records keep every gap exact."""
    return f"2^{math.log2(gap):.2f}" if gap > 1 << 64 else str(gap)


@dataclass(frozen=True)
class SummaryTable:
    rows: list[SummaryRow]

    def as_csv(self) -> str:
        table = [[name for name, _ in _COLUMNS]] + [_cells(r, ".6g", "") for r in self.rows]
        return "".join(",".join(row) + "\n" for row in table)

    def as_text(self) -> str:
        header = ("gap", "n_bits", "runs", "median_iter", "analytic", "ratio", "median_ns")
        table = [header] + [[_gap_text(r.gap)] + _cells(r, ".3g", "-")[1:] for r in self.rows]
        widths = [max(map(len, column)) for column in zip(*table)]
        return "".join("  ".join(map(str.rjust, row, widths)) + "\n" for row in table)


def analytic_iterations(gap: int, n_bits: int) -> float:
    """Reference curve gap**2 / (8 * sqrt(n)) with n taken as 2**(n_bits - 0.5),
    the geometric midpoint of the bit-length class."""
    if gap <= 0:
        return 0.0
    # log-space keeps this finite for arbitrary widths
    return 2.0 ** (2 * math.log2(gap) - 3 - (n_bits - 0.5) / 2)


def scaling_summary(records: Sequence[BenchRecord]) -> SummaryTable:
    """Per-gap medians of the fermat (y-walk) records against the analytic curve.

    The curve gap**2 / (8 * sqrt(n)) is the y-walk's cost; the x-walk
    takes (q - p) / 2 candidates, so its records are ignored.  Uses
    found outcomes only; budget-exhausted runs carry no completed
    iteration count and would poison the medians.
    """
    if not records:
        raise ValueError("no records to summarize")
    mine = [r for r in records if r.method == "fermat"]
    if not mine:
        raise ValueError("no records for method 'fermat'")
    found = [r for r in mine if r.outcome == "found" and r.gap is not None]
    if not found:
        raise ValueError(
            "no found outcomes to summarize: every run exhausted its budget "
            "or hit a prime; rerun with a larger budget"
        )
    gaps = {r.gap for r in found}
    if len(gaps) < 2:
        raise ValueError("need found records from at least 2 distinct gaps")
    groups: dict = {}
    for r in found:
        groups.setdefault((r.gap, r.n_bits), []).append(r)
    rows = []
    for (gap, n_bits), group in sorted(groups.items()):
        med_iter = statistics.median(r.iterations for r in group)
        analytic = analytic_iterations(gap, n_bits)
        rows.append(
            SummaryRow(
                gap=gap,
                n_bits=n_bits,
                runs=len(group),
                median_iterations=float(med_iter),
                analytic_iterations=analytic,
                ratio=None if analytic == 0 else med_iter / analytic,
                median_elapsed_ns=float(statistics.median(r.elapsed_ns for r in group)),
            )
        )
    return SummaryTable(rows=rows)


def load_rsa100() -> int:
    """The 100-digit RSA challenge modulus, from the package data fixture."""
    text = resources.files("sqfactor").joinpath("data/rsa100.txt").read_text()
    digits = [line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return int("".join(digits))
