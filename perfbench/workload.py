"""Seeded inputs and the four measured phases of the sqfactor benchmark.

Every run of every workload executes the same four phases; a workload
only decides how the measured seconds are shared between them (see
run.py).  Each phase calls the program through module attributes
(``engine.fermat_factor(...)``), so that tracing.py can rebind those
attributes in a traced run without any edit to the program.

Phases:

* ``Walks``: the RSA-100 modulus.  One y-walk call and one x-walk call
  under a wall-clock ``Budget(max_seconds=...)``, each starting from a
  seeded offset that enters through a checkpoint line, and a y-walk
  driven in fixed-size chunks where each chunk goes checkpoint_line ->
  parse_checkpoint -> resume_fermat.
* ``Splits``: several thousand seeded near-balanced odd moduli
  n = (y - x)(y + x) with small half-gaps x, each split in-process by
  fermat_factor and by xscan_factor, each call timed on its own.
* ``Ladder``: 64-bit y-walk gap ladders through bench.run_study with a
  JSONL sink, followed by bench.scaling_summary.
* ``Cli``: fresh ``python -m sqfactor`` processes covering every output
  branch of the factor and xscan subcommands.

Every operation is checked against facts the benchmark derives itself
(a known divisor, the cost identity k = (p + q)/2 - ceil(sqrt(n)), the
expected CLI text and exit code), never against the program's own
earlier answer alone.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# RSA-100 = RSA100_P * RSA100_Q (factored in 1991); the benchmark checks the
# fixture against this product, and the y-walk's true offset follows from it.
RSA100_P = 37975227936943673922808872755445627854565536638199
RSA100_Q = 40094690950920881030683735292761468389214899724061

TINY_BITS = (24, 64, 256)
TINY_PER_SIZE = 1000
MAX_HALF_GAP = 48

# Rung gaps near 2**23 and 2**24 cost the 64-bit y-walk about 2k and 10k
# candidates, so the walk and the semiprime generation each take a large
# share of a study; the first window only yields gaps of a few units.
LADDER_BITS = 64
LADDER_GAPS = (1 << 23, 1 << 24, 1 << 25)
LADDER_STUDIES = 48

# A prime chunk length, so chunk boundaries drift through every residue
# period (64 and the 2,882,880 of a CRT wheel) instead of repeating one.
CHUNK = 65521
OFFSET_RANGE = (1 << 40, 1 << 41)

SPLIT_WINDOW = 2000  # consecutive split calls per latency window: p99 has 20 beyond
WALK_SLICE = 0.05  # wall-clock budget of one single RSA-100 walk call, in seconds

# The speed of a shared VM can swing by 2x within seconds and stay at either
# level for minutes, as other tenants come and go.  Every timed sample is
# therefore bracketed by two runs of calibrate(), a fixed pure-Python loop
# that calls nothing in the program, and scaled to the speed at which that
# loop takes CAL_REF_NS: a time is divided by, and a rate multiplied by,
# slowdown = (calibration time) / CAL_REF_NS.
CAL_REF_NS = 800_000


def calibrate() -> int:
    """Nanoseconds for a fixed loop of bytecode, small-int and str work."""
    t0 = time.perf_counter_ns()
    x = 0
    for i in range(3000):
        x = (x * 31 + i) % 1_000_003
        x += len(str(i))
    return time.perf_counter_ns() - t0


def slowdown(before: int, after: int) -> float:
    return (before + after) / 2 / CAL_REF_NS


def percentile(values, q):
    """Nearest-rank percentile; refuses a tail with fewer than ten samples."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    if q > 50 and len(xs) - rank < 10:
        raise ValueError(f"p{q} of {len(xs)} samples has fewer than ten beyond it")
    return xs[rank - 1]


class Tally:
    """Operations attempted and failed; keeps the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def merge(self, attempted: int, failed: int, notes) -> None:
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes[: max(0, 20 - len(self.notes))])


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def import_program(root: Path) -> SimpleNamespace:
    """Import sqfactor from root/src; refuses any other copy."""
    src = (root / "src").resolve()
    if not (src / "sqfactor" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sqfactor package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("sqfactor")
    if Path(pkg.__file__).resolve().parent != src / "sqfactor":
        raise ImportError(f"imported sqfactor from {pkg.__file__}, not {src}")
    return SimpleNamespace(
        root=root,
        src=src,
        version=pkg.__version__,
        engine=importlib.import_module("sqfactor.engine"),
        bench=importlib.import_module("sqfactor.bench"),
        semiprimes=importlib.import_module("sqfactor.semiprimes"),
        numeric=importlib.import_module("sqfactor.numeric"),
    )


# --- seeded inputs -------------------------------------------------------------

def _tiny_pair(rng: random.Random, bits: int):
    half = bits // 2
    while True:
        y = rng.getrandbits(half) | (1 << (half - 1))
        x = rng.randint(1, MAX_HALF_GAP)
        if (y - x) % 2 == 1 and y - x >= 3:  # odd factors, so n is odd
            return y, x


def _next_prime(n: int) -> int:
    """Smallest prime >= n, by trial division (n is small here)."""
    n = max(n, 3) | 1
    while any(n % d == 0 for d in range(3, math.isqrt(n) + 1, 2)):
        n += 2
    return n


def _resume_pair(rng: random.Random):
    """Primes p < q near 2**12 whose y-walk split needs k >= 2, so a
    one-candidate budget leaves a checkpoint to resume from."""
    while True:
        p = _next_prime(rng.randrange(3000, 5000))
        q = _next_prime(p + rng.randrange(400, 600))
        if (p + q) // 2 - ceil_sqrt(p * q) >= 2:
            return p * q, p


def make_inputs(seed: int) -> SimpleNamespace:
    """Everything the program will see, as a pure function of the seed."""
    rng = random.Random(seed)
    tiny = [(187, 11)]  # (n, a divisor of n at most sqrt(n))
    for bits in TINY_BITS:
        for _ in range(TINY_PER_SIZE):
            y, x = _tiny_pair(rng, bits)
            tiny.append(((y - x) * (y + x), y - x))
    rng.shuffle(tiny)
    k0 = rng.randrange(*OFFSET_RANGE)
    if k0 % 64 == 0:
        k0 += 1
    return SimpleNamespace(
        tiny=tiny,
        k0=k0,
        x0=rng.randrange(*OFFSET_RANGE),
        study_seeds=[rng.getrandbits(64) for _ in range(LADDER_STUDIES)],
        cli_split=tiny[0][0],
        cli_even=(1 << rng.randint(1, 5)) * tiny[1][0],
        cli_pow2_exp=rng.randint(2, 60),
        cli_prime=_next_prime(rng.randrange(10_000, 30_000)),
        cli_walk=_resume_pair(rng),
    )


# --- checks -------------------------------------------------------------------

def split_ok(out, n: int, divisor: int, method: str, engine) -> bool:
    """A found split of n: p*q == n, 1 < p <= q, p at least the known
    divisor (the walk returns the largest divisor <= sqrt(n)), the cost
    identity for k, and the walk's own iteration count."""
    if not isinstance(out, engine.Found):
        return False
    p, q = out.p, out.q
    if not (p * q == n and 1 < p <= q and p >= divisor):
        return False
    if out.k != (p + q) // 2 - ceil_sqrt(n):
        return False
    return out.iterations == (out.k if method == "fermat" else (q - p) // 2)


def state_round_trips(state, engine) -> bool:
    return engine.parse_checkpoint(engine.checkpoint_line(state)) == state


# --- phases -------------------------------------------------------------------
# run(seconds, tally) -> (work units done, seconds spent in the program).
# Each phase keeps its scaled samples and the slowdowns it saw.

class Walks:
    """RSA-100 y-walk, chunked y-walk and x-walk from seeded offsets."""

    def __init__(self, sq, inputs):
        self.engine = sq.engine
        n = sq.bench.load_rsa100()
        self.n = n
        self.y0 = ceil_sqrt(n)
        self.fixture_ok = RSA100_P * RSA100_Q == n
        self.k_true = (RSA100_P + RSA100_Q) // 2 - self.y0
        self.x_true = (RSA100_Q - RSA100_P) // 2
        self.y_line = f"n={n} y0={self.y0} k={inputs.k0}"
        self.x_line = f"n={n} y0={self.y0} x={inputs.x0}"
        self.chunk_state = None
        # scaled Mcand/s per single call and per chunk
        self.ywalk, self.resumed, self.xwalk = [], [], []
        self.slow = []

    def warm(self, tally):
        tally.check(self.fixture_ok, "RSA-100 fixture is not RSA100_P * RSA100_Q")
        self.chunk_state = self.engine.parse_checkpoint(self.y_line)
        self._single(self.y_line, self.engine.Budget(max_iterations=CHUNK), tally)
        self._single(self.x_line, self.engine.Budget(max_iterations=CHUNK), tally)
        self.slow.clear()

    def run(self, seconds, tally):
        e = self.engine
        work = busy = 0.0
        budget = e.Budget(max_seconds=WALK_SLICE)
        calls = max(1, round(seconds / 3 / WALK_SLICE))
        for line, rates in ((self.y_line, self.ywalk), (self.x_line, self.xwalk)):
            for _ in range(calls):
                cand, dt = self._single(line, budget, tally)
                rates.append(cand / dt * self.slow[-1] / 1e6)
                work += cand
                busy += dt
        cand, dt = self._chunks(seconds / 3, tally)
        return work + cand, busy + dt

    def _single(self, line, budget, tally):
        e = self.engine
        state = e.parse_checkpoint(line)
        resume = e.resume_fermat if isinstance(state, e.SearchState) else e.resume_xscan
        c0 = calibrate()
        t0 = time.perf_counter()
        out = resume(state, budget)
        dt = time.perf_counter() - t0
        self.slow.append(slowdown(c0, calibrate()))
        cand = out.iterations - state.iterations
        end = self.k_true if isinstance(state, e.SearchState) else self.x_true
        tally.check(
            isinstance(out, e.BudgetExhausted)
            and out.iterations == out.resume.iterations
            and state.iterations < out.iterations < end
            and state_round_trips(out.resume, e),
            f"RSA-100 walk from {line[-20:]} ended as {out!r:.120}",
        )
        return cand, dt

    def _chunks(self, seconds, tally):
        e = self.engine
        budget = e.Budget(max_iterations=CHUNK)
        state = self.chunk_state
        busy = 0.0
        chunks = 0
        deadline = time.perf_counter() + seconds
        while True:
            c0 = calibrate()
            t0 = time.perf_counter()
            given = e.parse_checkpoint(e.checkpoint_line(state))
            out = e.resume_fermat(given, budget)
            t1 = time.perf_counter()
            self.slow.append(slowdown(c0, calibrate()))
            busy += t1 - t0
            chunks += 1
            self.resumed.append(CHUNK / (t1 - t0) * self.slow[-1] / 1e6)
            tally.check(
                given == state
                and isinstance(out, e.BudgetExhausted)
                and out.resume.k == state.k + CHUNK
                and out.iterations == out.resume.k,
                f"chunk from k={state.k} ended as {out!r:.120}",
            )
            state = out.resume if isinstance(out, e.BudgetExhausted) else state
            if time.perf_counter() >= deadline:
                break
        self.chunk_state = state
        return chunks * CHUNK, busy


class Splits:
    """Per-call latency of fermat_factor and xscan_factor on tiny moduli."""

    def __init__(self, sq, inputs):
        self.engine = sq.engine
        self.tiny = inputs.tiny
        self.expected = []  # (y outcome, x outcome) per modulus, checked in warm()
        self.pos = 0
        # scaled percentiles in us, one entry per window of calls
        self.pct = {"y50": [], "y99": [], "x50": [], "x99": []}
        self.slow = []

    def warm(self, tally):
        e = self.engine
        self.expected = []
        for n, divisor in self.tiny:
            oy, ox = e.fermat_factor(n), e.xscan_factor(n)
            tally.check(
                split_ok(oy, n, divisor, "fermat", e)
                and split_ok(ox, n, divisor, "xscan", e)
                and (oy.p, oy.q, oy.k) == (ox.p, ox.q, ox.k),
                f"split of {n}: {oy!r} / {ox!r}",
            )
            self.expected.append((oy, ox))

    def one_pass(self, tally):
        """Every modulus once, from the start; returns (splits, seconds)."""
        self.pos = 0
        return self._window(len(self.tiny), tally)

    def run(self, seconds, tally):
        work = busy = 0
        deadline = time.perf_counter() + seconds
        while True:
            w, b = self._window(SPLIT_WINDOW, tally)
            work += w
            busy += b
            if time.perf_counter() >= deadline:
                return work, busy

    def _window(self, count, tally):
        fermat, xscan = self.engine.fermat_factor, self.engine.xscan_factor
        clock = time.perf_counter_ns
        tiny, expected = self.tiny, self.expected
        ylat, xlat = [], []
        c0 = calibrate()
        for _ in range(count):
            i = self.pos
            self.pos = (i + 1) % len(tiny)
            n = tiny[i][0]
            t0 = clock()
            oy = fermat(n)
            t1 = clock()
            ox = xscan(n)
            t2 = clock()
            ylat.append(t1 - t0)
            xlat.append(t2 - t1)
            if (oy, ox) != expected[i]:
                tally.fail(f"split of {n} changed: {oy!r} / {ox!r}")
        slow = slowdown(c0, calibrate())
        self.slow.append(slow)
        for axis, lat in (("y", ylat), ("x", xlat)):
            for q in (50, 99):
                self.pct[f"{axis}{q}"].append(percentile(lat, q) / slow / 1e3)
        tally.attempted += count
        return count, (sum(ylat) + sum(xlat)) / 1e9


class Ladder:
    """64-bit y-walk gap ladders with a JSONL sink, then the scaling summary."""

    def __init__(self, sq, inputs):
        self.bench = sq.bench
        self.seeds = inputs.study_seeds
        self.expected = {}  # study seed -> iteration column, checked in warm()
        self.pos = 0
        self.study_s = []  # scaled seconds per study (run_study + scaling_summary)
        self.slow = []

    def warm(self, tally):
        self.expected = {}
        self.one_pass(tally)
        self.study_s.clear()
        self.slow.clear()

    def one_pass(self, tally):
        self.pos = 0
        work = busy = 0.0
        for _ in self.seeds:
            w, b = self._study(tally)
            work += w
            busy += b
        return work, busy

    def run(self, seconds, tally):
        work = busy = 0.0
        deadline = time.perf_counter() + seconds
        while True:
            w, b = self._study(tally)
            work += w
            busy += b
            if time.perf_counter() >= deadline:
                break
        return work, busy

    def _study(self, tally):
        b = self.bench
        seed = self.seeds[self.pos]
        self.pos = (self.pos + 1) % len(self.seeds)
        sink = io.StringIO()
        c0 = calibrate()
        t0 = time.perf_counter()
        records = b.run_study(
            LADDER_BITS, LADDER_GAPS, seed, methods=("fermat",), workers=1, sink=sink
        )
        summary = b.scaling_summary(records)
        dt = time.perf_counter() - t0
        self.slow.append(slowdown(c0, calibrate()))
        self.study_s.append(dt / self.slow[-1])
        iterations = [r.iterations for r in records]
        known = self.expected.setdefault(seed, iterations)
        tally.check(
            len(records) == len(LADDER_GAPS)
            and all(
                r.outcome == "found" and r.iterations == r.predicted_iterations
                for r in records
            )
            and [b.record_from_json(line) for line in sink.getvalue().splitlines()]
            == records
            and len(summary.rows) == len(LADDER_GAPS)
            and iterations == known,
            f"ladder {seed}: {records!r:.200}",
        )
        return len(records), dt


class Cli:
    """Fresh ``python -m sqfactor`` processes, one per output branch."""

    def __init__(self, sq, inputs, scratch: Path):
        self.root = sq.root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(sq.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["PYTHONIOENCODING"] = "utf-8"  # the factor lines print "×"
        self.inputs = inputs
        self.scratch = scratch
        self.commands = []  # (argv after -m sqfactor, expected stdout, exit code)
        self.pos = 0
        self.lat = []  # scaled seconds per process
        self.slow = []

    def warm(self, engine, tally):
        """Derive each command's expected stdout and exit code from checked
        in-process results, write the resume file, and run one process."""
        inp = self.inputs
        e = engine

        def found(n, divisor, method):
            run = e.fermat_factor if method == "fermat" else e.xscan_factor
            out = run(n)
            tally.check(split_ok(out, n, divisor, method, e), f"split of {n}: {out!r}")
            return out

        def text(out):
            return f"p={out.p} q={out.q} k={out.k} iterations={out.iterations}\n"

        n = inp.cli_split
        divisor = dict(inp.tiny)[n]
        y, x = found(n, divisor, "fermat"), found(n, divisor, "xscan")
        as_json = {
            "n": str(n), "twos": 0, "method": "fermat", "outcome": "found",
            "p": str(y.p), "q": str(y.q), "k": y.k, "iterations": y.iterations,
            "factors": [str(y.p), str(y.q)],
        }
        even = inp.cli_even
        twos = (even & -even).bit_length() - 1
        odd = found(even >> twos, dict(inp.tiny)[even >> twos], "fermat")
        pow2 = inp.cli_pow2_exp
        prime = inp.cli_prime
        walk_n, walk_divisor = inp.cli_walk
        walk = found(walk_n, walk_divisor, "fermat")
        tally.check(walk.k >= 2, f"resume modulus {walk_n} splits at k={walk.k}")
        checkpoint = f"n={walk_n} y0={ceil_sqrt(walk_n)} k=1"
        self.scratch.mkdir(parents=True, exist_ok=True)
        resume_file = self.scratch / "walk.ckpt"
        resume_file.write_text(checkpoint + "\n", encoding="utf-8")
        self.commands = [
            (["factor", str(n)], text(y), 0),
            (["factor", str(n), "--json"], as_json, 0),
            (["factor", str(even)],
             " × ".join(["2"] * twos + [str(odd.p), str(odd.q)]) + "\n", 0),
            (["factor", str(1 << pow2)], " × ".join(["2"] * pow2) + "\n", 0),
            (["factor", str(prime)],
             f"no nontrivial factor (iterations={(prime + 1) // 2 - ceil_sqrt(prime)})\n", 2),
            (["factor", str(walk_n), "--max-iterations", "1"], checkpoint + "\n", 3),
            (["factor", str(walk_n), "--resume", str(resume_file)], text(walk), 0),
            (["xscan", str(n)], text(x), 0),
        ]
        self.run(1, tally)
        self.lat.clear()
        self.slow.clear()

    def run(self, count, tally):
        busy = 0.0
        for _ in range(count):
            args, want, code = self.commands[self.pos]
            self.pos = (self.pos + 1) % len(self.commands)
            c0 = calibrate()
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "sqfactor", *args],
                    cwd=self.root, env=self.env, capture_output=True, timeout=60,
                )
            except subprocess.TimeoutExpired:
                tally.check(False, f"sqfactor {' '.join(args)[:80]} timed out")
                continue
            dt = time.perf_counter() - t0
            self.slow.append(slowdown(c0, calibrate()))
            busy += dt
            self.lat.append(dt / self.slow[-1])
            out = proc.stdout.decode("utf-8", "replace")
            tally.check(
                self.matches(want, code, out, proc.returncode),
                f"sqfactor {' '.join(args)[:80]}: exit {proc.returncode}, {out[:120]!r}",
            )
        return count, busy

    @staticmethod
    def matches(want, code: int, out: str, returncode: int) -> bool:
        if isinstance(want, dict):  # --json: compare the parsed object
            try:
                out = json.loads(out)
            except ValueError:
                return False
        return out == want and returncode == code
