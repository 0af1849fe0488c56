"""Acceptance gate: one test per shipping criterion.

Each test is independent and self-contained; together they pin the
behaviors this package promises: exact reference splits, an exhaustive
million-modulus sweep against a sieve oracle, iteration-count
identities, budget/resume fidelity on a hard modulus, agreement of the
two scan methods, the analytic iteration curve, soundness of the
walk's square screens, and bit-for-bit reproducibility.

The sweep in criterion 2 visits every odd composite below one million
and takes about 10 s on a 2-core box (CPython 3.11.7); everything else
finishes in seconds.
"""

import dataclasses
import math
import random
import time
from array import array

from sqfactor.bench import (
    analytic_iterations,
    load_rsa100,
    measure,
    run_study,
    scaling_summary,
)
from sqfactor.cli import main
from sqfactor.engine import (
    _SCREENS,
    _SIEVE,
    _T,
    Budget,
    BudgetExhausted,
    Found,
    SearchState,
    _mask,
    _scan,
    _step_table,
    fermat_factor,
    predict_k,
    resume_fermat,
    xscan_factor,
)
from sqfactor.numeric import ceil_sqrt
from sqfactor.semiprimes import SemiprimeSpec, generate

# Frozen totals and tolerances for the checks below.  Loosening any of
# these is a behavior change, not a test fix.
_SWEEP_LIMIT = 10**6
_SWEEP_TOTAL_ITERATIONS = 4_914_567_360
_GOLDEN_WARM_NS = 1_000_000  # one warm reference split stays under 1 ms
_HARD_BUDGET = 10_000_000
_HARD_RESUME_EXTRA = 1_000_000
_HARD_WALL_SECONDS = 300.0
_LADDER_SECONDS = 60.0
_RATIO_BAND = (0.5, 2.0)
_QUANTIZED_ABS_TOL = 1.0  # when the curve predicts < 2, counts sit on 0 or 1


def test_criterion_1_golden_reference_split(capsys):
    """The 187 = 11 x 17 split is exact, instant, and stable end to end."""
    assert fermat_factor(187, Budget(max_iterations=0)).resume == SearchState(n=187, y0=14, k=0)
    assert fermat_factor(187) == Found(p=11, q=17, k=0, iterations=0)
    assert xscan_factor(187) == Found(p=11, q=17, k=0, iterations=3)
    assert predict_k(187, 3) == 0

    code = main(["factor", "187"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "p=11 q=17 k=0 iterations=0\n"

    fermat_factor(187)  # warm caches before timing
    best = min(
        _timed_ns(fermat_factor, 187)
        for _ in range(50)
    )
    assert best < _GOLDEN_WARM_NS, f"warm split took {best} ns"


def _timed_ns(fn, *args):
    t0 = time.perf_counter_ns()
    fn(*args)
    return time.perf_counter_ns() - t0


def _smallest_prime_factor_sieve(limit):
    spf = array("I", range(limit))
    for p in range(3, math.isqrt(limit - 1) + 1, 2):
        if spf[p] == p:
            for m in range(p * p, limit, 2 * p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _divisors(n, spf):
    divs = [1]
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return divs


def test_criterion_2_exhaustive_sweep_below_one_million():
    """Every odd composite below 10**6 splits into its balanced divisor
    pair with the exact predicted candidate count."""
    spf = _smallest_prime_factor_sieve(_SWEEP_LIMIT)
    total = 0
    checked = 0
    for n in range(9, _SWEEP_LIMIT, 2):
        if spf[n] == n:
            continue  # prime
        out = fermat_factor(n)
        root = math.isqrt(n)
        expect_p = max(d for d in _divisors(n, spf) if d * d <= n)
        assert out.p == expect_p, f"n={n}: got p={out.p}, oracle says {expect_p}"
        assert out.p * out.q == n
        y0 = root + (1 if root * root < n else 0)
        assert out.iterations == (out.p + out.q) // 2 - y0, f"n={n}"
        assert out.k == out.iterations
        total += out.iterations
        checked += 1
    assert checked == 421_502
    assert total == _SWEEP_TOTAL_ITERATIONS


def test_criterion_3_generated_semiprimes_iteration_identity():
    """For 1000 generated 64-bit semiprimes the search returns the true
    prime pair after exactly (p+q)/2 - ceil(sqrt(n)) candidates."""
    for seed in range(1000):
        sp = generate(SemiprimeSpec(bits=64, max_gap=1 << 20, seed=seed))
        out = fermat_factor(sp.n)
        assert isinstance(out, Found), f"seed={seed}"
        assert (out.p, out.q) == (sp.p, sp.q), f"seed={seed}"
        assert out.iterations == (sp.p + sp.q) // 2 - ceil_sqrt(sp.n), f"seed={seed}"


def test_criterion_4_both_methods_agree_exhaustively():
    """The center walk and the half-gap scan split every odd composite
    below 10**5 into the same (p, q)."""
    limit = 10**5
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    for n in range(9, limit, 2):
        if flags[n]:
            continue
        a = fermat_factor(n)
        b = xscan_factor(n)
        assert isinstance(a, Found) and isinstance(b, Found), f"n={n}"
        assert (a.p, a.q) == (b.p, b.q), f"n={n}"
        assert a.k == b.k, f"n={n}"


def test_criterion_5_hard_modulus_budget_and_resume():
    """A 100-digit hard modulus honors a 10**7 candidate budget within
    generous wall time, and resuming continues the walk bit for bit."""
    n = load_rsa100()
    t0 = time.perf_counter()
    first = fermat_factor(n, Budget(max_iterations=_HARD_BUDGET))
    wall = time.perf_counter() - t0
    assert wall < _HARD_WALL_SECONDS, f"budgeted run took {wall:.1f} s"
    assert isinstance(first, BudgetExhausted)
    assert first.iterations == _HARD_BUDGET
    assert first.resume.k == _HARD_BUDGET

    second = resume_fermat(first.resume, Budget(max_iterations=_HARD_RESUME_EXTRA))
    assert isinstance(second, BudgetExhausted)
    assert second.iterations == _HARD_BUDGET + _HARD_RESUME_EXTRA

    fresh = fermat_factor(n, Budget(max_iterations=_HARD_BUDGET + _HARD_RESUME_EXTRA))
    assert isinstance(fresh, BudgetExhausted)
    assert fresh.resume == second.resume


def test_criterion_6_iteration_counts_follow_analytic_curve():
    """Measured candidate counts track gap**2 / (8 sqrt(n)): within one
    count in the quantized regime, within a factor of two above it."""
    t0 = time.perf_counter()
    standard = run_study(
        bits=64, gaps=[16, 256, 4096, 65536], seed=2026, methods=("fermat",)
    )
    assert [r.outcome for r in standard] == ["found"] * 4
    counts = [r.iterations for r in standard]
    assert counts == sorted(counts)  # nondecreasing along the ladder
    for r in standard:
        a = analytic_iterations(r.gap, r.n_bits)
        assert a < 2 and abs(r.iterations - a) <= _QUANTIZED_ABS_TOL

    wide_gaps = [
        1 << 20, (1 << 20) + (1 << 16),
        1 << 22, (1 << 22) + (1 << 16),
        1 << 24, (1 << 24) + (1 << 16),
    ]
    wide = run_study(bits=64, gaps=wide_gaps, seed=2026, methods=("fermat",))
    table = scaling_summary(wide)
    assert len(table.rows) == 6
    lo, hi = _RATIO_BAND
    for row in table.rows:
        if row.analytic_iterations < 2:
            assert abs(row.median_iterations - row.analytic_iterations) <= _QUANTIZED_ABS_TOL
        else:
            assert lo <= row.ratio <= hi, f"gap={row.gap}: ratio {row.ratio:.3f}"
    wall = time.perf_counter() - t0
    assert wall < _LADDER_SECONDS, f"ladder study took {wall:.1f} s"


def _reference_scan(a, c, i, end):
    # the first (u, r) with u = a + j, i <= j < end, and u*u + c == r*r, by
    # an exact square root of every candidate
    for u in range(a + i, a + end):
        t = u * u + c
        r = math.isqrt(t)
        if r * r == t:
            return u, r
    return None


def test_criterion_7_square_detection_is_sound():
    """The walk's residue screens never reject a square, checked over
    every residue class of every screen modulus, and on wide operands
    the kernel agrees with the integer square root."""
    # the sieve: bit u of the mask for c is set wherever u*u + c is r*r mod m
    for m in _SIEVE:
        period = (1 << m) - 1
        # unwrapped, so that the even c of m = 704, which no walk has, stay out of the cache
        masks = [_mask.__wrapped__(m, c) & period for c in range(m)]
        for u in range(m):
            for r in range(m):
                assert masks[(r * r - u * u) % m] >> u & 1, (m, u, r)
    # the step table: for every odd c it stops at every u (its step from u - 1
    # is 1) for which u*u + c can be a square mod 64 and mod 11
    squares_64 = {v * v % 64 for v in range(64)}
    squares_11 = {v * v % 11 for v in range(11)}
    for c in range(1, 704, 2):
        steps = _step_table(c)
        for u in range(704):
            t = u * u + c
            if t % 64 in squares_64 and t % 11 in squares_11:
                assert steps[u - 1] == 1, (c, u)
    # stage 1's screens past the step table
    for m, table in zip((63, 65), _SCREENS):
        assert all(table[v * v % m] for v in range(m)), m

    rng = random.Random(2026)
    # 1000 windows of 128 candidates on 256-bit moduli, both walks, starting
    # in stage 1 (so crossing into stage 2) or deep in stage 2
    for _ in range(1000):
        n = rng.getrandbits(256) | 1
        a, c = (ceil_sqrt(n), -n) if rng.getrandbits(1) else (0, n)
        i = rng.randrange(3 * _T) if rng.getrandbits(1) else rng.randrange(1 << 40)
        assert _scan(a, c, i, i + 128) == _reference_scan(a, c, i, i + 128), (n, i)
    # planted squares of 128-bit roots: u*u + c == r*r at walk index j
    for _ in range(2_000):
        x, y = sorted(rng.getrandbits(128) for _ in range(2))
        y += 1 - (y - x) % 2  # opposite parity makes n odd
        n = y * y - x * x
        if rng.getrandbits(1):
            a, c, j = 0, n, x  # the x-walk hits u = x with root y
        else:
            a, c = ceil_sqrt(n), -n
            j = y - a  # the y-walk hits u = y with root x
        i, end = max(0, j - rng.randrange(64)), j + 1 + rng.randrange(64)
        found = _scan(a, c, i, end)
        assert found == _reference_scan(a, c, i, end), (n, j)
        assert found is not None and found[0] <= a + j, (n, j)


def test_criterion_8_reproducibility_bit_for_bit():
    """Same seeds, same outputs: generation and studies reproduce every
    field except wall time."""
    first = [generate(SemiprimeSpec(bits=48, max_gap=1 << 16, seed=s)) for s in range(50)]
    second = [generate(SemiprimeSpec(bits=48, max_gap=1 << 16, seed=s)) for s in range(50)]
    assert first == second

    kwargs = dict(bits=40, gaps=[16, 1024], seed=11)
    strip = lambda r: dataclasses.replace(r, elapsed_ns=0)
    a = [strip(r) for r in run_study(**kwargs)]
    b = [strip(r) for r in run_study(**kwargs)]
    assert a == b
    assert {r.method for r in a} == {"fermat", "xscan"}

    one = measure(5959, factors=(59, 101), seed=3)
    two = measure(5959, factors=(59, 101), seed=3)
    assert strip(one) == strip(two)
