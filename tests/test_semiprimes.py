import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfactor import semiprimes
from sqfactor.bench import run_study
from sqfactor.engine import Found, fermat_factor
from sqfactor.numeric import ceil_sqrt, is_probable_prime
from sqfactor.semiprimes import (
    FeasibilityError,
    GeneratedSemiprime,
    SemiprimeSpec,
    SplitMix64,
    generate,
    generate_in_window,
    ladder_windows,
    rung_seeds,
)


def _draws_without_the_size_rule(bits, gap_lo, gap_hi, seed):
    # generate_in_window's restart loop, for gap_lo >= 1, with no rule on
    # n's size: the (p, q) it draws, or None once MAX_ATTEMPTS restarts
    # have failed
    rng = SplitMix64(seed)
    half = (bits + 1) // 2
    first_prime = semiprimes._first_prime
    for _ in range(semiprimes.MAX_ATTEMPTS):
        start = 1 << (half - 1) | rng.bits(half - 1) | 1
        p = first_prime(start, start + 2 * semiprimes._WALK_LIMIT - 1, rng)
        q = p and first_prime(p + gap_lo, p + gap_hi, rng)
        if q and abs((p * q).bit_length() - bits) <= 1:
            return p, q
    return None


def _is_prime_by_trial_division(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class TestSplitMix64:
    def test_published_seed_zero_stream(self):
        rng = SplitMix64(0)
        assert rng.next_word() == 0xE220A8397B1DCDAF
        assert rng.next_word() == 0x6E789E6AA1B965F4
        assert rng.next_word() == 0x06C45D188009454F

    def test_words_stay_in_64_bits(self):
        rng = SplitMix64(0xFFFFFFFFFFFFFFFF)
        for _ in range(1000):
            assert 0 <= rng.next_word() < 1 << 64

    def test_bits_packs_words_low_first(self):
        assert SplitMix64(0).bits(8) == 0xAF
        assert SplitMix64(0).bits(64) == 0xE220A8397B1DCDAF
        wide = SplitMix64(0).bits(128)
        assert wide == (0x6E789E6AA1B965F4 << 64) | 0xE220A8397B1DCDAF

    def test_bits_zero_is_empty(self):
        assert SplitMix64(7).bits(0) == 0

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=50)
    def test_randrange_stays_in_range(self, seed):
        rng = SplitMix64(seed)
        for low, high in ((0, 1), (0, 2), (5, 100), (1 << 60, (1 << 60) + 3)):
            v = rng.randrange(low, high)
            assert low <= v < high

    @pytest.mark.parametrize("low, high", [(5, 5), (5, 3), (0, 0), (0, -1)])
    def test_randrange_empty_range_rejected(self, low, high):
        with pytest.raises(ValueError, match="empty range"):
            SplitMix64(3).randrange(low, high)

    def test_randrange_deterministic(self):
        a = [SplitMix64(42).randrange(0, 10**9) for _ in range(1)]
        b = [SplitMix64(42).randrange(0, 10**9) for _ in range(1)]
        assert a == b

    def test_streams_differ_across_seeds(self):
        words = {SplitMix64(s).next_word() for s in range(64)}
        assert len(words) == 64

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            SplitMix64(seed)

    def test_non_int_bit_count_rejected(self):
        with pytest.raises(ValueError, match="count must be an int, got 2.5"):
            SplitMix64(3).bits(2.5)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bits=3, max_gap=4, seed=0),
            dict(bits=16, max_gap=-1, seed=0),
            dict(bits=16, max_gap=4, seed=-1),
            dict(bits=16, max_gap=4, seed=1 << 64),
            dict(bits=64.5, max_gap=4, seed=0),
            dict(bits="64", max_gap=4, seed=0),
            dict(bits=16, max_gap=8.5, seed=0),
            dict(bits=64, max_gap=4, seed=1.5),
            dict(bits=64, max_gap=4, seed=True),
        ],
    )
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(ValueError):
            SemiprimeSpec(**kwargs)


class TestGenerate:
    def test_invariants_across_sizes(self):
        for bits in (8, 16, 24, 32, 48, 64):
            for seed in (0, 1, 2):
                spec = SemiprimeSpec(bits=bits, max_gap=1 << 8, seed=seed)
                sp = generate(spec)
                assert sp.p <= sp.q
                assert sp.p * sp.q == sp.n
                assert sp.gap == sp.q - sp.p
                assert 1 <= sp.gap <= spec.max_gap
                assert abs(sp.n.bit_length() - bits) <= 1
                assert (sp.bits, sp.seed) == (bits, seed)

    def test_factors_are_prime(self):
        for seed in range(10):
            sp = generate(SemiprimeSpec(bits=40, max_gap=1 << 10, seed=seed))
            assert _is_prime_by_trial_division(sp.p)
            assert _is_prime_by_trial_division(sp.q)

    def test_deterministic_per_spec(self):
        specs = [
            SemiprimeSpec(bits=b, max_gap=g, seed=s)
            for b in (12, 20, 33)
            for g in (1 << 4, 1 << 10)
            for s in (0, 9, 77)
        ]
        assert len(specs) >= 10
        for spec in specs:
            assert generate(spec) == generate(spec)

    def test_seed_changes_output(self):
        ns = {generate(SemiprimeSpec(bits=48, max_gap=1 << 12, seed=s)).n for s in range(20)}
        assert len(ns) == 20

    def test_zero_gap_means_prime_square(self):
        sp = generate(SemiprimeSpec(bits=32, max_gap=0, seed=5))
        assert sp.p == sp.q
        assert sp.gap == 0
        assert sp.n == sp.p * sp.p
        assert _is_prime_by_trial_division(sp.p)

    def test_narrow_request_small_modulus(self):
        sp = generate(SemiprimeSpec(bits=8, max_gap=4, seed=0))
        assert 1 <= sp.gap <= 4
        assert abs(sp.n.bit_length() - 8) <= 1
        assert _is_prime_by_trial_division(sp.p)
        assert _is_prime_by_trial_division(sp.q)

    def test_search_recovers_generated_pair(self):
        for seed in range(20):
            sp = generate(SemiprimeSpec(bits=48, max_gap=1 << 16, seed=seed))
            out = fermat_factor(sp.n)
            assert isinstance(out, Found)
            assert (out.p, out.q) == (sp.p, sp.q)
            assert out.iterations == (sp.p + sp.q) // 2 - ceil_sqrt(sp.n)

    def test_json_round_trip(self):
        sp = generate(SemiprimeSpec(bits=64, max_gap=1 << 16, seed=123))
        doc = sp.as_json_dict()
        assert set(doc) == {"p", "q", "n", "gap", "bits", "seed"}
        assert all(isinstance(v, str) for v in doc.values())
        assert GeneratedSemiprime(**{name: int(v) for name, v in doc.items()}) == sp


class TestGenerateInWindow:
    def test_window_is_respected(self):
        sp = generate_in_window(32, 1 << 4, 1 << 8, seed=3)
        assert 1 << 4 <= sp.gap <= 1 << 8

    def test_empty_window_is_infeasible(self):
        # an odd prime plus an odd offset is even, so these windows can
        # never contain a prime and every attempt fails
        for lo_hi in ((1, 1), (3, 3)):
            with pytest.raises(FeasibilityError):
                generate_in_window(16, *lo_hi, seed=0)

    def test_parity_is_decided_before_any_primality_test(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("is_probable_prime was called")

        monkeypatch.setattr(semiprimes, "is_probable_prime", never)
        with pytest.raises(FeasibilityError, match=r"\[1, 1\].*q - p > 0 is even"):
            generate_in_window(16, 1, 1, seed=0)

    @pytest.mark.parametrize(
        "bits, gap_lo, gap_hi, wording",
        [
            (64, 2**40, 2**41, r"\[1099511627776, 2199023255552\]: with p > 2\^31, .* 65 bits"),
            (1024, 2**520, 2**521, r"\[a 521-bit integer, .*: with p > 2\^511, .* 1025 bits"),
            # only p = 2^(half - 1), which is even, would fit these
            (12, 222, 224, r"\[222, 224\]: with p > 2\^5, .* 13 bits"),
            (64, 2**34 - 2**31 - 2, 2**34 - 2**31, r"\[15032385534, 15032385536\]: .* 65 bits"),
        ],
    )
    def test_size_is_decided_before_any_primality_test(
        self, monkeypatch, bits, gap_lo, gap_hi, wording
    ):
        # every p is odd and above 2^(half - 1) and q - p is at least the
        # smallest even gap in the window, so every n here is over bits + 1
        # bits
        def never(*args, **kwargs):
            raise AssertionError("is_probable_prime was called")

        monkeypatch.setattr(semiprimes, "is_probable_prime", never)
        with pytest.raises(FeasibilityError, match=wording):
            generate_in_window(bits, gap_lo, gap_hi, seed=1)

    def test_size_rule_is_exact_at_the_smallest_prime_p(self, monkeypatch):
        # p0, the first prime above 2^(half - 1): the widest even gap g with
        # p0 * (p0 + g) in bits + 1 bits passes the rule, and g + 2 does not;
        # with no attempts allowed, passing it ends in "none found"
        monkeypatch.setattr(semiprimes, "MAX_ATTEMPTS", 0)
        witness_rng = random.Random(0)
        for bits in range(4, 300):
            p0 = (1 << (bits - 1) // 2) + 1
            while not is_probable_prime(p0, rng=witness_rng):
                p0 += 2
            widest = ((1 << bits + 1) - 1) // p0 - p0
            widest -= widest % 2
            with pytest.raises(FeasibilityError, match="none found in 0 attempts$"):
                generate_in_window(bits, widest, widest, 0)
            with pytest.raises(FeasibilityError, match=f"is over {bits + 1} bits$"):
                generate_in_window(bits, widest + 2, widest + 2, 0)
        # 33 * (33 + 214) fits in 13 bits, but 33 is not prime and p = 37
        # makes n 14 bits: refused at once, not after MAX_ATTEMPTS restarts
        with pytest.raises(FeasibilityError, match="is over 13 bits$"):
            generate_in_window(12, 214, 216, 0)

    @given(
        bits=st.integers(min_value=8, max_value=80),
        back=st.integers(min_value=-4, max_value=16),
        shift=st.integers(min_value=-8, max_value=8),
        width=st.integers(min_value=0, max_value=64),
        seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_windows_near_the_size_bound_keep_their_results(self, bits, back, shift, width, seed):
        # the size rule only refuses windows no draw can fill: near its
        # bound, a request gives the semiprime that the restart loop with no
        # rule draws, and is refused only where that loop finds none
        least = (1 << (bits - 1) // 2) + 1  # the smallest p
        widest = ((1 << bits + 1) - 1) // least - least  # the largest gap that fits bits + 1
        gap_lo = max(1, widest - widest * back // 16 + shift)
        with mock.patch.object(semiprimes, "MAX_ATTEMPTS", 20):
            want = _draws_without_the_size_rule(bits, gap_lo, gap_lo + width, seed)
            try:
                got = generate_in_window(bits, gap_lo, gap_lo + width, seed)
            except FeasibilityError:
                got = None
        assert (got and (got.p, got.q)) == want

    def test_non_int_bits_rejected(self):
        with pytest.raises(ValueError, match="bits must be an int, got 64.0"):
            generate_in_window(64.0, 0, 16, 1)


class TestLadder:
    def test_window_partition(self):
        assert ladder_windows([16, 256, 4096]) == [(1, 16), (17, 256), (257, 4096)]
        assert ladder_windows([0, 16]) == [(0, 0), (1, 16)]
        assert ladder_windows([5]) == [(1, 5)]

    @pytest.mark.parametrize(
        "gaps", [[], [16, 16], [256, 16], [-1], [0, 0], [1.5, 4], [True, 4], ["4"], 5]
    )
    def test_bad_ladders_rejected(self, gaps):
        with pytest.raises(ValueError):
            ladder_windows(gaps)

    def test_rung_seeds_are_master_stream_words(self):
        master = SplitMix64(99)
        expect = [master.next_word() for _ in range(4)]
        assert rung_seeds(99, 4) == expect


class TestGoldenValues:
    """(p, q) pinned at the release that unified the upward prime searches:
    the candidates, their order and the random draws must not move."""

    @pytest.mark.parametrize(
        "spec, pair",
        [
            (SemiprimeSpec(bits=8, max_gap=4, seed=0), (17, 19)),
            (SemiprimeSpec(bits=24, max_gap=256, seed=1), (3271, 3299)),
            (SemiprimeSpec(bits=32, max_gap=0, seed=5), (50021, 50021)),
            (SemiprimeSpec(bits=48, max_gap=1 << 16, seed=7), (11668967, 11668997)),
            (SemiprimeSpec(bits=64, max_gap=1 << 16, seed=123), (3806216521, 3806216527)),
            (
                SemiprimeSpec(bits=128, max_gap=1 << 20, seed=2026),
                (15824617304438902103, 15824617304438902243),
            ),
        ],
    )
    def test_generate(self, spec, pair):
        sp = generate(spec)
        assert (sp.p, sp.q) == pair

    def test_gap_ladder(self):
        # the rung loop of bench.run_study: one generate_in_window per window
        gaps = [16, 256, 4096]
        seeds = rung_seeds(7, len(gaps))
        rungs = [
            generate_in_window(48, lo, hi, seed)
            for seed, (lo, hi) in zip(seeds, ladder_windows(gaps))
        ]
        assert [(r.p, r.q) for r in rungs] == [
            (11259473, 11259481),
            (9559271, 9559289),
            (9942029, 9942299),
        ]
        records = run_study(48, gaps, seed=7, methods=("fermat",))
        assert [(r.gap, r.seed) for r in records] == [(r.gap, r.seed) for r in rungs]
