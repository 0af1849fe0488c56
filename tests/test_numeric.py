import hashlib
import math
import random
import re
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqfactor import numeric, semiprimes
from sqfactor.bench import run_study
from sqfactor.engine import fermat_factor, normalize_input
from sqfactor.numeric import (
    _mr_witness_passes,
    ceil_sqrt,
    int_to_str,
    is_probable_prime,
    json_int,
    str_to_int,
)
from sqfactor.semiprimes import generate_in_window


class TestCeilSqrt:
    def test_reference_values(self):
        assert ceil_sqrt(187) == 14
        assert ceil_sqrt(196) == 14
        # 77*77 = 5929 < 5959 <= 78*78 = 6084
        assert ceil_sqrt(5959) == 78

    def test_floor_ceil_relation_exhaustive(self):
        for n in range(10**5):
            f = math.isqrt(n)
            assert ceil_sqrt(n) == f + (0 if f * f == n else 1)

    @given(st.integers(min_value=0, max_value=1 << 512))
    def test_smallest_root_at_least_n(self, n):
        r = ceil_sqrt(n)
        assert r * r >= n
        if r:
            assert (r - 1) * (r - 1) < n


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


class TestIsProbablePrime:
    def test_reference_values(self):
        assert is_probable_prime(11) is True
        assert is_probable_prime(1) is False
        assert is_probable_prime(561) is False  # Carmichael: 3 * 11 * 17
        assert is_probable_prime(0) is False
        assert is_probable_prime(2) is True

    @pytest.mark.parametrize("bad", [7.0, 2.0, "7", True, None])
    def test_non_int_rejected(self, bad):
        with pytest.raises(ValueError, match="n must be an int, got "):
            is_probable_prime(bad)

    def test_even_above_the_deterministic_bound(self):
        class NoDraws:
            def randrange(self, low, high):
                raise AssertionError("an even n needs no witness")

        for n in (2**82, 3317044064679887385961982, 2**4000 + 2):
            assert is_probable_prime(n, NoDraws()) is False

    def test_agrees_with_sieve_to_1e6(self):
        flags = _sieve(10**6)
        for n in range(10**6):
            assert is_probable_prime(n) == bool(flags[n]), n

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 512461):
            assert is_probable_prime(n) is False

    def test_large_known_primes(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne
        assert is_probable_prime(37975227936943673922808872755445627854565536638199)

    def test_large_known_composites(self):
        # square of a prime near 2^64, and a product of two close primes
        p = 18446744073709551629
        assert is_probable_prime(p)
        assert not is_probable_prime(p * p)
        assert not is_probable_prime(p * 18446744073709551653)

    def test_deterministic_region_ignores_rng(self):
        class Boom:
            def randrange(self, a, b):
                raise AssertionError("rng consulted below the deterministic bound")

        for n in (97, 561, 2**61 - 1, 10**24 + 7):
            is_probable_prime(n, rng=Boom())

    def test_witness_multiple_past_the_table_draws_then_skips_miller_rabin(self, monkeypatch):
        # the gcd screen runs past the deterministic bound too, after the
        # 24 draws, so the rng stream is the same as without it
        class Counting(random.Random):
            draws = 0

            def randrange(self, *args):
                self.draws += 1
                return super().randrange(*args)

        def no_round(*args):
            raise AssertionError("a multiple of a witness prime reached Miller-Rabin")

        monkeypatch.setattr(numeric, "_mr_witness_passes", no_round)
        for n in (3 * (2**81 + 1), 37 * 3317044064679887385961981, 41 * (2**4000 + 1)):
            rng = Counting(5)
            assert is_probable_prime(n, rng) is False
            assert rng.draws == 24, n

    def test_probabilistic_region_uses_rng_reproducibly(self):
        n = (2**300 + 157) * (2**300 + 235)  # known composite, above the bound
        assert is_probable_prime(n, rng=random.Random(5)) is False
        big_prime = 2**521 - 1  # Mersenne
        assert is_probable_prime(big_prime, rng=random.Random(5)) is True
        assert is_probable_prime(big_prime, rng=random.Random(5)) is True


class TestJunkInput:
    # the public functions refuse a non-int n, and is_probable_prime an
    # rng it would draw from, with ValueError
    @pytest.mark.parametrize(
        "func, args, wording",
        [
            pytest.param(int_to_str, (None,), "n must be an int, got None", id="int_to_str-None"),
            pytest.param(int_to_str, (True,), "n must be an int, got True", id="int_to_str-True"),
            pytest.param(json_int, ("x",), "n must be an int, got 'x'", id="json_int-str"),
            pytest.param(json_int, (2.0**60,), "n must be an int, got 1.15", id="json_int-float"),
            # math.isqrt alone would take True as 1, and raise TypeError for the rest
            pytest.param(ceil_sqrt, (True,), "n must be an int, got True", id="ceil_sqrt-True"),
            pytest.param(ceil_sqrt, (None,), "n must be an int, got None", id="ceil_sqrt-None"),
            pytest.param(ceil_sqrt, ("4",), "n must be an int, got '4'", id="ceil_sqrt-str"),
            pytest.param(is_probable_prime, (2**100 + 1, object()),
                         "rng must have a randrange method, got <object object",
                         id="is_probable_prime-rng"),
            # int() alone would take these, as 7, 1 and 187
            pytest.param(str_to_int, (7.9,), "not a decimal integer string: 7.9",
                         id="str_to_int-float"),
            pytest.param(str_to_int, (True,), "not a decimal integer string: True",
                         id="str_to_int-True"),
            pytest.param(str_to_int, (b"187",), "not a decimal integer string: b'187'",
                         id="str_to_int-bytes"),
        ],
    )
    def test_raises_value_error(self, func, args, wording):
        with pytest.raises(ValueError, match=f"^{re.escape(wording)}"):
            func(*args)

    def test_junk_whose_repr_fails_is_named_by_its_type(self):
        # repr of a list holding an int past the int/str digit limit raises
        with pytest.raises(ValueError, match=r"^modulus must be an int, got a list with no repr$"):
            fermat_factor([10**5000])

    def test_rng_is_not_checked_where_it_is_not_consulted(self):
        assert is_probable_prime(97, rng=object()) is True
        assert is_probable_prime(2**100, rng=object()) is False

    def test_negative_int_subclasses_still_convert(self):
        class Int(int):
            pass

        assert int_to_str(Int(-187)) == "-187"
        assert json_int(Int(-(2**53))) == "-9007199254740992"
        assert ceil_sqrt(Int(187)) == 14
        with pytest.raises(ValueError, match="must be nonnegative"):
            ceil_sqrt(Int(-1))

        # the range checks word the answer, as they do for the plain int
        def answer(func, n):
            try:
                return func(n)
            except ValueError as exc:
                return str(exc)

        for func in (is_probable_prime, fermat_factor, normalize_input):
            for n in (-5, 1, 2):
                assert answer(func, Int(n)) == answer(func, n), (func.__name__, n)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (n, j): an odd composite that passes the first j prime bases.  Most are
# the published smallest strong pseudoprimes to the first k prime bases
# (Jaeschke, Math. Comp. 61 (1993); Sorenson & Webster, Math. Comp. 86
# (2017)); each tier's bound is one of them and lies in the next tier up,
# so it also shows that tier needs more witnesses.  2047 = 23 * 89 falls
# to the small-prime screen, so 43**2 and 8321 = 53 * 157 are the
# composites that need the first tier's one witness and the second's two.
# 25326001 and 3215031751, the first 3 and 4 bases' bounds, are no tier's
# bound: both lie in the {2, 7, 61} tier, which must still reject them.
# That tier's bound, 4759123141 = 48781 * 97561, passes 2, 7 and 61.
_STRONG_PSEUDOPRIMES = (
    (1849, 0),
    (2047, 1),
    (8321, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (4759123141, 1),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 8),
    (3825123056546413051, 11),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def _odd_part(n):
    """(d, r) with n - 1 = d * 2**r and d odd."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return d, r


def _strong_probable_prime(n, a):
    d, r = _odd_part(n)
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _reference_is_prime(n):
    """Miller-Rabin with all 13 prime bases: exact below 3.3e24."""
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(a % n == 0 or _strong_probable_prime(n, a) for a in _PRIME_BASES)


def _next_prime(n):
    while not _reference_is_prime(n):
        n += 1
    return n


class TestWitnessTiers:
    @pytest.mark.parametrize("n, j", _STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprime_passes_its_witnesses_and_is_rejected(self, n, j):
        d, r = _odd_part(n)
        assert all(_mr_witness_passes(n, d, r, a) for a in _PRIME_BASES[:j])
        assert is_probable_prime(n) is False

    def test_the_2_7_61_tier_bound_passes_its_witnesses_and_is_rejected(self):
        n = 4759123141
        d, r = _odd_part(n)
        assert all(_mr_witness_passes(n, d, r, a) for a in (2, 7, 61))
        assert is_probable_prime(n) is False

    @given(
        st.one_of(
            st.sampled_from([n for n, _ in _STRONG_PSEUDOPRIMES]).flatmap(
                lambda bound: st.integers(bound - 10**4, bound + 10**4)
            ),
            st.integers(-10, 1 << 82),
        )
    )
    @settings(max_examples=500)
    def test_agrees_with_all_thirteen_witnesses_around_every_bound(self, n):
        assume(n < 3317044064679887385961981)
        assert is_probable_prime(n) == _reference_is_prime(n)

    @given(st.integers(2, 1 << 40), st.integers(2, 1 << 40))
    @settings(max_examples=200)
    def test_agrees_on_products_of_two_primes(self, a, b):
        p, q = _next_prime(a), _next_prime(b)
        assert is_probable_prime(p) is True
        assert is_probable_prime(p * q) is False

    def test_ladder_candidate_stream_is_pinned(self, monkeypatch):
        # every n a 64-bit ladder study hands the prime test, in order: a
        # change of witnesses must not change which candidates are tested
        seen = []

        def recording(n, rng=None):
            seen.append(n)
            return is_probable_prime(n, rng=rng)

        monkeypatch.setattr(semiprimes, "is_probable_prime", recording)
        run_study(64, (2**23, 2**24, 2**25), seed=81, methods=("fermat",))
        digest = hashlib.sha256(",".join(map(str, seen)).encode()).hexdigest()
        assert (len(seen), digest) == (
            31, "4aa0a734c49d4404d94efe209d391dd7fe1da5ce9fe040757c236c3002ea29a1"
        )

    @pytest.mark.parametrize(
        "bits, gap_lo, gap_hi, seed, p, q",
        [
            # p is above the deterministic bound, so the rng's witness draws
            # decide which candidates are tested and in what state the
            # generator reaches q
            (200, 1, 2**40, 7,
             1264009797864631314791059820281, 1264009797864631314791059820359),
            (512, 2**20 + 1, 2**24, 11,
             58430312932361274672857927105476687268343933150895435941350456854433446768817,
             58430312932361274672857927105476687268343933150895435941350456854433447817503),
            # RSA size, where the witness draws run ahead of the gcd screen
            (1024, 2**262 + 1, 2**263, 3,
             int("11915766068366929723989687024256728733759889966382056419289008457597511737627"
                 "344261959432847052047399592175908514463643620833329808767568402390499031355377"),
             int("11915766068366929723989687024256728733759889966382056419289008457597511737634"
                 "754955670621083559155942632731934617072922639434325907292853778896939328311543")),
        ],
    )
    def test_generated_semiprimes_above_the_bound_are_pinned(
        self, bits, gap_lo, gap_hi, seed, p, q
    ):
        sp = generate_in_window(bits, gap_lo, gap_hi, seed)
        assert (sp.p, sp.q) == (p, q)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before 3.11"
)
class TestDecimalTextAroundTheDigitLimit:
    def test_both_sides_of_a_lowered_limit(self):
        limit = 640  # the smallest limit CPython accepts
        cases = [(n, str(n)) for n in (10**limit - 1, -(10**limit + 12345))]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(ValueError):
                str(cases[1][0])  # so the wide side takes the fallback
            for n, text in cases:
                assert int_to_str(n) == text
                assert str_to_int(text) == n
                assert str_to_int(f" {text}_0 ") == n * 10
            for bad in ("1" * limit + ".5", "1" * (limit + 1) + "__2", "1" * (limit + 1) + "x"):
                with pytest.raises(ValueError, match="^not a decimal integer: .{0,60}$"):
                    str_to_int(bad)
        finally:
            sys.set_int_max_str_digits(saved)
