"""Deterministic semiprime generation with controlled bit size and gap.

Reproducibility is the whole point of this module: given the same
(bits, max_gap, seed) request, every platform and every run must emit
the demand-identical semiprime.  All randomness therefore comes from an
explicit, fully specified 64-bit generator rather than any platform
facility, and the primality test is handed that same generator so even
its witness choices (only consulted above the deterministic range) are
reproducible.

The generator is the splitmix construction: a 64-bit counter advanced
by the constant 0x9E3779B97F4A7C15, whose output is the counter value
scrambled by two xor-shift-multiply rounds with multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB and shifts 30, 27, 31.

Generation strategy: draw a random odd starting point with bits/2
(rounded up) bits, walk upward to the next probable prime p, then scan
for a prime q with q - p inside the requested gap window.  A window
that no pair can fill raises FeasibilityError before any draw: one
with no even gap (p and q are odd), and one whose smallest even gap
makes n wider than bits + 1 bits even at the smallest p a draw can
give, the first prime above 2^(half - 1).  A failed window scan
restarts with fresh randomness, and MAX_ATTEMPTS restarts bound the
rest.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

from .numeric import int_to_str, is_probable_prime, require_int, shown

_MASK64 = (1 << 64) - 1

MAX_ATTEMPTS = 100_000

# give up on a single upward prime walk after this many odd candidates;
# real prime gaps at benchmark sizes are orders of magnitude smaller
_WALK_LIMIT = 10_000


def _require_seed(seed) -> int:  # the one seed rule: an int, not a bool, in [0, 2**64)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    return seed


class SplitMix64:
    """The splitmix 64-bit PRNG; deterministic across platforms."""

    GOLDEN_GAMMA = 0x9E3779B97F4A7C15
    MIX_MULT_1 = 0xBF58476D1CE4E5B9
    MIX_MULT_2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self._state = _require_seed(seed)

    def next_word(self) -> int:
        self._state = (self._state + self.GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * self.MIX_MULT_1) & _MASK64
        z = ((z ^ (z >> 27)) * self.MIX_MULT_2) & _MASK64
        return z ^ (z >> 31)

    def bits(self, count: int) -> int:
        """count random bits, little-endian word order."""
        require_int("count", count)
        out = 0
        filled = 0
        while filled < count:
            out |= self.next_word() << filled
            filled += 64
        return out & ((1 << count) - 1)

    def randrange(self, low: int, high: int) -> int:
        """Uniform integer in [low, high); rejection keeps it unbiased."""
        if high <= low:
            raise ValueError("empty range")
        span = high - low
        nbits = span.bit_length()
        while True:
            draw = self.bits(nbits)
            if draw < span:
                return low + draw


class FeasibilityError(ValueError):
    """The gap window holds no even gap that fits the size, or no
    qualifying prime pair was found within MAX_ATTEMPTS restarts."""


@dataclass(frozen=True)
class SemiprimeSpec:
    bits: int
    max_gap: int
    seed: int

    def __post_init__(self):
        require_int("bits", self.bits, 4)
        require_int("max_gap", self.max_gap)
        _require_seed(self.seed)


@dataclass(frozen=True)
class GeneratedSemiprime:
    p: int
    q: int
    n: int
    gap: int
    bits: int  # requested size; n's true length is within 1 of it
    seed: int

    def as_json_dict(self) -> dict:
        # decimal strings throughout so arbitrary-width values survive
        # consumers that parse JSON numbers as doubles
        return {f.name: int_to_str(getattr(self, f.name)) for f in fields(self)}


def _first_prime(lo: int, hi: int, rng: SplitMix64) -> int | None:
    """First probable prime among the odd t in [lo, hi], tested in ascending order."""
    for t in range(lo | 1, hi + 1, 2):
        if is_probable_prime(t, rng=rng):
            return t
    return None


def generate_in_window(bits: int, gap_lo: int, gap_hi: int, seed: int) -> GeneratedSemiprime:
    """Semiprime of roughly `bits` bits whose gap q - p lies in [gap_lo, gap_hi].

    gap_lo = gap_hi = 0 requests p = q (a squared prime).  Deterministic
    per seed.  Raises FeasibilityError at once when the window holds no
    even gap above 0 that fits the size, and when MAX_ATTEMPTS restart
    rounds cannot satisfy the request.
    """
    require_int("bits", bits, 4)
    require_int("gap_hi", gap_hi, require_int("gap_lo", gap_lo))
    rng = SplitMix64(seed)
    lowest = max(gap_lo, 1)
    gap = 0 if gap_hi == 0 else lowest + lowest % 2  # the smallest even gap in the window
    half = (bits + 1) // 2
    least = 1 << (half - 1) | 1  # the smallest odd p: every start is least | ...
    smallest = least  # the p at which the size rule is decided
    if gap <= gap_hi and (least * (least + gap)).bit_length() == bits + 1:
        # n only just fits at least, which need not be prime: decide at the
        # first prime instead, tested with a generator of its own so that the
        # request's draws stay as they are (Bertrand: it is at most 2 * least)
        smallest = _first_prime(least, 2 * least, SplitMix64(0))
    if gap > gap_hi:
        reason = (
            "p and q are odd primes, so a gap q - p > 0 is even, and the window holds no "
            "even gap above 0"
        )
    elif (smallest * (smallest + gap)).bit_length() > bits + 1:
        reason = f"with p > 2^{half - 1}, n = p*q is over {bits + 1} bits"
    else:
        for _ in range(MAX_ATTEMPTS):
            start = least | rng.bits(half - 1)
            p = _first_prime(start, start + 2 * _WALK_LIMIT - 1, rng)
            if p is None:
                continue
            q = p if gap_hi == 0 else _first_prime(p + lowest, p + gap_hi, rng)
            if q is None:
                continue
            n = p * q
            if abs(n.bit_length() - bits) > 1:
                continue
            return GeneratedSemiprime(p=p, q=q, n=n, gap=q - p, bits=bits, seed=seed)
        reason = f"none found in {MAX_ATTEMPTS} attempts"
    raise FeasibilityError(
        f"no {bits}-bit semiprime with gap in [{shown(gap_lo)}, {shown(gap_hi)}]: {reason}"
    )


def generate(spec: SemiprimeSpec) -> GeneratedSemiprime:
    """One semiprime of the requested shape; gap up to spec.max_gap, seed-deterministic."""
    lo = 0 if spec.max_gap == 0 else 1
    return generate_in_window(spec.bits, lo, spec.max_gap, spec.seed)


def ladder_windows(gaps: Sequence[int]) -> list[tuple[int, int]]:
    """Disjoint gap windows [previous bound + 1, bound] for a ladder.

    A zero bound (only sensible first) requests exactly gap 0.
    """
    if not isinstance(gaps, Sequence) or not gaps:
        raise ValueError(f"gaps must be a nonempty sequence, got {shown(gaps)}")
    windows = []
    prev = 0
    for bound in gaps:
        require_int("gap bound", bound)
        if windows and bound <= prev:
            raise ValueError("gap bounds must be strictly ascending")
        windows.append((0, 0) if bound == 0 else (prev + 1, bound))
        prev = bound
    return windows


def rung_seeds(seed: int, count: int) -> list[int]:
    """Per-rung seeds: successive words of a splitmix stream over `seed`."""
    master = SplitMix64(seed)
    return [master.next_word() for _ in range(require_int("count", count))]
