"""Arbitrary-precision integer primitives: the ceiling square root,
Miller-Rabin primality testing, and decimal conversion of any width.

Everything here is a pure function of its arguments and safe to call
from any number of threads.

``ceil_sqrt`` is the ceiling of ``math.isqrt``, except that like every
public function here it refuses a bool, a float, a string or None with
ValueError where ``math.isqrt`` would take True as 1 or raise
TypeError.

``is_probable_prime`` takes one path for every n of 43 and up.  It picks
its witnesses from ``_WITNESS_TIERS``, whose rows the known smallest
strong pseudoprimes prove exact: 2, 7 and 61 below 4.76e9, the first
nine primes below 3.8e18, all 13 primes 2..41 below 3.3e24.  Past the
last row it draws 24 random witnesses from the caller's generator, or
from ``random``, imported only then, when the caller passes none.  Then
one gcd with the product of 2..41 screens out their multiples, and a
survivor runs Miller-Rabin.

``int_to_str`` and ``str_to_int`` are ``str(n)`` and ``int(text, 10)``
without CPython's 4300-digit int/str limit: they try ``str``/``int``
first.  Only when that fails does ``str_to_int`` check the syntax, and
past the limit both convert through ``decimal.Decimal``, imported only
then, which is exact and exempt, so no caller lifts the process-wide
limit.  This module alone decides how an int becomes text: ``json_int``
is the form a count takes in a JSON document, and ``shown`` is how an
error message quotes a value that came from outside.  ``require_int``
decides what an integer argument from outside is.
"""

from __future__ import annotations

import math


def ceil_sqrt(n: int) -> int:
    """Smallest r with r*r >= n; ValueError for negative n, and for an n
    that ``require_int`` refuses.

    >>> ceil_sqrt(187)
    14
    """
    if type(n) is not int:
        require_int("n", n, None)
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def int_to_str(n: int) -> str:
    """``str(n)`` for an int of any width.

    >>> int_to_str(-187)
    '-187'
    """
    if type(n) is not int:
        require_int("n", n, None)
    try:
        return str(n)
    except ValueError:  # over CPython's int/str digit limit
        import decimal

        return str(decimal.Decimal(n))


def str_to_int(text: str) -> int:
    """``int(text, 10)`` for a string of any length: the same syntax
    (surrounding whitespace, a sign, single underscores between digits,
    any Unicode decimal digits), and ValueError for anything else.

    >>> str_to_int(" +1_87 ")
    187
    """
    if not isinstance(text, str):  # int() would also take a float, a bool or bytes
        raise ValueError(f"not a decimal integer string: {shown(text)}")
    try:
        return int(text)
    except ValueError:  # bad syntax, or valid syntax past the int/str digit limit
        pass
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    # "".isdecimal() is False: a bare sign or an empty, leading, trailing or
    # doubled underscore fails, as do the point, exponent, nan and inf Decimal takes
    if not all(group.isdecimal() for group in digits.split("_")):
        raise ValueError(f"not a decimal integer: {shown(text)}")
    import decimal

    return int(decimal.Decimal(s.replace("_", "")))


def json_int(n: int):
    """n itself below 2**53 in magnitude, where a double holds every int
    exactly, and ``int_to_str(n)`` from there up.

    >>> json_int(2**53 - 1)
    9007199254740991
    >>> json_int(-2**53)
    '-9007199254740992'
    """
    if type(n) is not int:
        require_int("n", n, None)
    return n if -(1 << 53) < n < 1 << 53 else int_to_str(n)


def shown(value) -> str:
    """How an error message quotes value: an int over 64 bits wide by its
    bit length, a string over 40 characters by a 24-character prefix and
    its length, and anything else by its repr, which the string rule
    shortens in turn above 40 characters.  A value whose repr fails, as
    a list holding an int past the int/str digit limit does, by its type.

    >>> shown(187)
    '187'
    >>> shown(-2**100)
    'a negative 101-bit integer'
    >>> shown("z" * 50)
    "'zzzzzzzzzzzzzzzzzzzzzzzz'... (50 characters)"
    >>> shown([10**5000])
    'a list with no repr'
    """
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'a'} {value.bit_length()}-bit integer"
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:
        return f"a {type(value).__name__} with no repr"
    if len(text) <= 40:
        return repr(value)
    return f"{text[:24]!r}... ({len(text)} characters)"


def require_int(name: str, value, lo: int | None = 0) -> int:
    """value if it is an int, not a bool, and at least lo (if lo is not
    None); else a ValueError naming it.

    >>> require_int("workers", 0, 1)
    Traceback (most recent call last):
    ValueError: workers must be >= 1, got 0
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {shown(value)}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {shown(value)}")
    return value


_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_PRODUCT = math.prod(_DETERMINISTIC_WITNESSES)
# (bound, witnesses): no composite below bound passes every witness, since
# each bound is the smallest strong pseudoprime to its witnesses (Jaeschke,
# Math. Comp. 61 (1993); Sorenson & Webster 2017), so the 13-witness test
# gives the same answer below it.  Past the last bound, 3.317e24, the test
# is no longer exact.  {2, 7, 61} reaches past the first four primes'
# bound, 3215031751, with one witness fewer.
_WITNESS_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (4759123141, (2, 7, 61)),
    (2152302898747, _DETERMINISTIC_WITNESSES[:5]),
    (3474749660383, _DETERMINISTIC_WITNESSES[:6]),
    (341550071728321, _DETERMINISTIC_WITNESSES[:7]),
    (3825123056546413051, _DETERMINISTIC_WITNESSES[:9]),
    (318665857834031151167461, _DETERMINISTIC_WITNESSES[:12]),
    (3317044064679887385961981, _DETERMINISTIC_WITNESSES),
)
# random witnesses per test past the last tier: error at most 4**-24 per composite
_RANDOM_ROUNDS = 24


def _mr_witness_passes(n: int, d: int, r: int, a: int) -> bool:
    # n - 1 = d * 2**r with d odd; returns True when a does NOT expose n.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rng=None) -> bool:
    """Miller-Rabin primality test, exact for n below about 3.3e24.

    n < 43 is prime iff it is one of the 13 witness primes 2..41.  A
    larger n takes the witnesses of the first ``_WITNESS_TIERS`` row
    whose bound exceeds it: 2 alone below 2047, three (2, 7 and 61)
    below 4.76e9, the first nine primes below 3.8e18, all 13 below the
    last row's bound.  Past the table an even n is composite, and an odd
    n draws 24 random witnesses, which give an error probability of at
    most 4**-24 for composite n.  Then one gcd with the product of
    2..41 rejects any n they divide, and what passes runs Miller-Rabin.
    ``rng`` needs a ``randrange`` method and is consulted only for odd n
    past the table, so results below it never depend on it; None there
    means the ``random`` module, imported only then.  The draws come
    before the gcd, so how many a call makes depends only on n.  An n
    that ``require_int`` refuses, such as 7.0, "7" or True, raises
    ValueError, and so does an rng without ``randrange`` where it would
    be consulted.
    """
    if type(n) is not int:
        require_int("n", n, None)
    if n < 43:
        return n in _DETERMINISTIC_WITNESSES
    for bound, witnesses in _WITNESS_TIERS:
        if n < bound:
            break
    else:  # past the table: drawn before the screen, so the draws depend only on n
        if n % 2 == 0:
            return False
        if rng is None:
            import random as rng
        elif not hasattr(rng, "randrange"):
            raise ValueError(f"rng must have a randrange method, got {shown(rng)}")
        witnesses = [rng.randrange(2, n - 1) for _ in range(_RANDOM_ROUNDS)]
    if math.gcd(n, _WITNESS_PRODUCT) != 1:
        return False
    m = n - 1
    r = (m & -m).bit_length() - 1  # n - 1 = d * 2**r with d odd
    d = m >> r
    for a in witnesses:
        if not _mr_witness_passes(n, d, r, a):
            return False
    return True
