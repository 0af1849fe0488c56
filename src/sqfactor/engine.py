"""Difference-of-squares factor search with explicit budgets.

For odd n >= 3, any factorization n = p*q with p <= q corresponds to a
representation n = y*y - x*x where y = (p+q)/2 and x = (q-p)/2.  The
search walks candidate centers y = y0 + k upward from y0 = ceil_sqrt(n)
and reports the first k where the deficit

    d_k = (y0 + k)**2 - n

is itself a perfect square x*x.  The paper's walk, Fermat's, steps the
deficits one candidate at a time by the recurrence

    d_{k+1} = d_k + 2*y0 + 2*k + 1

The kernel below examines the same candidates in the same order, but
jumps over those that residue screens rule out, by step table and by
sieve.  The first hit gives p = y - x and q = y + x, and p is
automatically the largest divisor of n not exceeding sqrt(n).

Every odd n eventually hits the trivial representation at
y = (n+1)/2 (p = 1, q = n), so a search that reaches it proves there is
no nontrivial split and the input behaves prime.  That bound makes the
unbudgeted search total.

The state records SearchState, XScanState, Budget and NormalizedInput
share one small __slots__ base, _Record, so that importing the engine
does not import dataclasses.  Their public constructors validate
outside input once, parse_checkpoint's included.  Records the engine
derives itself (the resumable state of a spent budget and
normalize_input's split of n) are built by _Record._trusted, which
does not re-derive ceil_sqrt(n).

Searches take an optional Budget and return a FactorOutcome sum type:
Found, NoNontrivialFactor, or BudgetExhausted carrying a resumable
state, each a collections.namedtuple, never equal across types.
Resuming an exhausted search examines exactly the candidates a
never-interrupted run would have examined next, so a budgeted run plus
its resumption is indistinguishable from one unlimited run.

The same machinery supports the inverted scan over half-gaps x
(xscan_factor): test x = 0, 1, 2, ... for n + x*x being a perfect
square s*s, which yields y = s directly.  Both scans return identical
(p, q); only their iteration counts differ.

Both walks seek the first j for which (a + j)**2 + c is a perfect
square, the y-walk with (a, c) = (y0, -n) and the x-walk with (0, n).
One kernel, _scan, runs that search over one slice, i <= j < end.  It
takes an exact root only of the u = a + j for which u*u + c can be a
square modulo each of a set of screens, and it finds them in two
stages.  Below index _T it steps u from one value to the next that a
step table allows (keyed by c mod 704 = 64*11, it skips every u failing
the screens mod 64 and mod 11), carries t = u*u + c and screens t mod
63 and 65.  From _T on it sieves: one cached mask int per (m, c mod m)
for m in _SIEVE (704, 63, 65 and the primes 17 to 41) has bit v set iff
every u = v (mod m) passes the screen mod m, and _masks looks a walk's
ten masks up once per c, not once per slice.  Every screen reads only
u*u, so a mask is symmetric under u -> -u: shifted right by -top mod m,
top being the slice's last u, its bit v stands for u = top - v.  ANDed,
the ten leave set exactly the bits of the u that pass every screen,
the lowest u in the highest bit; a slice with none is done.  The
kernel reads them top-down, one bit_length() and one cleared bit per
survivor, so in ascending u, and builds t only for those u.  Stage 2
screens by more moduli, so it admits a subset of the u stage 1 would.
Neither changes a hit or an iteration count: a square passes every
screen.  A tiny split, over before _T, builds no mask.  c is odd, so
there are at most 352 step tables, in the list _steps, and 352 + 63 +
65 + 197 masks, in _mask's cache; _masks keeps the last four c.

The driver, _walk, calls the kernel once per slice of _SLICE candidates
and owns everything else: the stop index a budget sets, the deadline
and the progress callback (both serviced after each finished slice, in
one block that reads the clock once, so the kernel reads no clock), the
bound at the trivial representation, and turning a hit or a spent
budget into an outcome.
"""

from __future__ import annotations

import math
import sys
import time
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache

from .numeric import ceil_sqrt, int_to_str, require_int, shown, str_to_int

__all__ = [
    "Budget",
    "BudgetExhausted",
    "FactorOutcome",
    "Found",
    "NoNontrivialFactor",
    "NormalizedInput",
    "SearchState",
    "XScanState",
    "checkpoint_line",
    "fermat_factor",
    "normalize_input",
    "parse_checkpoint",
    "predict_k",
    "resume_fermat",
    "resume_xscan",
    "xscan_factor",
]

# Candidates per scan call: the granularity at which the deadline and the
# progress callback are serviced.
_SLICE = 1 << 14
_PROGRESS_INTERVAL = 1.0


def _squares(m: int) -> bytes:
    """Byte r is 1 iff r is a square mod m."""
    table = bytearray(m)
    for v in range(m):
        table[v * v % m] = 1
    return bytes(table)


_SQUARES_64, _SQUARES_11 = _squares(64), _squares(11)  # the step table's screens
_SCREENS = (_squares(63), _squares(65))  # stage 1's screens past the step table
# Walk index from which _scan sieves instead of stepping: one mod-64 period,
# past the end of every tiny split (a y-split at k = 0, an x-split at x <=
# 48), so those never build a mask.
_T = 64


def _start_root(n: int) -> int:
    if type(n) is not int:
        require_int("modulus", n, None)  # the range check below words the error
    if n < 3 or not n & 1:
        raise ValueError(
            "modulus must be an odd integer >= 3; strip factors of two "
            f"first (normalize_input), got {shown(n)}"
        )
    return ceil_sqrt(n)


def _require_start(n: int, y0: int) -> None:
    require_int("y0", y0)
    if y0 != _start_root(n):
        raise ValueError("y0 must equal ceil_sqrt(n)")


class _Record:
    """Immutable record whose fields are its __slots__: equal only to a
    record of its own type, hashed by its fields and printed as
    Name(field=value, ...).  Pickle and copy rebuild it through its
    validating constructor; _trusted builds it without checks."""

    __slots__ = ()

    @classmethod
    def _trusted(cls, *values):
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)  # past __setattr__ below, which refuses
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SearchState(_Record):
    """Snapshot of the y-walk: candidate y = y0 + k is the next to examine."""

    __slots__ = __match_args__ = ("n", "y0", "k")

    def __new__(cls, n: int, y0: int, k: int):
        _require_start(n, y0)
        require_int("k", k)
        return cls._trusted(n, y0, k)

    @property
    def iterations(self) -> int:
        # candidates examined so far; the sequential walk makes this k
        return self.k


class XScanState(_Record):
    """Snapshot of the x-walk: candidate half-gap x is the next to examine."""

    __slots__ = __match_args__ = ("n", "y0", "x")

    def __new__(cls, n: int, y0: int, x: int):
        _require_start(n, y0)
        require_int("x", x)
        return cls._trusted(n, y0, x)

    @property
    def iterations(self) -> int:
        return self.x


Found = namedtuple("Found", "p q k iterations")
NoNontrivialFactor = namedtuple("NoNontrivialFactor", "iterations")
# resume is a SearchState or an XScanState
BudgetExhausted = namedtuple("BudgetExhausted", "iterations resume")
FactorOutcome = Found | NoNontrivialFactor | BudgetExhausted


class Budget(_Record):
    """Bounds on one search call.

    max_iterations counts candidates examined by this call (resuming
    grants a fresh allowance) and must be an int.  max_seconds is wall
    time, serviced every 16384 candidates, and must be finite and
    positive.  None means unbounded.
    """

    __slots__ = __match_args__ = ("max_iterations", "max_seconds")

    def __new__(cls, max_iterations: int | None = None, max_seconds: float | None = None):
        if max_iterations is not None:
            require_int("max_iterations", max_iterations)
        if max_seconds is not None and (
            isinstance(max_seconds, bool)
            or not isinstance(max_seconds, (int, float))
            or not 0 < max_seconds <= sys.float_info.max
        ):
            raise ValueError(f"max_seconds must be finite and positive, got {shown(max_seconds)}")
        return cls._trusted(max_iterations, max_seconds)


# (n, y0, k) and (n, y0, x), trusted: every caller has already checked them
_y_state, _x_state = SearchState._trusted, XScanState._trusted


# --- checkpoint serialization ------------------------------------------------

def checkpoint_line(state: SearchState | XScanState) -> str:
    """One-line key=value form; decimal at any width, reload-exact."""
    if isinstance(state, SearchState):
        key, value = "k", state.k
    elif isinstance(state, XScanState):
        key, value = "x", state.x
    else:
        raise ValueError(
            f"checkpoint_line needs a SearchState or an XScanState, got {type(state).__name__}"
        )
    return f"n={int_to_str(state.n)} y0={int_to_str(state.y0)} {key}={int_to_str(value)}"


def parse_checkpoint(line: str) -> SearchState | XScanState:
    if not isinstance(line, str):
        raise ValueError(f"a checkpoint must be a str, got {type(line).__name__}")
    fields = {}
    for token in line.split():
        key, _, value = token.partition("=")
        digits = value[1:] if value[:1] == "-" else value
        plain = digits.isascii() and digits.isdigit()  # "" is not, so a token without "=" fails
        if key not in ("n", "y0", "k", "x") or key in fields or not plain:
            raise ValueError(f"malformed checkpoint token {shown(token)}")
        fields[key] = str_to_int(value)
    keys = set(fields)
    if keys == {"n", "y0", "k"}:
        return SearchState(n=fields["n"], y0=fields["y0"], k=fields["k"])
    if keys == {"n", "y0", "x"}:
        return XScanState(n=fields["n"], y0=fields["y0"], x=fields["x"])
    raise ValueError(
        "checkpoint must have exactly the keys n, y0 and k (y-walk) "
        f"or n, y0 and x (x-walk), got {sorted(keys)}"
    )


# --- the walk driver, its kernel and the y-walk ------------------------------

def _walk(
    new_state: Callable[[int, int, int], SearchState | XScanState],
    n: int,
    y0: int,
    a: int,
    c: int,
    start: int,
    budget: Budget | None,
    progress: Callable[[int], None] | None,
) -> FactorOutcome:
    """Run _scan over indices start, start + 1, ... in slices of _SLICE.

    A hit (u, r) is (y, x) on the y-walk and (x, y) on the x-walk.  The
    trivial representation r = u +- 1 solves u*u + c == r*r at
    u = |c - 1| / 2, so the walk always ends by then.
    """
    stop = abs(c - 1) // 2 - a + 1  # one past the trivial representation
    if start >= stop:
        raise ValueError("state is past the trivial representation; nothing left to scan")
    deadline = next_report = math.inf
    if budget is not None:
        if not isinstance(budget, Budget):
            raise ValueError(f"budget must be a Budget or None, got {type(budget).__name__}")
        if budget.max_iterations is not None:
            stop = min(stop, start + budget.max_iterations)
        if budget.max_seconds is not None:
            deadline = time.perf_counter() + budget.max_seconds
    if progress is not None:
        if not callable(progress):
            raise ValueError(f"progress must be callable or None, got {type(progress).__name__}")
        next_report = time.perf_counter() + _PROGRESS_INTERVAL

    i = start
    while i < stop:
        end = i + _SLICE
        if end > stop:
            end = stop
        hit = _scan(a, c, i, end)
        if hit is not None:
            y, x = hit
            j = y - a  # the hit's first entry is u = a + j on both walks
            if y < x:  # the x-walk's hit is (x, y)
                y, x = x, y
            # tuple.__new__ skips the named tuples' Python-level __new__ on every call
            if y - x == 1:
                # trivial representation n = 1 * n: the search space is exhausted
                return tuple.__new__(NoNontrivialFactor, (j,))
            return tuple.__new__(Found, (y - x, y + x, y - y0, j))
        i = end
        now = time.perf_counter()
        if now > deadline:
            break
        if now >= next_report:
            progress(i)
            next_report = now + _PROGRESS_INTERVAL
    return tuple.__new__(BudgetExhausted, (i, new_state(n, y0, i)))


_DOWN = bytes(range(255, 0, -1))  # _DOWN[255 - g:] counts down g, g - 1, ..., 1


def _allowed_704(c_mod_704: int) -> list:
    """The u mod 704, ascending, for which u*u + c can be a square both
    mod 64 and mod 11.

    They come by CRT from those mod 64 and mod 11: u = 385*v + 320*w mod
    704 has u = v mod 64 and u = w mod 11.  Both walks end at the trivial
    representation, a square, so the list is never empty.
    """
    u64 = [385 * v for v in range(64) if _SQUARES_64[(v * v + c_mod_704) % 64]]
    u11 = [320 * w for w in range(11) if _SQUARES_11[(w * w + c_mod_704) % 11]]
    return sorted([(x + y) % 704 for x in u64 for y in u11])


def _step_table(c_mod_704: int) -> bytes:
    """Distance from each u mod 704 to the next u' > u for which u'*u' + c
    can be a square both mod 64 and mod 11.

    A run of g entries before each allowed u counts down g, ..., 1; the
    largest distance is 82, so each fits in a byte.
    """
    allowed = _allowed_704(c_mod_704)
    allowed.append(allowed[0] + 704)  # the first allowed u of the next period
    runs = [_DOWN[255 - allowed[0]:]]
    runs += [_DOWN[255 - (y - x):] for x, y in zip(allowed, allowed[1:])]
    return b"".join(runs)[:704]


# _step_table(c % 704) at index c % 704, filled by _scan on first use: the
# one cache of step tables, since a list index per _scan call costs less
# than an lru_cache lookup
_steps = [None] * 704


# Stage 2's sieve moduli: the step table's 704, the 63 and 65 of stage 1's
# screens, and the primes 17 to 41.  13 is left out: a square mod 65 is a
# square mod 13, so the 65 mask already clears every u a 13 mask would.
_SIEVE = (704, 63, 65, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None)  # keys (m, c % m): at most 352 + 63 + 65 + 197 of them
def _mask(m: int, c_mod_m: int) -> int:
    """Int of _SLICE + m bits whose bit v is set iff every u = v (mod m)
    passes the screen mod m: mod 64 and mod 11 (the step table's screens)
    for m = 704, else u*u + c can be a square mod m.  When m divides c,
    every u passes.  Each screen reads only u*u, so bit v equals bit
    (-v) % m within a period.

    One period of m bits is doubled by shifts until it covers the mask.
    """
    if m == 704:
        allowed = _allowed_704(c_mod_m)
    else:
        squares = _squares(m)
        allowed = [r for r in range(m) if squares[(r * r + c_mod_m) % m]]
    mask = sum([1 << v for v in allowed])
    width = m
    while width < _SLICE + m:
        mask |= mask << width
        width *= 2
    return mask & ((1 << (_SLICE + m)) - 1)


# Four entries hold the y-walk and the x-walk of one n run in turns (c = -n
# and c = n) with room to spare; a new c pays its ten _mask lookups once.
@lru_cache(maxsize=4)
def _masks(c: int) -> tuple:
    """The pairs (m, _mask(m, c % m)) for m in _SIEVE."""
    return tuple([(m, _mask(m, c % m)) for m in _SIEVE])


def _scan(a: int, c: int, i: int, end: int) -> tuple | None:
    """First (u, r) with u = a + j for some j in [i, end) and u*u + c ==
    r*r, or None.

    The window is one slice: its sieved part [max(i, _T), end) is at
    most _SLICE long.  Both stages, described in the module docstring,
    examine in ascending order the u that pass their screens: those mod
    64, 11, 63 and 65 stepping below walk index _T, and those of the
    moduli in _SIEVE sieving from it.  The sieve's bit v stands for u =
    top - v, top being the slice's last u, so the highest set bit is the
    lowest surviving u.
    """
    if i < _T:
        key = c % 704  # nonnegative also for negative c
        steps = _steps[key]
        if steps is None:
            steps = _steps[key] = _step_table(key)
        sq63, sq65 = _SCREENS
        u = a + i - 1
        u += steps[u % 704]  # the first allowed u >= a + i
        u_end = a + end if end < _T else a + _T
        t = u * u + c
        while u < u_end:
            if sq63[t % 63] and sq65[t % 65]:
                r = math.isqrt(t)
                if r * r == t:
                    return u, r
            s = steps[u % 704]
            t += s * (2 * u + s)
            u += s
        if end <= _T:
            return None
        i = _T
    top = a + end - 1
    acc = (1 << (end - i)) - 1
    for m, mask in _masks(c):
        acc &= mask >> -top % m
    isqrt = math.isqrt
    while acc:
        p = acc.bit_length() - 1
        v = top - p
        t = v * v + c
        r = isqrt(t)
        if r * r == t:
            return v, r
        acc ^= 1 << p
    return None


def fermat_factor(
    n: int,
    budget: Budget | None = None,
    progress: Callable[[int], None] | None = None,
) -> FactorOutcome:
    """Factor odd n >= 3 by the difference-of-squares y-walk.

    Returns Found(p, q, k, iterations) at the first square deficit; p*q
    = n with 1 < p <= q and p the largest divisor of n at most sqrt(n).
    Returns NoNontrivialFactor for inputs with no nontrivial split
    (primes) and BudgetExhausted with a resumable state when the budget
    runs out first.
    """
    y0 = _start_root(n)
    return _walk(_y_state, n, y0, y0, -n, 0, budget, progress)


def resume_fermat(
    state: SearchState,
    budget: Budget | None = None,
    progress: Callable[[int], None] | None = None,
) -> FactorOutcome:
    """Continue an exhausted y-walk; examines candidates k, k+1, ...

    A NoNontrivialFactor from here rules out only the candidates from
    state.k on: for a state past a split, such as an edited checkpoint
    line, it does not prove n prime.
    """
    if not isinstance(state, SearchState):
        raise ValueError(f"resume_fermat needs a SearchState, got {type(state).__name__}")
    return _walk(_y_state, state.n, state.y0, state.y0, -state.n, state.k, budget, progress)


# --- closed-form prediction and the x-walk -----------------------------------

def predict_k(n: int, x: int) -> int | None:
    """Offset k at which the deficit equals x*x, if any.

    Solves (y0 + k)**2 - n = x**2 for integer k: when n + x*x is a
    perfect square s*s, k = s - y0, and returns None otherwise.  k is
    never negative, since s*s >= n gives s >= ceil_sqrt(n) = y0.
    """
    y0 = _start_root(n)
    t = n + require_int("x", x) ** 2
    s = math.isqrt(t)
    return s - y0 if s * s == t else None


def xscan_factor(
    n: int,
    budget: Budget | None = None,
    progress: Callable[[int], None] | None = None,
) -> FactorOutcome:
    """Factor odd n >= 3 by scanning half-gaps x = 0, 1, 2, ...

    Tests whether n + x*x is a perfect square; the first hit yields the
    same (p, q) pair as fermat_factor, generally after a different
    number of iterations (iterations counts x candidates here).
    """
    return _walk(_x_state, n, _start_root(n), 0, n, 0, budget, progress)


def resume_xscan(
    state: XScanState,
    budget: Budget | None = None,
    progress: Callable[[int], None] | None = None,
) -> FactorOutcome:
    """Continue an exhausted x-walk; examines candidates x, x+1, ...

    A NoNontrivialFactor from here rules out only the candidates from
    state.x on: for a state past a split, such as an edited checkpoint
    line, it does not prove n prime.
    """
    if not isinstance(state, XScanState):
        raise ValueError(f"resume_xscan needs an XScanState, got {type(state).__name__}")
    return _walk(_x_state, state.n, state.y0, 0, state.n, state.x, budget, progress)


# --- input normalization ------------------------------------------------------

class NormalizedInput(_Record):
    """n = 2**two_exponent * residual with residual odd.

    residual == 1 means the factorization is complete (n was a power of
    two); otherwise residual is an odd number >= 3 ready for the engine.
    """

    __slots__ = __match_args__ = ("two_exponent", "residual")

    def __new__(cls, two_exponent: int, residual: int):
        require_int("two_exponent", two_exponent)
        if not require_int("residual", residual, 1) & 1:
            raise ValueError(f"residual must be odd, got {shown(residual)}")
        return cls._trusted(two_exponent, residual)

    @property
    def is_fully_factored(self) -> bool:
        return self.residual == 1

    def two_factors(self) -> list:
        return [2] * self.two_exponent


def normalize_input(n: int) -> NormalizedInput:
    """Strip all factors of two from n >= 2."""
    if type(n) is not int:
        require_int("modulus", n, None)
    if n < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {shown(n)}")
    twos = (n & -n).bit_length() - 1  # n & -n is the lowest set bit of n
    return NormalizedInput._trusted(twos, n >> twos)
