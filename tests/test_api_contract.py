"""The contract of the public engine and numeric functions, over drawn junk.

Every public function and record constructor of ``sqfactor.engine`` and
``sqfactor.numeric``, handed junk in an argument that comes from the
caller (None, bools, floats with nan and inf, strings, bytes,
containers, negative ints and ints past CPython's 4300-digit int/str
limit), either answers or raises ValueError with a message under 300
characters in the program's own words.  No other exception escapes.
The outcome namedtuples (Found, NoNontrivialFactor, BudgetExhausted)
take any fields and are not drawn.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqfactor import engine, numeric
from sqfactor.engine import Budget, SearchState, XScanState

_WALK_BUDGET = Budget(max_iterations=64)  # so a drawn valid modulus walks briefly
_MERSENNE_89 = 2**89 - 1  # a prime past the exact range, so is_probable_prime consults rng

# (function, arguments it answers, positions the property fills with junk);
# the positions are the arguments a caller supplies from outside, so
# require_int's name and lower bound, which the program itself passes, are not
_ENTRY_POINTS = (
    (engine.fermat_factor, (187, _WALK_BUDGET, None), (0, 1, 2)),
    (engine.xscan_factor, (187, _WALK_BUDGET, None), (0, 1, 2)),
    (engine.resume_fermat, (SearchState(187, 14, 0), _WALK_BUDGET, None), (0, 1, 2)),
    (engine.resume_xscan, (XScanState(187, 14, 0), _WALK_BUDGET, None), (0, 1, 2)),
    (engine.checkpoint_line, (XScanState(187, 14, 0),), (0,)),
    (engine.parse_checkpoint, ("n=187 y0=14 k=0",), (0,)),
    (engine.predict_k, (187, 3), (0, 1)),
    (engine.normalize_input, (374,), (0,)),
    (engine.SearchState, (187, 14, 0), (0, 1, 2)),
    (engine.XScanState, (187, 14, 0), (0, 1, 2)),
    (engine.Budget, (None, None), (0, 1)),
    (engine.NormalizedInput, (1, 187), (0, 1)),
    (numeric.ceil_sqrt, (187,), (0,)),
    (numeric.int_to_str, (187,), (0,)),
    (numeric.str_to_int, ("187",), (0,)),
    (numeric.json_int, (187,), (0,)),
    (numeric.shown, (187,), (0,)),
    (numeric.require_int, ("n", 187, 0), (1,)),
    (numeric.is_probable_prime, (_MERSENNE_89, None), (0, 1)),
)

_PAST_THE_LIMIT = st.integers(4301, 4310).flatmap(
    lambda digits: st.integers(-3, 3).map(lambda offset: 10**digits + offset)
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=24),
    st.sampled_from(["187", " -5 ", "0x1f", "n=187 y0=14 k=0", "n=187 y0=14 x=3", "9" * 5000]),
    st.binary(max_size=12),
    st.integers(max_value=-1),
    st.integers(min_value=0, max_value=1 << 70),
    _PAST_THE_LIMIT,
    _PAST_THE_LIMIT.map(lambda n: -n),
)
_JUNK = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=2),
    ),
    max_leaves=4,
)


@given(
    entry=st.sampled_from(range(len(_ENTRY_POINTS))),
    pick=st.integers(min_value=0, max_value=3),
    junk=_JUNK,
)
@settings(max_examples=600, derandomize=True, deadline=None)
def test_junk_gets_an_answer_or_a_short_value_error(entry, pick, junk):
    func, args, slots = _ENTRY_POINTS[entry]
    slot = slots[pick % len(slots)]
    # one Miller-Rabin round on an odd n of 14,000 bits takes seconds, so
    # is_probable_prime's n is drawn only where its answer is cheap
    assume(not (func is numeric.is_probable_prime and slot == 0 and type(junk) is int
                and junk & 1 and junk > _MERSENNE_89))
    args = list(args)
    args[slot] = junk
    try:
        func(*args)
    except ValueError as exc:
        message = str(exc)
        assert len(message) < 300, (func.__name__, slot, message[:300])
        # the program's own words, not CPython's int/str limit hit while quoting junk
        assert "integer string conversion" not in message, (func.__name__, slot, message)
