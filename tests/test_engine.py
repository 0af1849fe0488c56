import contextlib
import copy
import math
import pickle
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqfactor import engine
from sqfactor.bench import load_rsa100
from sqfactor.engine import (
    _SIEVE,
    _SLICE,
    _T,
    Budget,
    BudgetExhausted,
    Found,
    NoNontrivialFactor,
    NormalizedInput,
    SearchState,
    XScanState,
    checkpoint_line,
    fermat_factor,
    normalize_input,
    parse_checkpoint,
    predict_k,
    resume_fermat,
    resume_xscan,
    _mask,
    _masks,
    _scan,
    _step_table,
    _steps,
    _y_state,
    xscan_factor,
)
from sqfactor.numeric import ceil_sqrt
from sqfactor.semiprimes import SemiprimeSpec, generate

odd_moduli = st.integers(min_value=1, max_value=1 << 128).map(lambda v: 2 * v + 1)


def _balanced_divisor(n):
    # oracle: largest divisor not exceeding sqrt(n), by trial division
    best = 1
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            best = d
    return best


def _plain_outcome(y0, y, x, index):
    if y - x == 1:
        return NoNontrivialFactor(iterations=index)
    return Found(p=y - x, q=y + x, k=y - y0, iterations=index)


def _root(t):
    # the exact square root of t, or None: math.isqrt alone, no residue screen
    r = math.isqrt(t)
    return r if r * r == t else None


def _plain_fermat(n, start, budget):
    # reference y-walk from index start: test every deficit, no residue jumps
    y0 = ceil_sqrt(n)
    for k in range(start, start + budget):
        x = _root((y0 + k) ** 2 - n)
        if x is not None:
            return _plain_outcome(y0, y0 + k, x, k)
    k = start + budget
    return BudgetExhausted(iterations=k, resume=SearchState(n=n, y0=y0, k=k))


def _plain_xscan(n, start, budget):
    # reference x-walk from half-gap start: test n + x*x for every x
    y0 = ceil_sqrt(n)
    for x in range(start, start + budget):
        y = _root(n + x * x)
        if y is not None:
            return _plain_outcome(y0, y, x, x)
    x = start + budget
    return BudgetExhausted(iterations=x, resume=XScanState(n=n, y0=y0, x=x))


class TestSearchState:
    def test_init_reference_values(self):
        # a walk's first state is k = 0 at y0 = ceil_sqrt(n)
        for n, y0 in ((187, 14), (9, 3), (5959, 78)):
            assert fermat_factor(n, Budget(max_iterations=0)).resume == SearchState(n=n, y0=y0, k=0)

    def test_iterations_equals_k(self):
        assert SearchState(n=5959, y0=78, k=0).iterations == 0
        assert fermat_factor(5959, Budget(max_iterations=1)).resume.iterations == 1

    @pytest.mark.parametrize("bad", [1, 2, 4, 0, -3, 187.0])
    def test_init_rejects_bad_moduli(self, bad):
        with pytest.raises(ValueError):
            SearchState(n=bad, y0=2, k=0)

    def test_state_validates_fields(self):
        with pytest.raises(ValueError):
            SearchState(n=187, y0=13, k=0)  # y0 must be the ceiling root
        with pytest.raises(ValueError):
            SearchState(n=187, y0=14, k=-1)

    @pytest.mark.parametrize("bad", [2.5, 1.0, True])
    def test_counts_must_be_ints(self, bad):
        with pytest.raises(ValueError, match="must be an int"):
            SearchState(n=187, y0=14, k=bad)
        with pytest.raises(ValueError, match="must be an int"):
            XScanState(n=187, y0=14, x=bad)

    def test_root_must_be_an_int(self):
        # 14.0 == 14, so the equality check alone would let these in
        for bad in (
            lambda: SearchState(n=187, y0=14.0, k=0),
            lambda: XScanState(n=187, y0=14.0, x=0),
        ):
            with pytest.raises(ValueError, match="must be an int"):
                bad()


class TestFermatFactor:
    def test_reference_factorizations(self):
        assert fermat_factor(187) == Found(p=11, q=17, k=0, iterations=0)
        assert fermat_factor(9) == Found(p=3, q=3, k=0, iterations=0)
        assert fermat_factor(5959) == Found(p=59, q=101, k=2, iterations=2)

    def test_prime_input_reaches_trivial_representation(self):
        out = fermat_factor(17)
        assert out == NoNontrivialFactor(iterations=4)  # stops at y = 9, x = 8
        # iterations there is always (n+1)/2 - ceil_sqrt(n)
        for p in (3, 5, 7, 101, 9973):
            out = fermat_factor(p)
            assert isinstance(out, NoNontrivialFactor)
            assert out.iterations == (p + 1) // 2 - ceil_sqrt(p)

    def test_returns_balanced_divisor_small_range(self):
        for n in range(9, 20_000, 2):
            out = fermat_factor(n)
            p = _balanced_divisor(n)
            if p == 1:
                assert isinstance(out, NoNontrivialFactor)
            else:
                assert (out.p, out.q) == (p, n // p)
                assert out.iterations == (p + n // p) // 2 - ceil_sqrt(n)

    def test_matches_single_step_reference_walk(self):
        # the production loop skips candidates a residue table proves
        # non-square; a plain walk over every k must see the same outcome
        rng = random.Random(23)
        for n in [rng.randrange(9, 1 << 34) | 1 for _ in range(150)]:
            assert fermat_factor(n, Budget(max_iterations=3000)) == _plain_fermat(n, 0, 3000)

    def test_iteration_identity_on_semiprimes(self):
        for seed in range(300):
            sp = generate(SemiprimeSpec(bits=32, max_gap=1 << 16, seed=seed))
            out = fermat_factor(sp.n)
            assert out == Found(
                p=sp.p,
                q=sp.q,
                k=(sp.p + sp.q) // 2 - ceil_sqrt(sp.n),
                iterations=(sp.p + sp.q) // 2 - ceil_sqrt(sp.n),
            )

    def test_found_pair_is_ordered_and_multiplies_back(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randrange(9, 1 << 40) | 1
            out = fermat_factor(n, Budget(max_iterations=50_000))
            if isinstance(out, Found):
                assert 1 < out.p <= out.q
                assert out.p * out.q == n

    def test_x_parity_opposite_to_y(self):
        # odd n = y*y - x*x forces y and x to differ in parity
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randrange(9, 1 << 36) | 1
            out = fermat_factor(n, Budget(max_iterations=20_000))
            if isinstance(out, Found):
                y = (out.p + out.q) // 2
                x = (out.q - out.p) // 2
                assert (y ^ x) & 1 == 1

    def test_rejects_bad_input(self):
        for bad in (0, 1, 2, 4, 100):
            with pytest.raises(ValueError):
                fermat_factor(bad)


class TestBudgets:
    def test_exhaustion_reports_current_state(self):
        out = fermat_factor(5959, Budget(max_iterations=1))
        assert out == BudgetExhausted(iterations=1, resume=SearchState(n=5959, y0=78, k=1))

    def test_zero_budget_examines_nothing(self):
        out = fermat_factor(187, Budget(max_iterations=0))
        assert isinstance(out, BudgetExhausted)
        assert out.iterations == 0
        assert out.resume == SearchState(n=187, y0=14, k=0)

    def test_resume_fidelity_across_split_points(self):
        # budget b then resume must replay the unlimited run exactly
        n = 3 * 333331  # found at k = 165667
        full = fermat_factor(n)
        assert isinstance(full, Found)
        for split in (1, 2, 63, 64, 4096, 100_000, full.k):
            part = fermat_factor(n, Budget(max_iterations=split))
            if split >= full.k + 1:
                assert part == full
                continue
            assert isinstance(part, BudgetExhausted)
            assert part.iterations == split == part.resume.k
            assert resume_fermat(part.resume) == full

    def test_chained_resumes_match_single_run(self):
        n = 99999999999973 * 3  # large k, walk in three stints
        budget = Budget(max_iterations=1000)
        first = fermat_factor(n, budget)
        second = resume_fermat(first.resume, budget)
        assert isinstance(second, BudgetExhausted)
        assert second.iterations == 2000
        direct = fermat_factor(n, Budget(max_iterations=2000))
        assert direct == second

    def test_time_budget_stops_and_resumes(self):
        n = (2**89 - 1) * (2**107 - 1)  # enormous gap, will not finish
        out = fermat_factor(n, Budget(max_seconds=0.05))
        assert isinstance(out, BudgetExhausted)
        assert out.resume == SearchState(n=n, y0=ceil_sqrt(n), k=out.iterations)
        # picking up from the time-boxed state keeps the walk aligned
        more = resume_fermat(out.resume, Budget(max_iterations=100))
        assert more.iterations == out.iterations + 100

    def test_fractional_budget_rejected(self):
        # a float budget used to come back as BudgetExhausted(iterations=2.5)
        # with a state at k=2.5
        with pytest.raises(ValueError, match="max_iterations must be an int"):
            fermat_factor(load_rsa100(), Budget(max_iterations=2.5))
        for bad in (1e3, True, "10"):
            with pytest.raises(ValueError):
                Budget(max_iterations=bad)

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), -0.5, True, "1", pytest.param(10**400, id="10**400")],
    )
    def test_seconds_must_be_finite_and_positive(self, bad):
        # a NaN deadline used to be accepted and never fire; an int too
        # wide for a float used to overflow when the deadline was set
        with pytest.raises(ValueError, match="max_seconds"):
            Budget(max_seconds=bad)

    @pytest.mark.parametrize("walk", ["fermat_factor", "resume_fermat", "xscan_factor", "resume_xscan"])
    def test_wrong_budget_or_progress_type_fails_before_the_walk(self, walk):
        # both used to fail late: an int budget with an AttributeError, a
        # non-callable progress with a TypeError at its first report
        call = {
            "fermat_factor": lambda *a: fermat_factor(187, *a),
            "resume_fermat": lambda *a: resume_fermat(SearchState(n=187, y0=14, k=0), *a),
            "xscan_factor": lambda *a: xscan_factor(187, *a),
            "resume_xscan": lambda *a: resume_xscan(XScanState(n=187, y0=14, x=0), *a),
        }[walk]
        with pytest.raises(ValueError, match="budget must be a Budget or None, got int"):
            call(5)
        with pytest.raises(ValueError, match="budget must be a Budget or None, got dict"):
            call({"max_iterations": 5})
        with pytest.raises(ValueError, match="progress must be callable or None, got int"):
            call(None, 7)
        with pytest.raises(ValueError, match="progress must be callable or None, got str"):
            call(Budget(max_seconds=1.0), "k")  # 187 splits at once: checked before the walk
        assert call(Budget(max_iterations=10), print).p == 11

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Budget(max_iterations=-1)
        with pytest.raises(ValueError):
            Budget(max_seconds=0)


class TestHugeValuesInErrors:
    @pytest.mark.parametrize(
        "call, n, wording",
        [
            (fermat_factor, 10**5000, "modulus must be an odd integer >= 3"),
            (xscan_factor, 10**5000, "modulus must be an odd integer >= 3"),
            (normalize_input, -(10**5000), "modulus must be an integer >= 2"),
        ],
        ids=["fermat_factor", "xscan_factor", "normalize_input"],
    )
    def test_described_by_bit_length(self, call, n, wording):
        # under the default int/str limit, quoting n in full would raise
        # CPython's "Exceeds the limit (4300 digits)" instead
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            with pytest.raises(ValueError) as info:
                call(n)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        message = str(info.value)
        assert message.startswith(wording)
        assert message.endswith("16610-bit integer")
        assert len(message.encode()) < 200


class TestPredictK:
    def test_reference_values(self):
        assert predict_k(187, 3) == 0
        assert predict_k(187, 4) is None  # 203 is between 14**2 and 15**2
        assert predict_k(5959, 21) == 2

    def test_rejects_roots_below_search_start(self):
        # 9 + 0 = 9 = 3**2 with root exactly at the start, k = 0
        assert predict_k(9, 0) == 0
        # n = 25: x = 0 gives root 5 = ceil_sqrt, fine; no smaller root exists
        assert predict_k(25, 0) == 0

    def test_consistency_with_fermat(self):
        rng = random.Random(3)
        for _ in range(400):
            n = rng.randrange(9, 1 << 32) | 1
            out = fermat_factor(n, Budget(max_iterations=10_000))
            if isinstance(out, Found):
                assert predict_k(n, (out.q - out.p) // 2) == out.k

    def test_predicted_deficit_is_exact(self):
        for n, x in ((187, 3), (5959, 21), (21, 2)):
            k = predict_k(n, x)
            y0 = ceil_sqrt(n)
            assert (y0 + k) ** 2 - n == x * x

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_k(10, 1)
        with pytest.raises(ValueError):
            predict_k(187, -1)
        for bad in (3.0, True):
            with pytest.raises(ValueError, match="x must be an int"):
                predict_k(187, bad)


class TestXScan:
    def test_reference_factorizations(self):
        assert xscan_factor(187) == Found(p=11, q=17, k=0, iterations=3)
        assert xscan_factor(9) == Found(p=3, q=3, k=0, iterations=0)
        assert xscan_factor(21) == Found(p=3, q=7, k=0, iterations=2)

    def test_agrees_with_fermat_on_pairs(self):
        for n in range(9, 5000, 2):
            a = fermat_factor(n)
            b = xscan_factor(n)
            if isinstance(a, Found):
                assert (a.p, a.q) == (b.p, b.q)
            else:
                assert isinstance(b, NoNontrivialFactor)

    def test_prime_input(self):
        out = xscan_factor(17)
        assert out == NoNontrivialFactor(iterations=8)  # trivial rep at x = 8

    def test_budget_and_resume(self):
        out = xscan_factor(5959, Budget(max_iterations=2))
        assert out == BudgetExhausted(iterations=2, resume=XScanState(5959, 78, 2))
        done = resume_xscan(out.resume)
        assert done == Found(p=59, q=101, k=2, iterations=21)

    def test_resume_past_boundary_rejected(self):
        with pytest.raises(ValueError):
            resume_xscan(XScanState(n=17, y0=5, x=9))

    def test_matches_single_step_reference_walk(self):
        # the production loop skips half-gaps the mod-64 step table rules
        # out; a plain walk over every x must see the same outcome
        rng = random.Random(29)
        for n in [rng.randrange(9, 1 << 34) | 1 for _ in range(150)]:
            assert xscan_factor(n, Budget(max_iterations=3000)) == _plain_xscan(n, 0, 3000)


class TestResumeStateType:
    def test_y_walk_rejects_an_x_walk_state(self):
        state = xscan_factor(10403, Budget(max_iterations=0)).resume
        with pytest.raises(ValueError, match="resume_fermat needs a SearchState, got XScanState"):
            resume_fermat(state)

    def test_x_walk_rejects_a_y_walk_state(self):
        state = fermat_factor(10403, Budget(max_iterations=0)).resume
        with pytest.raises(ValueError, match="resume_xscan needs an XScanState, got SearchState"):
            resume_xscan(state)

    @pytest.mark.parametrize(
        "func, arg, wording",
        [
            pytest.param(checkpoint_line, None,
                         "checkpoint_line needs a SearchState or an XScanState, got NoneType",
                         id="checkpoint_line-None"),
            pytest.param(checkpoint_line, Budget(1),
                         "checkpoint_line needs a SearchState or an XScanState, got Budget",
                         id="checkpoint_line-Budget"),
            pytest.param(parse_checkpoint, None, "a checkpoint must be a str, got NoneType",
                         id="parse_checkpoint-None"),
            pytest.param(parse_checkpoint, b"n=187 y0=14 k=0", "a checkpoint must be a str, got bytes",
                         id="parse_checkpoint-bytes"),
        ],
    )
    def test_junk_is_a_value_error_naming_its_type(self, func, arg, wording):
        with pytest.raises(ValueError, match=f"^{wording}$"):
            func(arg)


class TestOutcomes:
    # outcomes are NamedTuples; this pins what callers saw of the old frozen dataclasses
    def test_repr_names_every_field(self):
        assert repr(fermat_factor(187)) == "Found(p=11, q=17, k=0, iterations=0)"
        assert repr(fermat_factor(7)) == "NoNontrivialFactor(iterations=1)"
        assert repr(fermat_factor(5959, Budget(max_iterations=1))) == (
            "BudgetExhausted(iterations=1, resume=SearchState(n=5959, y0=78, k=1))"
        )

    def test_fields_cannot_be_assigned(self):
        exhausted = xscan_factor(5959, Budget(max_iterations=1))
        for out in (fermat_factor(187), fermat_factor(7), exhausted):
            with pytest.raises(AttributeError):
                out.iterations = 5

    def test_different_types_never_compare_equal(self):
        state = SearchState(n=5959, y0=78, k=1)
        outcomes = [
            Found(p=1, q=1, k=1, iterations=1),
            Found(p=state, q=state, k=state, iterations=state),
            NoNontrivialFactor(iterations=1),
            NoNontrivialFactor(iterations=state),
            BudgetExhausted(iterations=1, resume=state),
            BudgetExhausted(iterations=state, resume=state),
        ]
        for a in outcomes:
            for b in outcomes:
                if type(a) is not type(b):
                    assert a != b

    def test_equal_to_the_plain_tuple_of_fields(self):
        p, q, k, iterations = fermat_factor(5959)
        assert (p, q, k, iterations) == fermat_factor(5959) == (59, 101, 2, 2)

    @pytest.mark.parametrize("walk", [fermat_factor, xscan_factor])
    def test_budget_exhausted_round_trips_through_pickle(self, walk):
        out = walk(5959, Budget(max_iterations=1))
        back = pickle.loads(pickle.dumps(out))
        assert type(back) is BudgetExhausted and back == out
        assert type(back.resume) is type(out.resume)
        assert (resume_fermat if walk is fermat_factor else resume_xscan)(back.resume) == walk(5959)

    def test_every_walk_returns_the_outcome_classes_themselves(self):
        y_state = fermat_factor(5959, Budget(max_iterations=1)).resume
        x_state = xscan_factor(5959, Budget(max_iterations=1)).resume
        cases = [
            (fermat_factor(187), Found, "Found(p=11, q=17, k=0, iterations=0)", (11, 17, 0, 0)),
            (xscan_factor(187), Found, "Found(p=11, q=17, k=0, iterations=3)", (11, 17, 0, 3)),
            (fermat_factor(7), NoNontrivialFactor, "NoNontrivialFactor(iterations=1)", (1,)),
            (xscan_factor(7), NoNontrivialFactor, "NoNontrivialFactor(iterations=3)", (3,)),
            (resume_fermat(y_state), Found, "Found(p=59, q=101, k=2, iterations=2)", (59, 101, 2, 2)),
            (resume_xscan(x_state), Found, "Found(p=59, q=101, k=2, iterations=21)", (59, 101, 2, 21)),
            (
                resume_fermat(y_state, Budget(max_iterations=0)),
                BudgetExhausted,
                "BudgetExhausted(iterations=1, resume=SearchState(n=5959, y0=78, k=1))",
                (1, y_state),
            ),
            (
                resume_xscan(x_state, Budget(max_iterations=1)),
                BudgetExhausted,
                "BudgetExhausted(iterations=2, resume=XScanState(n=5959, y0=78, x=2))",
                (2, XScanState(n=5959, y0=78, x=2)),
            ),
        ]
        for out, cls, text, fields in cases:
            assert type(out) is cls
            assert repr(out) == text
            assert out == fields and tuple(out) == fields
            back = pickle.loads(pickle.dumps(out))
            assert type(back) is cls and back == out


_RECORDS = [
    (SearchState(n=187, y0=14, k=0), (187, 14, 0), "SearchState(n=187, y0=14, k=0)"),
    (XScanState(n=5959, y0=78, x=7), (5959, 78, 7), "XScanState(n=5959, y0=78, x=7)"),
    (Budget(max_iterations=10), (10, None), "Budget(max_iterations=10, max_seconds=None)"),
    (Budget(max_seconds=1.5), (None, 1.5), "Budget(max_iterations=None, max_seconds=1.5)"),
    (NormalizedInput(two_exponent=2, residual=3), (2, 3), "NormalizedInput(two_exponent=2, residual=3)"),
]
_IDS = ["SearchState", "XScanState", "Budget-iterations", "Budget-seconds", "NormalizedInput"]


class TestRecords:
    # the four state records were frozen dataclasses; this pins what callers saw of them
    @pytest.mark.parametrize("record, values, text", _RECORDS, ids=_IDS)
    def test_repr_is_the_dataclass_repr(self, record, values, text):
        assert repr(record) == text
        assert repr(BudgetExhausted(3, record)) == f"BudgetExhausted(iterations=3, resume={text})"

    @pytest.mark.parametrize("record, values, text", _RECORDS, ids=_IDS)
    def test_equal_only_to_the_same_type(self, record, values, text):
        twin = type(record)(*values)
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert record != values and values != record
        for other, _, _ in _RECORDS:
            if type(other) is not type(record):
                assert record != other
        with pytest.raises(TypeError):
            record < twin

    def test_records_of_other_types_differ(self):
        assert Budget(max_iterations=2, max_seconds=3) != NormalizedInput(2, 3)
        assert XScanState(n=187, y0=14, x=0) != fermat_factor(187, Budget(max_iterations=0)).resume

    @pytest.mark.parametrize("record, values, text", _RECORDS, ids=_IDS)
    def test_fields_cannot_be_assigned_or_added(self, record, values, text):
        name = text[text.index("(") + 1 : text.index("=")]  # the first field
        with pytest.raises(AttributeError):
            setattr(record, name, 5)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == text

    @pytest.mark.parametrize("record, values, text", _RECORDS, ids=_IDS)
    def test_pickle_and_copy_round_trips(self, record, values, text):
        for back in (
            pickle.loads(pickle.dumps(record)),
            pickle.loads(pickle.dumps(record, protocol=0)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(back) is type(record) and back == record and repr(back) == text

    def test_pickle_rebuilds_through_validation(self):
        # a payload naming an inconsistent state is refused, not loaded
        bad = pickle.dumps(SearchState._trusted(187, 13, 0))
        with pytest.raises(ValueError, match="y0 must equal ceil_sqrt"):
            pickle.loads(bad)

    def test_match_by_position(self):
        match fermat_factor(187, Budget(max_iterations=0)).resume:
            case SearchState(n, y0, k):
                assert (n, y0, k) == (187, 14, 0)

    @given(odd_moduli, st.integers(min_value=0, max_value=80))
    @settings(max_examples=100)
    def test_trusted_paths_equal_the_validated_state(self, n, k):
        y0 = ceil_sqrt(n)
        public = SearchState(n=n, y0=y0, k=k)
        trusted = (
            SearchState._trusted(n, y0, k),
            _y_state(n, y0, k),
            parse_checkpoint(checkpoint_line(public)),
        )
        for state in trusted:
            assert type(state) is SearchState
            assert state == public and hash(state) == hash(public) and repr(state) == repr(public)
        out = fermat_factor(n, Budget(max_iterations=k))
        if isinstance(out, BudgetExhausted):
            assert out.resume == public
        out = xscan_factor(n, Budget(max_iterations=k))
        if isinstance(out, BudgetExhausted):
            assert out.resume == XScanState(n=n, y0=y0, x=k)


class TestCheckpoints:
    def test_round_trip_y_walk(self):
        state = fermat_factor(5959, Budget(max_iterations=1)).resume
        line = checkpoint_line(state)
        assert line == "n=5959 y0=78 k=1"
        assert parse_checkpoint(line) == state

    def test_round_trip_x_walk(self):
        state = XScanState(n=5959, y0=78, x=7)
        line = checkpoint_line(state)
        assert line == "n=5959 y0=78 x=7"
        assert parse_checkpoint(line) == state

    @given(odd_moduli, st.integers(min_value=0, max_value=1 << 30), st.booleans())
    @settings(max_examples=100)
    def test_round_trip_property(self, n, k, x_walk):
        if n < 3:
            return
        y0 = ceil_sqrt(n)
        k = min(k, (n + 1) // 2 - y0)
        if x_walk:
            state = XScanState(n=n, y0=y0, x=k)
        else:
            state = SearchState(n=n, y0=y0, k=k)
        assert parse_checkpoint(checkpoint_line(state)) == state

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "n=187",
            "n=187 y0=14",
            "n=187 y0=14 k=0 x=0",
            "n=187 y0=13 k=0",  # wrong start
            "n=187 y0=14 k=-1",
            "n=abc y0=14 k=0",
            "n=187 n=187 y0=14 k=0",
            "187 14 0",
            "n=187 y0=14 k=\u0663",  # ARABIC-INDIC DIGIT THREE
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError):
            parse_checkpoint(line)

    @pytest.mark.parametrize("k", ["--5", "+5", "1_0", " 5"])
    def test_only_plain_decimal_tokens(self, k):
        # int() would take the last three; a checkpoint token is [-]ascii digits
        with pytest.raises(ValueError, match="malformed checkpoint token"):
            parse_checkpoint(f"n=187 y0=14 k={k}")

    @pytest.mark.parametrize(
        "line",
        ["n=" + "1" * 5000 + "x y0=1 k=0", "k" * 5000 + "=10 n=187 y0=14"],
        ids=["wide token", "wide key"],
    )
    def test_wide_bad_input_is_not_echoed(self, line):
        with pytest.raises(ValueError) as info:
            parse_checkpoint(line)
        assert "(5003 characters)" in str(info.value)
        assert len(str(info.value).encode()) < 200

    def test_wide_round_trip_under_the_default_int_str_limit(self):
        state = fermat_factor((2**16000 + 1) ** 2, Budget(max_iterations=0)).resume
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            line = checkpoint_line(state)
            assert parse_checkpoint(line) == state
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        n_token, y0_token, k_token = line.split()
        assert len(n_token) == len("n=") + 9633
        assert k_token == "k=0"


class TestNormalizeInput:
    def test_reference_values(self):
        assert normalize_input(374) == NormalizedInput(two_exponent=1, residual=187)
        assert normalize_input(8) == NormalizedInput(two_exponent=3, residual=1)
        assert normalize_input(187) == NormalizedInput(two_exponent=0, residual=187)

    def test_power_of_two_is_fully_factored(self):
        out = normalize_input(8)
        assert out.is_fully_factored
        assert out.two_factors() == [2, 2, 2]

    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=1 << 64))
    @settings(max_examples=200)
    def test_round_trip_property(self, a, half):
        odd = 2 * half + 1
        n = (1 << a) * odd
        if n < 2:
            return
        out = normalize_input(n)
        assert out.residual % 2 == 1
        assert (1 << out.two_exponent) * out.residual == n

    def test_wide_power_of_two_factor(self):
        assert normalize_input(3 * 2**200000) == NormalizedInput(two_exponent=200000, residual=3)

    def test_rejects_below_two(self):
        for bad in (1, 0, -6):
            with pytest.raises(ValueError):
                normalize_input(bad)

    @pytest.mark.parametrize("bad", [2.5, 8.0, "8", True, None])
    def test_non_int_modulus_rejected(self, bad):
        for call in (normalize_input, fermat_factor, xscan_factor, lambda n: SearchState(n, 14, 0)):
            with pytest.raises(ValueError, match="modulus must be an int, got "):
                call(bad)

    @pytest.mark.parametrize(
        "values, wording",
        [
            (("x", 3), "two_exponent must be an int"),
            ((1, 2.5), "residual must be an int"),
            ((True, 3), "two_exponent must be an int"),
            ((-1, 3), "two_exponent must be >= 0"),
            ((1, 0), "residual must be >= 1"),
            ((1, 4), "residual must be odd"),
        ],
    )
    def test_constructor_validates(self, values, wording):
        with pytest.raises(ValueError, match=wording):
            NormalizedInput(*values)
        # a corrupt pickled record is refused, not loaded
        with pytest.raises(ValueError, match=wording):
            pickle.loads(pickle.dumps(NormalizedInput._trusted(*values)))


# Chunk edges every chained run passes through: the kernel's switch from
# screening t to screening u (_T, one mod-64 period), an edge inside a
# slice, and the driver's slice boundaries.
_FIXED_EDGES = (_T - 1, _T, _T + 1, 4099, _SLICE, 2 * _SLICE, 3 * _SLICE)
_WALKS = {"fermat": (fermat_factor, resume_fermat), "xscan": (xscan_factor, resume_xscan)}

# (y, x) pairs whose n = y*y - x*x is odd and whose hit index (y - y0 on
# the y-walk, x on the x-walk) lies near 2**40
_NEAR_2_40 = {
    "fermat": ((1 << 61, (1 << 51) + 1), ((1 << 60) + 3, (3 << 49) + 12)),
    "xscan": (((1 << 50) + 1, (1 << 40) + 6), (3 << 48, (1 << 40) + 37)),
}


def _reference_scan(a, c, i, end):
    # _scan without screens: an exact square root for every candidate
    for u in range(a + i, a + end):
        t = u * u + c
        r = math.isqrt(t)
        if r * r == t:
            return u, r
    return None


def _walk_shape(walk, n):
    return (ceil_sqrt(n), -n) if walk == "y" else (0, n)


def _planted(walk, hit):
    # (a, c) of an odd n whose walk first hits at the small index `hit`
    if walk == "x":
        gap = (1 << 61) - 1  # n + hit**2 == (hit + gap)**2
        n = gap * (2 * hit + gap)
    else:
        y = (1 << 80) + 1
        x = ceil_sqrt(2 * y * hit - hit * hit)  # so y - ceil_sqrt(y*y - x*x) == hit
        x += (y - x + 1) % 2  # y and x of opposite parity make n odd
        n = y * y - x * x
    return _walk_shape(walk, n)


# window starts below, at and past _T, next to a slice multiple, and far out
_window_starts = st.one_of(
    st.integers(min_value=0, max_value=3 * _T),
    st.sampled_from((_T - 1, _T, _T + 1)),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda s: st.integers(min_value=s * _SLICE - 300, max_value=s * _SLICE + 1)
    ),
    st.integers(min_value=0, max_value=1 << 41),
)
# short windows, and windows up to a whole slice, the longest piece one
# sieve pass covers
_window_lengths = st.one_of(
    st.integers(min_value=0, max_value=3 * _T + 130),
    st.integers(min_value=0, max_value=_SLICE),
)
# the primes past stage 1's screens that stage 2 sieves by (13 divides 65)
_PRIMES = (17, 19, 23, 29, 31, 37, 41)
# (m, r): move a window's start so that its first u is r mod m, at a period
# edge of a sieve mask, or leave it where it is
_mask_edges = st.one_of(
    st.none(),
    st.tuples(st.sampled_from((704, 63, 65) + _PRIMES), st.sampled_from((0, 1, -2, -1))),
)
# factors of c that make the masks of _PRIMES admit every u, and with 4095 =
# 63 * 65 also the 63 and 65 masks
_ALL_IN = (math.prod(_PRIMES), 4095 * math.prod(_PRIMES))
_SQUARES = {m: {v * v % m for v in range(m)} for m in (64, 11, 63, 65) + _PRIMES}


def _passes_the_screens(u, c, moduli=(64, 11, 63, 65) + _PRIMES):
    # u*u + c can be a square mod each of the moduli; by default those of
    # stage 2's sieve: the mod-704 mask (64 and 11), the 63 and 65 masks
    # and the masks of _PRIMES
    t = u * u + c
    return all(t % m in _SQUARES[m] for m in moduli)


@contextlib.contextmanager
def _roots_taken(c):
    # a list that gains, for each square root the engine takes, the u
    # with u*u + c == t
    roots = []

    def counting_isqrt(t):
        roots.append(math.isqrt(t - c))
        return math.isqrt(t)

    original = engine.math
    engine.math = SimpleNamespace(isqrt=counting_isqrt, inf=math.inf)
    try:
        yield roots
    finally:
        engine.math = original


# n divisible by 11 and by every odd sieve modulus: then only the mod-64
# part of the 704 mask clears any u, and one u in eight survives
_DENSE = 11 * 4095 * math.prod(_PRIMES)


def _dense_planted(walk, hit):
    # (a, c) of an odd n divisible by _DENSE whose window around the index
    # `hit` holds one square, at `hit`
    g = _DENSE * ((1 << 90) + 2 * hit + 1)
    if walk == "x":
        return 0, g * (g + 2 * hit)  # n + hit**2 == (g + hit)**2
    # y = g + x, n = y*y - x*x = g * (g + 2*x): the least x whose index
    # y - ceil_sqrt(n) reaches `hit` (it grows by at most 1 per step of x)
    lo, hi = 0, 1 << 80
    while lo < hi:
        x = (lo + hi) // 2
        if g + x - ceil_sqrt(g * (g + 2 * x)) < hit:
            lo = x + 1
        else:
            hi = x
    n = g * (g + 2 * lo)
    assert g + lo - ceil_sqrt(n) == hit
    return ceil_sqrt(n), -n


class TestKernel:
    @given(
        walk=st.sampled_from("yx"),
        odd=st.integers(min_value=1, max_value=1 << 200).map(lambda v: 2 * v + 1),
        # c divisible by 3, 5, 7, 11 or 13 makes the screens admit more, by
        # 63 * 65 makes the 63 and 65 masks admit every u, and by one of
        # _ALL_IN makes the masks of every modulus it divides admit every u
        factor=st.sampled_from((1, 3, 5, 7, 11, 13, 3 * 5 * 7 * 11 * 13, 63 * 65) + _ALL_IN),
        i=_window_starts,
        edge=_mask_edges,
        length=_window_lengths,
    )
    @settings(max_examples=400, deadline=None)
    def test_scan_matches_the_reference(self, walk, odd, factor, i, edge, length):
        a, c = _walk_shape(walk, factor * odd)
        if edge is not None:
            m, r = edge
            i += (r - a - i) % m
        assert _scan(a, c, i, i + length) == _reference_scan(a, c, i, i + length)

    @given(
        walk=st.sampled_from("yx"),
        hit=_window_starts,
        before=st.integers(min_value=0, max_value=2 * _T + 2),
        after=st.integers(min_value=0, max_value=2 * _T + 2),
        big=st.integers(min_value=1 << 43, max_value=1 << 160),
    )
    @settings(max_examples=300, deadline=None)
    def test_scan_finds_a_planted_square(self, walk, hit, before, after, big):
        if walk == "x":
            gap = 2 * (big % 1000) + 1  # n + hit**2 == (hit + gap)**2
            n = gap * (2 * hit + gap)
        else:
            y = big
            x = ceil_sqrt(2 * y * hit - hit * hit)  # so y - ceil_sqrt(y*y - x*x) == hit
            x += (y - x + 1) % 2  # y and x of opposite parity make n odd
            n = y * y - x * x
            assume(ceil_sqrt(n) == y - hit)
        assume(n >= 3)
        a, c = _walk_shape(walk, n)
        i, end = max(0, hit - before), hit + 1 + after
        found = _scan(a, c, i, end)
        assert found == _reference_scan(a, c, i, end)
        assert found is not None and found[0] <= a + hit

    @given(
        walk=st.sampled_from("yx"),
        odd=st.integers(min_value=1, max_value=1 << 200).map(lambda v: 2 * v + 1),
        factor=st.sampled_from((1, 3, 5, 7, 11, 63 * 65) + _ALL_IN),
        i=st.one_of(
            st.integers(min_value=_T, max_value=3 * _SLICE),
            st.integers(min_value=0, max_value=1 << 41),
        ),
        length=st.integers(min_value=0, max_value=_SLICE),
        hit=st.none() | st.integers(min_value=0, max_value=_SLICE + 99),
    )
    @settings(max_examples=40, deadline=None)
    def test_isqrt_sees_exactly_the_u_the_screens_admit(self, walk, odd, factor, i, length, hit):
        # past _T the kernel takes a root of exactly the u that pass every
        # screen of stage 2's sieve, in ascending order, up to the hit, in
        # any window of up to one slice
        if walk == "x":
            n = factor * odd
            if hit is not None:  # plant n + (i + hit)**2 == (i + hit + gap)**2
                gap = 2 * (odd % 1000) + 1
                n = gap * (2 * (i + hit) + gap)
        else:
            y = (1 << 160) + odd
            if hit is not None:  # plant the y-walk's first hit at index i + hit
                j = i + max(_T, hit)
                x = ceil_sqrt(2 * y * j - j * j)
                x += (y - x + 1) % 2
                n = y * y - x * x
                assume(ceil_sqrt(n) == y - j)
            else:
                n = factor * odd
        i = max(i, _T)
        a, c = _walk_shape(walk, n)
        expected = []
        for u in range(a + i, a + i + length):
            if _passes_the_screens(u, c):
                expected.append(u)
                if math.isqrt(u * u + c) ** 2 == u * u + c:
                    break
        with _roots_taken(c) as roots:
            found = _scan(a, c, i, i + length)
        assert found == _reference_scan(a, c, i, i + length)
        assert roots == expected

    def test_tiny_splits_build_no_mask(self):
        # y-splits that hit at k = 0 and x-splits that hit by x = 48 end in
        # the kernel's first stage, before any mask is needed
        _mask.cache_clear()
        rng = random.Random(27)
        for _ in range(3000):
            y = rng.randrange(1 << 31, 1 << 32)
            x = rng.randrange(0, math.isqrt(y) // 2) * 2 + 1 - y % 2  # opposite parity
            n = y * y - x * x
            assert fermat_factor(n).k == 0
        for _ in range(3000):
            y = rng.randrange(1 << 31, 1 << 32)
            x = rng.randrange(0, 24) * 2 + 1 - y % 2
            assert xscan_factor(y * y - x * x).iterations <= 48
        assert _mask.cache_info().currsize == 0

    def test_screen_caches_stay_bounded(self):
        # keyed by (m, c % m) for m = 704 with c odd, 63, 65 and _PRIMES,
        # and by c % 704, the masks and the step tables need no eviction
        # however many moduli a process walks
        rng = random.Random(15)
        moduli = {rng.randrange(1 << 40, 1 << 64) | 1 for _ in range(200)}
        assert len(moduli) == 200
        for n in moduli:
            for walk in (fermat_factor, xscan_factor):
                out = walk(n, Budget(max_iterations=_T + 200))
                assert isinstance(out, BudgetExhausted)  # so every walk passed _T
        assert 100 < _mask.cache_info().currsize <= 352 + 63 + 65 + sum(_PRIMES)
        assert sum(table is not None for table in _steps) <= 352

    def test_every_step_table_matches_its_definition(self):
        # entry r of the table for c is the distance from r to the next
        # r' > r, mod 704, at which r'*r' + c is a square mod 64 and mod 11
        squares64 = {v * v % 64 for v in range(64)}
        squares11 = {v * v % 11 for v in range(11)}
        for c in range(1, 704, 2):
            allowed = [(v * v + c) % 64 in squares64 and (v * v + c) % 11 in squares11
                       for v in range(704)]
            expected = []
            for r in range(704):
                d = 1
                while not allowed[(r + d) % 704]:
                    d += 1
                expected.append(d)
            assert _step_table(c) == bytes(expected), c

    def test_every_mask_matches_its_definition(self):
        # bit v of the mask for (m, c) is set iff u = v (mod m) passes the
        # screen mod m, for every v below _SLICE + m and no bit beyond
        for m in (704, 63, 65) + _PRIMES:
            moduli = (64, 11) if m == 704 else (m,)
            for c in range(1, m, 2) if m == 704 else range(m):
                period = "".join(
                    "1" if _passes_the_screens(v, c, moduli) else "0" for v in range(m)
                )
                mask = _mask(m, c)
                assert mask.bit_length() <= _SLICE + m
                bits = format(mask, "b")[::-1].ljust(_SLICE + m, "0")
                assert bits == (period * (_SLICE // m + 2))[:_SLICE + m], (m, c)

    @pytest.mark.parametrize("d", (1, -1))  # c > 0 as on the x-walk, c < 0 as on the y-walk
    def test_every_odd_class_of_c_mod_704_gets_its_own_step_table(self, d):
        # u*u + c == (u + d)**2 at u = a + j alone: c = d * (2*u + d) takes
        # all 352 odd classes mod 704 over 352 consecutive u, each planted
        # both below _T and past it, all in one process, so a step table
        # served for the wrong class would skip or move the hit
        classes = set()
        for j in (10, _T + 10):
            for a in range((1 << 70) + 3, (1 << 70) + 3 + 352):
                u = a + j
                c = d * (2 * u + d)
                classes.add(c % 704)
                for i in (0, j - 3):
                    found = _scan(a, c, i, j + 40)
                    assert found == _reference_scan(a, c, i, j + 40) == (u, u + d), (a, j, i)
        assert len(classes) == 352

    @pytest.mark.parametrize("walk", "yx")
    def test_every_window_around_the_stage_switch(self, walk):
        # every [i, end) up to two mod-64 periods past _T: each entry residue
        # of stage 1, each _T crossing and each hit position, on RSA-100
        # (no hit this early) and on moduli planted to hit at a given index
        cases = [(_walk_shape(walk, load_rsa100()), None)]
        cases += [(_planted(walk, hit), hit) for hit in (5, _T - 1, _T, 100)]
        for (a, c), hit in cases:
            if hit is not None:
                assert _reference_scan(a, c, 0, hit + 1)[0] == a + hit
            for end in range(2 * _T + 3):
                for i in range(end + 1):
                    assert _scan(a, c, i, end) == _reference_scan(a, c, i, end), (i, end)

    @pytest.mark.parametrize("walk", "yx")
    def test_survivors_before_the_hit_are_read_in_order(self, walk):
        # stage 2 reads every survivor by the highest set bit left: windows
        # with 0, 7, 8, 9 and 16 survivors before the hit, a whole dense
        # slice with no hit, and hits at a slice's first and last u, reach
        # isqrt in ascending order and agree with the reference
        hit = 3 * _SLICE + 101
        a, c = _dense_planted(walk, hit)
        survivors = [j for j in range(hit - _SLICE, hit) if _passes_the_screens(a + j, c)]
        assert len(survivors) > 1000
        windows = [(hit, hit + _SLICE), (hit + 1 - _SLICE, hit + 1)]  # first and last u
        windows.append((hit - _SLICE, hit))  # every survivor of a slice, no hit
        for count in (0, 7, 8, 9, 16):
            i = survivors[-count] if count else survivors[-1] + 1
            windows += [(i, hit), (i, hit + 1), (i, hit + 50)]
        for i, end in windows:
            expected = [a + j for j in range(i, min(end, hit + 1)) if _passes_the_screens(a + j, c)]
            with _roots_taken(c) as roots:
                found = _scan(a, c, i, end)
            assert found == _reference_scan(a, c, i, end), (i, end)
            assert (found is not None) == (end > hit), (i, end)
            assert roots == expected, (i, end)

    def test_a_walk_looks_its_masks_up_once(self):
        # a resumed walk over four slices takes its masks from the per-c
        # cache: at most one _mask call per sieve modulus, not one per slice
        n = load_rsa100()
        _masks.cache_clear()
        before = _mask.cache_info()
        state = _y_state(n, ceil_sqrt(n), (1 << 40) + 7)
        out = resume_fermat(state, Budget(max_iterations=4 * _SLICE))
        after = _mask.cache_info()
        assert isinstance(out, BudgetExhausted) and out.iterations == state.k + 4 * _SLICE
        assert after.hits + after.misses - before.hits - before.misses <= len(_SIEVE)

    def test_the_per_c_mask_cache_stays_bounded(self):
        # one entry per recent c, whatever the number of moduli walked
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randrange(1 << 40, 1 << 64) | 1
            for walk in (fermat_factor, xscan_factor):
                assert isinstance(walk(n, Budget(max_iterations=_T + 200)), BudgetExhausted)
        assert _masks.cache_info().currsize <= 4


# ~66-bit moduli whose first hit lies 3.5 slices into the walk: p * q with
# k = 57344 on the y-walk and x = 58129 on the x-walk
_DEEP = {
    "fermat": (8558559617, 8621334263, 57344),
    "xscan": (8589716579, 8589832837, 58129),
}


def _slice_edge_cases(method):
    # (start, hit, a, c, state): the walk's first hit is at index start +
    # hit, and state resumes it at start, past _T
    walk, key = ("y", "k") if method == "fermat" else ("x", "x")
    for start in (_T, _T + 1, 5000):
        for hit in (_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE):
            a, c = _planted(walk, start + hit)
            n = abs(c)  # c is -n on the y-walk, n on the x-walk
            yield start, hit, a, c, parse_checkpoint(f"n={n} y0={ceil_sqrt(n)} {key}={start}")


class TestDriver:
    @pytest.mark.parametrize("method", sorted(_WALKS))
    def test_deep_chained_resumes_match_one_run(self, method):
        # budgets that end around _T, at and next to each slice edge before
        # the hit, and inside a slice; each chain, and one through every
        # edge at once, ends where one unbudgeted run does
        first, resume = _WALKS[method]
        p, q, hit = _DEEP[method]
        n = p * q
        one_run = first(n)
        assert one_run.p == p and one_run.q == q and one_run.iterations == hit
        assert 3 * _SLICE < hit < 4 * _SLICE
        edges = [_T - 1, _T, _T + 1, 3 * _SLICE + 4099]
        edges += [s * _SLICE + d for s in (1, 2, 3) for d in (-1, 0, 1)]
        for chain in [[edge] for edge in edges] + [sorted(edges)]:
            out, done = first(n, Budget(max_iterations=chain[0])), chain[0]
            for edge in chain[1:]:
                assert out.iterations == done
                out = resume(out.resume, Budget(max_iterations=edge - done))
                done = edge
            assert isinstance(out, BudgetExhausted) and out.iterations == done
            assert resume(parse_checkpoint(checkpoint_line(out.resume))) == one_run, chain

    @pytest.mark.parametrize("method", sorted(_WALKS))
    def test_a_hit_at_a_slice_edge_is_found(self, method):
        # resumed past _T, the walk's slices end at start + s * _SLICE: a
        # hit just before, at and just after the first edge is found, and
        # one on the second
        plain = _plain_fermat if method == "fermat" else _plain_xscan
        for start, hit, _, _, state in _slice_edge_cases(method):
            out = _WALKS[method][1](state, Budget(max_iterations=3 * _SLICE))
            assert isinstance(out, Found) and out.iterations == start + hit, (start, hit)
            assert out == plain(state.n, start, 3 * _SLICE)

    @pytest.mark.parametrize("method", sorted(_WALKS))
    def test_isqrt_sees_exactly_the_u_the_screens_admit_across_slices(self, method):
        # over several slices the walk takes a root of exactly the u that
        # pass every screen of stage 2's sieve, ascending, up to and
        # including the hit
        for start, hit, a, c, state in _slice_edge_cases(method):
            u0 = a + start
            expected = [u for u in range(u0, u0 + hit + 1) if _passes_the_screens(u, c)]
            with _roots_taken(c) as roots:
                out = _WALKS[method][1](state, Budget(max_iterations=3 * _SLICE))
            assert out.iterations == start + hit
            assert roots == expected, (start, hit)

    @pytest.mark.parametrize("method", sorted(_WALKS))
    @given(
        n=st.integers(min_value=1, max_value=(1 << 17) - 1).map(lambda v: 2 * v + 1),
        extra=st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_chained_chunks_match_one_run(self, method, n, extra):
        first, resume = _WALKS[method]
        edges = sorted(set(_FIXED_EDGES).union(extra))
        out = first(n, Budget(max_iterations=edges[0]))
        done = edges[0]
        for edge in edges[1:]:
            if not isinstance(out, BudgetExhausted):
                break
            assert out.iterations == out.resume.iterations == done
            assert parse_checkpoint(checkpoint_line(out.resume)) == out.resume
            out = resume(out.resume, Budget(max_iterations=edge - done))
            done = edge
        if isinstance(out, BudgetExhausted):
            out = resume(out.resume)
        assert out == first(n)

    @given(st.integers(min_value=1, max_value=5 * 10**6 - 1).map(lambda v: 2 * v + 1))
    @settings(max_examples=40, deadline=None)
    def test_both_walks_match_the_largest_divisor_oracle(self, n):
        p = _balanced_divisor(n)
        q = n // p
        y0 = ceil_sqrt(n)
        walks = ((fermat_factor(n), (p + q) // 2 - y0), (xscan_factor(n), (q - p) // 2))
        for out, iterations in walks:
            if p == 1:
                assert out == NoNontrivialFactor(iterations=iterations)
            else:
                assert out == Found(p=p, q=q, k=(p + q) // 2 - y0, iterations=iterations)

    @pytest.mark.parametrize("method", sorted(_WALKS))
    def test_resume_near_2_40_at_every_residue(self, method):
        # the step table is keyed by c mod 704 (c = -n on the y-walk, n on
        # the x-walk) and indexed by u mod 704: open a window at every u
        # mod 704, on moduli with a hit inside it and on one without
        resume = _WALKS[method][1]
        plain = _plain_fermat if method == "fermat" else _plain_xscan
        cases = [(load_rsa100(), 1 << 40)]
        for y, x in _NEAR_2_40[method]:
            n = y * y - x * x
            cases.append((n, y - ceil_sqrt(n) if method == "fermat" else x))
        for n, hit in cases:
            for start in range(hit - 740, hit - 36):
                state = plain(n, start, 0).resume
                assert resume(state, Budget(max_iterations=800)) == plain(n, start, 800)

    @pytest.mark.parametrize("method", sorted(_WALKS))
    def test_deadline_and_progress_are_serviced_between_slices(self, method):
        # resumed off a slice multiple, every count the driver shows (each
        # progress report and where the deadline stopped it) is a whole
        # number of slices past the checkpoint
        n, k0 = load_rsa100(), (1 << 40) + 7
        key = "k" if method == "fermat" else "x"
        state = parse_checkpoint(f"n={n} y0={ceil_sqrt(n)} {key}={k0}")
        counts = []
        out = _WALKS[method][1](state, Budget(max_seconds=1.5), counts.append)
        assert isinstance(out, BudgetExhausted)
        assert counts, "a 1.5 s walk reports progress at least once"
        for count in counts + [out.iterations]:
            assert count > k0 and (count - k0) % _SLICE == 0, count

    def test_progress_counts_increase_within_the_walk(self):
        counts = []
        out = fermat_factor(load_rsa100(), Budget(max_seconds=1.5), counts.append)
        assert isinstance(out, BudgetExhausted)
        assert counts, "a 1.5 s walk reports progress at least once"
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert 0 < counts[-1] <= out.iterations
