import concurrent.futures
import io
import json
import math
import warnings

import pytest

from sqfactor import bench
from sqfactor.bench import (
    METHODS,
    BenchRecord,
    SummaryRow,
    SummaryTable,
    analytic_iterations,
    load_rsa100,
    measure,
    record_from_json,
    record_to_json,
    run_study,
    scaling_summary,
)
from sqfactor.engine import Budget
from sqfactor.numeric import is_probable_prime
from sqfactor.semiprimes import FeasibilityError


class TestMeasure:
    def test_instant_hit(self):
        r = measure(187)
        assert r.n_bits == 8
        assert r.gap == 6
        assert r.method == "fermat"
        assert r.iterations == 0
        assert r.predicted_iterations == 0
        assert r.outcome == "found"
        assert r.elapsed_ns >= 1
        assert r.seed is None

    def test_xscan_counts_half_gaps(self):
        r = measure(187, method="xscan")
        assert r.outcome == "found"
        assert r.iterations == 3  # x at the hit, i.e. (q - p) / 2
        assert r.gap == 6

    def test_prime_input(self):
        r = measure(17)
        assert r.outcome == "no_factor"
        assert r.iterations == 4
        assert r.gap is None
        assert r.predicted_iterations is None

    def test_exhaustion_without_known_factors(self):
        r = measure(5959, budget=Budget(max_iterations=1))
        assert r.outcome == "budget_exhausted"
        assert r.iterations == 1
        assert r.gap is None

    def test_exhaustion_with_known_factors(self):
        r = measure(5959, budget=Budget(max_iterations=1), factors=(59, 101), seed=9)
        assert r.outcome == "budget_exhausted"
        assert r.gap == 42
        assert r.predicted_iterations == 2
        assert r.seed == 9

    def test_method_validated(self):
        with pytest.raises(ValueError):
            measure(187, method="pollard")

    def test_hard_modulus_exhausts_quickly(self):
        n = load_rsa100()
        r = measure(n, budget=Budget(max_iterations=10_000))
        assert r.outcome == "budget_exhausted"
        assert r.iterations == 10_000
        assert r.n_bits == 330


class TestRecordJson:
    def test_wide_fields_are_strings(self):
        r = BenchRecord(
            n_bits=330,
            gap=2**165,
            method="fermat",
            iterations=12,
            elapsed_ns=3456,
            outcome="found",
            seed=2**63,
            predicted_iterations=12,
        )
        obj = json.loads(record_to_json(r))
        assert obj["gap"] == str(2**165)
        assert obj["seed"] == str(2**63)
        assert obj["iterations"] == 12  # small counts stay numeric
        assert record_from_json(record_to_json(r)) == r

    def test_oversize_counts_become_strings(self):
        r = BenchRecord(
            n_bits=512,
            gap=None,
            method="fermat",
            iterations=2**60,
            elapsed_ns=5,
            outcome="budget_exhausted",
            seed=None,
            predicted_iterations=2**60 + 7,
        )
        obj = json.loads(record_to_json(r))
        assert obj["iterations"] == str(2**60)
        assert obj["predicted_iterations"] == str(2**60 + 7)
        assert obj["gap"] is None
        assert obj["seed"] is None
        assert record_from_json(record_to_json(r)) == r

    def test_keys_are_sorted(self):
        line = record_to_json(measure(187))
        keys = [k for k, _ in json.loads(line, object_pairs_hook=lambda p: p)]
        assert keys == sorted(keys)

    def test_reader_accepts_numeric_or_string(self):
        a = record_from_json('{"n_bits": 8, "gap": "6", "method": "fermat", '
                             '"iterations": "0", "elapsed_ns": 10, "outcome": "found"}')
        assert a.gap == 6
        assert a.iterations == 0
        assert a.seed is None

    @pytest.mark.parametrize(
        "fields",
        [
            '"n_bits": 8.9, "iterations": 7.5, "elapsed_ns": true',
            '"n_bits": 8.0, "iterations": 7, "elapsed_ns": 10',
            '"n_bits": 8, "iterations": 7, "elapsed_ns": false',
            '"n_bits": 8, "iterations": "7.5", "elapsed_ns": 10',
            '"n_bits": 8, "iterations": 7, "elapsed_ns": 10, "seed": 1.5',
            '"n_bits": 8, "iterations": 7, "elapsed_ns": 10, "seed": [1]',
        ],
    )
    def test_reader_rejects_non_int_counts(self, fields):
        line = '{"gap": "6", "method": "fermat", "outcome": "found", ' + fields + "}"
        with pytest.raises(ValueError):
            record_from_json(line)

    @pytest.mark.parametrize(
        "line, wording",
        [
            ("{}", "a bench record needs the field 'n_bits'"),
            ('{"n_bits": 8, "method": "fermat", "iterations": 7, "elapsed_ns": 10}',
             "a bench record needs the field 'outcome'"),
            ('{"n_bits": 8, "iterations": 7, "elapsed_ns": 10, "outcome": "found"}',
             "a bench record needs the field 'method'"),
            ('{"n_bits": 8, "method": 5, "iterations": 7, "elapsed_ns": 10, "outcome": "found"}',
             r"method must be one of \('fermat', 'xscan'\), got 5"),
            ('{"n_bits": 8, "method": "rho", "iterations": 7, "elapsed_ns": 10, "outcome": "found"}',
             "method must be one of .*, got 'rho'"),
            ('{"n_bits": 8, "method": "xscan", "iterations": 7, "elapsed_ns": 10, "outcome": "zzz"}',
             "outcome must be one of .*'budget_exhausted'.*, got 'zzz'"),
            ('{"n_bits": 8, "method": "xscan", "iterations": 7, "elapsed_ns": 10, "outcome": null}',
             "outcome must be one of .*, got None"),
        ],
    )
    def test_reader_rejects_a_missing_or_unknown_field(self, line, wording):
        with pytest.raises(ValueError, match=wording):
            record_from_json(line)

    @pytest.mark.parametrize("line", ["[]", "5", '"x"', "null"])
    def test_reader_rejects_a_line_that_is_not_an_object(self, line):
        with pytest.raises(ValueError, match="a bench record must be a JSON object"):
            record_from_json(line)


_BIG = 3**126  # a 200-bit count

_GOLDEN_LINES = [
    (None, '{"elapsed_ns": 1234, "gap": null, "iterations": 7, "method": "xscan", '
           '"n_bits": 330, "outcome": "budget_exhausted", "predicted_iterations": null, '
           '"seed": null}'),
    (0, '{"elapsed_ns": 0, "gap": "0", "iterations": 0, "method": "xscan", '
        '"n_bits": 330, "outcome": "budget_exhausted", "predicted_iterations": 0, '
        '"seed": "0"}'),
    (2**53 - 1, '{"elapsed_ns": 9007199254740991, "gap": "9007199254740991", '
                '"iterations": 9007199254740991, "method": "xscan", "n_bits": 330, '
                '"outcome": "budget_exhausted", "predicted_iterations": 9007199254740991, '
                '"seed": "9007199254740991"}'),
    (2**53, '{"elapsed_ns": "9007199254740992", "gap": "9007199254740992", '
            '"iterations": "9007199254740992", "method": "xscan", "n_bits": 330, '
            '"outcome": "budget_exhausted", "predicted_iterations": "9007199254740992", '
            '"seed": "9007199254740992"}'),
    (-(2**53), '{"elapsed_ns": "-9007199254740992", "gap": "-9007199254740992", '
               '"iterations": "-9007199254740992", "method": "xscan", "n_bits": 330, '
               '"outcome": "budget_exhausted", "predicted_iterations": "-9007199254740992", '
               '"seed": "-9007199254740992"}'),
    (_BIG, '{"elapsed_ns": "1310020508637620352391208095712502073964245732475093456566329", '
           '"gap": "1310020508637620352391208095712502073964245732475093456566329", '
           '"iterations": "1310020508637620352391208095712502073964245732475093456566329", '
           '"method": "xscan", "n_bits": 330, "outcome": "budget_exhausted", '
           '"predicted_iterations": "1310020508637620352391208095712502073964245732475093456566329", '
           '"seed": "1310020508637620352391208095712502073964245732475093456566329"}'),
]


def _json_fields(r):
    """record_to_json's dict, written out by hand: labels as decimal
    strings, counts as numbers only below 2**53 in magnitude."""
    def count(v):
        return v if v is None or abs(v) < 2**53 else str(v)

    def label(v):
        return None if v is None else str(v)

    return {
        "n_bits": count(r.n_bits), "gap": label(r.gap), "method": r.method,
        "iterations": count(r.iterations), "elapsed_ns": count(r.elapsed_ns),
        "outcome": r.outcome, "seed": label(r.seed),
        "predicted_iterations": count(r.predicted_iterations),
    }


class TestRecordGolden:
    @pytest.mark.parametrize(
        "count, label",
        [
            (7, None),
            (2**53 - 1, 2**53 - 1),
            (2**53, 2**53),
            (-(2**53), 2**64),
            (3**126, 2**200 + 1),
        ],
    )
    def test_line_equals_sorted_keys_dump(self, count, label):
        r = BenchRecord(
            n_bits=330,
            gap=label,
            method="fermat",
            iterations=count,
            elapsed_ns=count,
            outcome="found",
            seed=label,
            predicted_iterations=None if label is None else count,
        )
        assert record_to_json(r) == json.dumps(_json_fields(r), sort_keys=True)

    @pytest.mark.parametrize("value, line", _GOLDEN_LINES)
    def test_line_is_byte_exact(self, value, line):
        r = BenchRecord(
            n_bits=330,
            gap=value,
            method="xscan",
            iterations=7 if value is None else value,
            elapsed_ns=1234 if value is None else value,
            outcome="budget_exhausted",
            seed=value,
            predicted_iterations=value,
        )
        assert record_to_json(r) == line
        assert record_from_json(line) == r

    def test_missing_required_key_raises(self):
        line = '{"n_bits": 8, "gap": "6", "method": "fermat", "elapsed_ns": 10, "outcome": "found"}'
        with pytest.raises(ValueError, match="needs the field 'iterations'"):
            record_from_json(line)


class TestRunStudy:
    def test_ladder_order_and_identities(self):
        records = run_study(bits=32, gaps=[16, 256], seed=0)
        assert [r.method for r in records] == ["fermat", "xscan", "fermat", "xscan"]
        assert records[0].gap == records[1].gap <= 16
        assert 17 <= records[2].gap == records[3].gap <= 256
        for r in records:
            assert r.outcome == "found"
            if r.method == "fermat":
                assert r.iterations == r.predicted_iterations
            else:
                assert r.iterations == r.gap // 2

    def test_sink_receives_parseable_lines(self):
        sink = io.StringIO()
        records = run_study(bits=24, gaps=[8, 64], seed=3, sink=sink)
        lines = [ln for ln in sink.getvalue().splitlines() if ln]
        assert sorted(map(record_from_json, lines), key=repr) == sorted(records, key=repr)

    def test_iteration_columns_reproducible(self):
        a = run_study(bits=40, gaps=[16, 1024], seed=5)
        b = run_study(bits=40, gaps=[16, 1024], seed=5)
        strip = lambda r: (r.n_bits, r.gap, r.method, r.iterations, r.outcome, r.seed)
        assert list(map(strip, a)) == list(map(strip, b))

    def test_infeasible_rung_warns_and_study_continues(self):
        # the [3, 3] window wants gap exactly 3; odd prime + 3 is even
        for workers in (1, 2):
            with pytest.warns(UserWarning, match=r"\[3, 3\]"):
                records = run_study(
                    bits=16, gaps=[2, 3, 4], seed=0, methods=("fermat",), workers=workers,
                )
            assert len(records) == 2
            assert records[0].gap in (1, 2)
            assert records[1].gap == 4
            # the only rung is infeasible: nothing to measure, nothing written
            sink = io.StringIO()
            with pytest.warns(UserWarning, match=r"\[1, 1\]"):
                assert run_study(
                    bits=16, gaps=[1], seed=0, sink=sink, workers=workers
                ) == []
            assert sink.getvalue() == ""

    def test_only_an_infeasible_window_is_skipped(self):
        # FeasibilityError is a ValueError, but no other ValueError becomes a skip
        assert issubclass(FeasibilityError, ValueError)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SkippedWindow would raise here
            with pytest.raises(ValueError, match="bits must be >= 4"):
                run_study(bits=3, gaps=[4, 32], seed=0)

    def test_worker_pool_matches_sequential(self):
        kwargs = dict(bits=28, gaps=[8, 128], seed=1, methods=("fermat",))
        sinks = {1: io.StringIO(), 2: io.StringIO()}
        seq = run_study(workers=1, sink=sinks[1], **kwargs)
        par = run_study(workers=2, sink=sinks[2], **kwargs)
        strip = lambda r: (r.n_bits, r.gap, r.method, r.iterations, r.outcome)
        assert list(map(strip, seq)) == list(map(strip, par))
        # the sink is written in ladder order, whatever the worker count
        for records, sink in ((seq, sinks[1]), (par, sinks[2])):
            assert list(map(record_from_json, sink.getvalue().splitlines())) == records

    def test_pool_is_capped_at_the_cell_count(self, monkeypatch):
        built = []

        class FakePool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        kwargs = dict(bits=20, seed=1, methods=("fermat",), workers=64)
        assert len(run_study(gaps=[4, 32], **kwargs)) == 2
        assert built == [2]
        assert len(run_study(gaps=[4], **kwargs)) == 1
        assert built == [2]  # one cell is measured in-process

    def test_method_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            run_study(bits=16, gaps=[4], seed=0, methods=("fermat", "rho"))
        with pytest.raises(ValueError):
            run_study(bits=16, gaps=[4], seed=0, methods=())
        with pytest.raises(ValueError, match="method 'fermat' is listed twice"):
            run_study(bits=16, gaps=[4], seed=0, methods=("fermat", "xscan", "fermat"))
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_study(bits=16, gaps=[4], seed=0, workers=0)

        def never(*args, **kwargs):
            raise AssertionError("generate_in_window was called")

        monkeypatch.setattr(bench, "generate_in_window", never)
        for workers in (1.5, "2", True):
            with pytest.raises(ValueError, match="workers must be an int, got "):
                run_study(bits=16, gaps=[4], seed=0, workers=workers)
        with pytest.raises(ValueError, match="budget must be a Budget or None, got int"):
            run_study(bits=16, gaps=[4], seed=0, budget=5)
        with pytest.raises(ValueError, match="gaps must be a nonempty sequence, got 5"):
            run_study(bits=16, gaps=5, seed=0)


def _rec(gap, iterations, n_bits=32, method="fermat", outcome="found"):
    return BenchRecord(
        n_bits=n_bits,
        gap=gap,
        method=method,
        iterations=iterations,
        elapsed_ns=100,
        outcome=outcome,
        seed=0,
        predicted_iterations=iterations,
    )


class TestScalingSummary:
    def test_groups_and_medians(self):
        records = [
            _rec(16, 3),
            _rec(16, 7),
            _rec(16, 5),
            _rec(256, 40),
            _rec(256, 60),
        ]
        table = scaling_summary(records)
        assert [r.gap for r in table.rows] == [16, 256]
        first, second = table.rows
        assert first.runs == 3 and first.median_iterations == 5.0
        assert second.runs == 2 and second.median_iterations == 50.0
        assert first.analytic_iterations == pytest.approx(analytic_iterations(16, 32))
        assert first.ratio == pytest.approx(5.0 / analytic_iterations(16, 32))

    def test_other_methods_are_ignored(self):
        records = [
            _rec(16, 5),
            _rec(256, 50),
            _rec(16, 10**9, method="xscan"),
        ]
        table = scaling_summary(records)
        assert [r.median_iterations for r in table.rows] == [5.0, 50.0]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no records to summarize"):
            scaling_summary([])

    def test_missing_method_rejected(self):
        with pytest.raises(ValueError, match="no records for method"):
            scaling_summary([_rec(16, 5, method="xscan")])

    def test_exhausted_only_rejected(self):
        records = [
            _rec(16, 100, outcome="budget_exhausted"),
            _rec(256, 100, outcome="budget_exhausted"),
        ]
        with pytest.raises(ValueError, match="larger budget"):
            scaling_summary(records)

    def test_single_gap_rejected(self):
        with pytest.raises(ValueError, match="2 distinct gaps"):
            scaling_summary([_rec(16, 3), _rec(16, 5)])

    def test_zero_gap_row_has_no_ratio(self):
        table = scaling_summary([_rec(0, 0), _rec(16, 5)])
        assert table.rows[0].ratio is None
        csv = table.as_csv()
        zero_row = csv.splitlines()[1]
        assert zero_row.split(",")[5] == ""  # empty ratio column
        text = table.as_text()
        assert " -" in text.splitlines()[1]


class TestSummaryFormats:
    def test_csv_header_exact(self):
        table = SummaryTable(rows=[])
        assert table.as_csv().splitlines()[0] == (
            "gap,n_bits,runs,median_iterations,analytic_iterations,ratio,median_elapsed_ns"
        )

    def test_csv_row_shape(self):
        row = SummaryRow(
            gap=16,
            n_bits=32,
            runs=3,
            median_iterations=5.0,
            analytic_iterations=0.0078125,
            ratio=640.0,
            median_elapsed_ns=100.0,
        )
        line = SummaryTable(rows=[row]).as_csv().splitlines()[1]
        assert line == "16,32,3,5,0.0078125,640,100"

    def test_text_is_aligned(self):
        table = scaling_summary([_rec(16, 5), _rec(256, 50)])
        lines = table.as_text().splitlines()
        assert lines[0].split() == [
            "gap", "n_bits", "runs", "median_iter", "analytic", "ratio", "median_ns",
        ]
        assert len({len(ln) for ln in lines}) == 1  # right-aligned columns

    def test_golden_table(self):
        rows = [
            SummaryRow(0, 24, 1, 0.0, 0.0, None, 1234.0),
            SummaryRow(8, 24, 2, 2.5, analytic_iterations(8, 24),
                       2.5 / analytic_iterations(8, 24), 56789.5),
            SummaryRow(2**40, 200, 3, 123456789.0, analytic_iterations(2**40, 200),
                       123456789.0 / analytic_iterations(2**40, 200), 1.5e9),
        ]
        table = SummaryTable(rows=rows)
        assert table.as_csv() == (
            "gap,n_bits,runs,median_iterations,analytic_iterations,ratio,median_elapsed_ns\n"
            "0,24,1,0,0,,1234\n"
            "8,24,2,2.5,0.00232267,1076.35,56789.5\n"
            "1099511627776,200,3,1.23457e+08,1.41765e-07,8.70858e+14,1.5e+09\n"
        )
        assert table.as_text() == (
            "          gap  n_bits  runs  median_iter     analytic     ratio  median_ns\n"
            "            0      24     1            0            0         -       1234\n"
            "            8      24     2          2.5   0.00232267  1.08e+03    56789.5\n"
            "1099511627776     200     3  1.23457e+08  1.41765e-07  8.71e+14    1.5e+09\n"
        )


    def test_text_writes_a_gap_past_2_64_as_a_power_of_two(self):
        # a 1024-bit ladder's gaps read as 2^e in the text table, while the
        # CSV keeps every gap exact
        gaps = (2**64, 2**64 + 1, 2**256, 3 * 2**270)
        rows = [SummaryRow(g, 1024, 1, 1.0, 1.0, 1.0, 1.0) for g in gaps]
        table = SummaryTable(rows=rows)
        text_gaps = [line.split()[0] for line in table.as_text().splitlines()[1:]]
        assert text_gaps == ["18446744073709551616", "2^64.00", "2^256.00", "2^271.58"]
        csv_gaps = [line.split(",")[0] for line in table.as_csv().splitlines()[1:]]
        assert csv_gaps == [str(g) for g in gaps]


class TestAnalyticCurve:
    def test_reference_point(self):
        assert analytic_iterations(1 << 20, 64) == pytest.approx(2**5.25)

    def test_zero_and_negative_gap(self):
        assert analytic_iterations(0, 64) == 0.0
        assert analytic_iterations(-5, 64) == 0.0

    def test_quadratic_in_gap(self):
        a = analytic_iterations(1 << 10, 48)
        b = analytic_iterations(1 << 11, 48)
        assert b == pytest.approx(4 * a)

    def test_halves_per_extra_modulus_bit_pair(self):
        a = analytic_iterations(1 << 10, 48)
        b = analytic_iterations(1 << 10, 50)
        assert b == pytest.approx(a / 2)

    def test_survives_wide_operands(self):
        big = analytic_iterations(1 << 400, 512)
        assert math.isfinite(big) and big == pytest.approx(2.0 ** (800 - 3 - 511.5 / 2))
        tiny = analytic_iterations(2, 1024)
        assert 0.0 < tiny < 1e-150


class TestRsa100Fixture:
    def test_shape(self):
        n = load_rsa100()
        assert len(str(n)) == 100
        assert n.bit_length() == 330
        assert n % 2 == 1

    def test_modulus_is_composite(self):
        assert not is_probable_prime(load_rsa100())

    def test_methods_tuple(self):
        assert METHODS == ("fermat", "xscan")
