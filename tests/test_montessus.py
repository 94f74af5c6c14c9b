"""Row convergence experiment tests: specs, grids, matching, reports."""

import json
from fractions import Fraction as F

import mpmath
import pytest

from padelab import (
    GridSpec,
    MeromorphicSpec,
    Polynomial,
    RationalFunction,
    parse_experiment_document,
    parse_series_document,
    pole_match,
    pole_ordering_check,
    precision,
    report_to_csv_rows,
    report_to_document,
    run_row_experiment,
    taylor_of_meromorphic,
    telescoped_row_series,
)
from padelab.errors import (
    InputError,
    OriginPoleError,
    RowNotNormalError,
    SchemaError,
)
from padelab.montessus import GAP_FLAG, _squarefree_parts


def rational(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


def spec_of(doc, declared_poles=None):
    return MeromorphicSpec.from_document(doc, declared_poles=declared_poles)


EXP_PLUS_GEOMETRIC = {
    "kind": "sum",
    "parts": [
        {"kind": "builtin", "name": "exp"},
        {"kind": "rational", "num": ["1"], "den": ["1", "-1"]},
    ],
}

TWO_POLE_RATIONAL = {"kind": "rational", "num": ["1", "2"], "den": ["1", "-5", "6"]}

EVEN_PAIR = {"kind": "rational", "num": ["1"], "den": ["1", "0", "-1"]}


class TestSpec:
    def test_taylor_of_sum(self):
        spec = spec_of(EXP_PLUS_GEOMETRIC)
        assert taylor_of_meromorphic(spec, 3).coeffs == (F(2), F(2), F(3, 2), F(7, 6))
        assert spec.exp_count == 1
        assert not spec.is_exactly_rational

    def test_polynomial_part_folds_into_rational(self):
        doc = {
            "kind": "sum",
            "parts": [
                {"kind": "explicit", "coeffs": ["1", "3"]},
                {"kind": "rational", "num": ["1"], "den": ["1", "-1"]},
            ],
        }
        spec = spec_of(doc)
        assert spec.is_exactly_rational
        assert spec.rational.equivalent_to(rational((2, 2, -3), (1, -1)))

    def test_geometric_becomes_rational(self):
        spec = spec_of({"kind": "builtin", "name": "geometric", "ratio": "2"})
        [pole] = spec.poles()
        assert abs(pole.location - 0.5) < 1e-14
        assert pole.multiplicity == 1

    def test_origin_pole_rejected(self):
        with pytest.raises(OriginPoleError):
            spec_of({"kind": "rational", "num": ["1"], "den": ["0", "1"]})

    def test_evaluate(self):
        spec = spec_of(EXP_PLUS_GEOMETRIC)
        got = spec.evaluate(0.25)
        want = mpmath.exp(0.25) + mpmath.mpf(4) / 3
        assert abs(got - want) < 1e-14

    def test_poles_sorted_with_multiplicity(self):
        doc = {
            "kind": "rational",
            "num": ["1"],
            "den": ["1", "0", "-2", "0", "1"],  # (1 - z^2)^2
        }
        poles = spec_of(doc).poles()
        assert [p.multiplicity for p in poles] == [2, 2]
        locs = sorted((p.location.real, p.location.imag) for p in poles)
        assert abs(locs[0][0] + 1) < 1e-12 and abs(locs[1][0] - 1) < 1e-12

    def test_declared_poles_accepted(self):
        spec = spec_of(TWO_POLE_RATIONAL, declared_poles=[(F(1, 3), 1), (F(1, 2), 1)])
        poles = spec.poles()
        assert [p.multiplicity for p in poles] == [1, 1]
        assert abs(poles[0].location - mpmath.mpf(1) / 3) < 1e-15

    def test_declared_poles_checked_against_denominator(self):
        spec = spec_of(TWO_POLE_RATIONAL, declared_poles=[(F(1, 3), 1), (F(2), 1)])
        with pytest.raises(InputError):
            spec.poles()
        short = spec_of(TWO_POLE_RATIONAL, declared_poles=[(F(1, 3), 1)])
        with pytest.raises(InputError):
            short.poles()


class TestSquarefree:
    def test_multiplicities_recovered(self):
        a = Polynomial((-1, 1))
        b = Polynomial((2, 1))
        prod = a * a * b * b * b
        parts = _squarefree_parts(prod)
        by_mult = {mult: factor for factor, mult in parts if factor.degree > 0}
        assert by_mult[2] == a
        assert by_mult[3] == b

    def test_squarefree_input_passes_through(self):
        p = Polynomial((-6, 5, -1)).monic()
        parts = [(f, m) for f, m in _squarefree_parts(p) if f.degree > 0]
        assert parts == [(p, 1)]


class TestOrderingCheck:
    def test_gap_present(self):
        check = pole_ordering_check(spec_of(TWO_POLE_RATIONAL), 1)
        assert check.gap_ok
        assert check.inner == pytest.approx(1 / 3)
        assert check.outer == pytest.approx(1 / 2)

    def test_exactly_p_slots(self):
        check = pole_ordering_check(spec_of(TWO_POLE_RATIONAL), 2)
        assert check.gap_ok
        assert check.outer is None

    def test_equal_moduli_violation(self):
        check = pole_ordering_check(spec_of(EVEN_PAIR), 1)
        assert not check.gap_ok
        assert check.note == GAP_FLAG
        assert check.moduli == (1.0, 1.0)

    def test_too_few_slots(self):
        check = pole_ordering_check(spec_of({"kind": "builtin", "name": "exp"}), 1)
        assert not check.gap_ok
        assert "0 pole slots" in check.note

    def test_row_zero(self):
        check = pole_ordering_check(spec_of(TWO_POLE_RATIONAL), 0)
        assert check.gap_ok
        assert check.inner is None


class TestGrid:
    def test_points_stay_inside_radius(self):
        grid = GridSpec(radius=0.5, rim_points=12, interior_circles=2, points_per_circle=5)
        pts = grid.points()
        assert len(pts) == 22
        assert all(abs(z) <= 0.5 + 1e-15 for z in pts)
        assert max(abs(z) for z in pts) == pytest.approx(0.5)

    def test_exclusion_drops_near_pole_points(self):
        grid = GridSpec(radius=1.0, rim_points=8, interior_circles=0,
                        points_per_circle=1, exclusion_radius=0.1)
        pts = grid.points([mpmath.mpc(1, 0)])
        assert len(pts) == 7
        assert all(abs(z - 1) >= 0.1 for z in pts)

    def test_default_exclusion_factor(self):
        assert GridSpec(radius=2.0).exclusion == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 0.0},
            {"radius": -1.0},
            {"radius": 1.0, "rim_points": 0},
            {"radius": 1.0, "interior_circles": -1},
            {"radius": 1.0, "exclusion_radius": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            GridSpec(**kwargs).validate()


class TestPoleMatch:
    def test_plain_pairing(self):
        result = pole_match([mpmath.mpc(1.01), mpmath.mpc(-0.99)],
                            [(0, mpmath.mpc(1)), (1, mpmath.mpc(-1))])
        assert len(result.matches) == 2
        assert result.spurious == () and result.unmatched_slots == ()
        assert result.matches[0].slot == 0
        assert abs(result.matches[0].root - 1.01) < 1e-15
        assert result.matches[0].distance == pytest.approx(0.01)

    def test_spurious_root(self):
        result = pole_match([mpmath.mpc(1), mpmath.mpc(50)], [(0, mpmath.mpc(1))])
        assert len(result.matches) == 1
        assert len(result.spurious) == 1
        assert abs(result.spurious[0] - 50) < 1e-15

    def test_unmatched_slot(self):
        result = pole_match([mpmath.mpc(1)], [(0, mpmath.mpc(1)), (1, mpmath.mpc(-1))])
        assert result.unmatched_slots == (1,)

    def test_exact_tie_is_deterministic(self):
        result = pole_match([mpmath.mpc(0)], [(0, mpmath.mpc(1)), (1, mpmath.mpc(-1))])
        assert result.matches[0].slot == 0
        assert result.unmatched_slots == (1,)

    def test_empty_inputs(self):
        result = pole_match([], [])
        assert result == pole_match([], [])
        assert result.matches == ()


class TestExperiment:
    def test_exact_recovery_short_circuit(self):
        spec = spec_of(TWO_POLE_RATIONAL)
        report = run_row_experiment(spec, 2, 1, 4, GridSpec(radius=0.25))
        assert report.gap_ok
        for record in report.records:
            assert record.exact and not record.block
            assert record.sup_error == 0
            assert "exact recovery" in record.flags
            assert all(m.distance == 0 for m in record.matches)
            assert len(record.matches) == 2

    def test_distances_shrink_for_meromorphic_function(self):
        spec = spec_of(EXP_PLUS_GEOMETRIC)
        grid = GridSpec(radius=0.5, rim_points=16, interior_circles=1,
                        points_per_circle=8)
        report = run_row_experiment(spec, 1, 2, 8, grid)
        assert report.gap_ok and report.flags == ()
        dist = [r.matches[0].distance for r in report.records]
        sups = [r.sup_error for r in report.records]
        assert dist[-1] < dist[0] / 100
        assert sups[-1] < sups[0] / 100
        assert report.rates["sup_error"]["log_slope"] < 0
        assert report.rates["pole_distance"][0]["log_slope"] < 0
        assert report.rates["modulus_ratio"] is None  # single pole slot

    def test_gap_violation_is_flagged_not_fatal(self):
        spec = spec_of(EVEN_PAIR)
        report = run_row_experiment(spec, 1, 1, 6, GridSpec(radius=0.5))
        assert not report.gap_ok
        assert GAP_FLAG in report.flags
        for record in report.records:
            assert GAP_FLAG in record.flags
            if record.n % 2 == 1:
                assert record.block
            else:
                assert record.unmatched_slots == (0,)
                assert record.roots == ()

    def test_removable_singularity_skips_no_grid_point(self):
        # exp + (1-2z)/(1-2z): the rational part reduces to 1, so z = 0.5 on
        # the rim is an ordinary point and must be measured at every n
        doc = {"kind": "sum", "parts": [
            {"kind": "builtin", "name": "exp"},
            {"kind": "rational", "num": ["1", "-2"], "den": ["1", "-2"]},
        ]}
        spec = spec_of(doc)
        assert spec.poles() == ()
        report = run_row_experiment(spec, 0, 2, 6, GridSpec(radius=0.5))
        for record in report.records:
            assert record.skipped_points == 0
            assert record.sup_error is not None

    def test_spec_parsed_before_precision_change(self):
        # the CLI parses the document, then sets the document's precision:
        # the grid must be evaluated at the run's precision, not the parse's
        doc = {
            "function": {"kind": "sum", "parts": [
                {"kind": "builtin", "name": "exp"},
                {"kind": "rational", "num": ["1"], "den": ["1", "-3/7"]},
            ]},
            "p": 1, "n_min": 2, "n_max": 8,
            "grid": {"radius": 0.5, "rim_points": 16, "interior_circles": 1,
                     "points_per_circle": 8},
        }
        parsed_at_53 = parse_experiment_document(doc)
        with precision(113):
            parsed_at_113 = parse_experiment_document(doc)
            reports = [
                report_to_document(run_row_experiment(c.spec, c.p, c.n_min, c.n_max, c.grid))
                for c in (parsed_at_53, parsed_at_113)
            ]
        assert reports[0]["precision"] == 113
        assert reports[0] == reports[1]

    def test_radius_must_sit_inside_excluded_pole(self):
        spec = spec_of(EXP_PLUS_GEOMETRIC)
        with pytest.raises(InputError):
            run_row_experiment(spec, 0, 2, 4, GridSpec(radius=1.0))
        spec2 = spec_of(TWO_POLE_RATIONAL)
        with pytest.raises(InputError):
            run_row_experiment(spec2, 1, 1, 4, GridSpec(radius=0.6))

    def test_bad_range(self):
        spec = spec_of(TWO_POLE_RATIONAL)
        with pytest.raises(InputError):
            run_row_experiment(spec, 2, 3, 2, GridSpec(radius=0.25))


class TestTelescoping:
    def test_exact_partial_sums_reproduce_entries(self):
        from padelab import builtin_series, row_sequence

        s = builtin_series("exp", 10)
        z = F(1, 4)
        sums = telescoped_row_series(s, 1, 1, 5, z)
        entries = row_sequence(s, 1, 1, 5)
        assert all(isinstance(v, F) for v in sums)
        assert sums == [e.fraction(z) for e in entries]

    def test_float_mode_converges(self):
        from padelab import builtin_series

        s = builtin_series("exp", 14)
        sums = telescoped_row_series(s, 0, 0, 12, 0.3)
        assert abs(sums[-1] - mpmath.exp(0.3)) < 1e-10

    def test_blocked_range_rejected(self):
        spec = spec_of(EVEN_PAIR)
        series = spec.taylor(6)
        with pytest.raises(RowNotNormalError):
            telescoped_row_series(series, 1, 0, 3, F(1, 4))

    def test_repeated_entry_rejected(self):
        # the Taylor sums of 1/(1 - z^2) repeat: [0/0] = [1/0] = 1
        series = spec_of(EVEN_PAIR).taylor(6)
        with pytest.raises(RowNotNormalError, match=r"block at \[1/0\]"):
            telescoped_row_series(series, 0, 0, 4, F(1, 4))


class TestReports:
    def make_report(self):
        spec = spec_of(EXP_PLUS_GEOMETRIC)
        grid = GridSpec(radius=0.5, rim_points=8, interior_circles=1,
                        points_per_circle=4)
        return run_row_experiment(spec, 1, 2, 5, grid)

    def test_document_shape(self):
        report = self.make_report()
        doc = report_to_document(report)
        assert doc["p"] == 1 and doc["n_min"] == 2 and doc["n_max"] == 5
        assert doc["gap_ok"] is True
        assert doc["function"] == EXP_PLUS_GEOMETRIC
        assert len(doc["records"]) == 4
        assert doc["grid"]["point_count"] == report.grid_point_count
        for record in doc["records"]:
            assert set(record) >= {"n", "block", "exact", "sup_error", "roots",
                                   "matches", "flags"}
        json.dumps(doc)  # everything must already be JSON-ready

    def test_csv_rows_cover_every_n(self):
        report = self.make_report()
        rows = report_to_csv_rows(report)
        assert rows[0][0] == "n"
        assert {row[0] for row in rows[1:]} == {2, 3, 4, 5}

    def test_csv_rows_for_gap_violation(self):
        spec = spec_of(EVEN_PAIR)
        report = run_row_experiment(spec, 1, 1, 4, GridSpec(radius=0.5))
        rows = report_to_csv_rows(report)
        assert {row[0] for row in rows[1:]} == {1, 2, 3, 4}
        assert all(GAP_FLAG in row[6] for row in rows[1:])


class TestExperimentDocuments:
    def good(self):
        return {
            "function": EXP_PLUS_GEOMETRIC,
            "p": 1,
            "n_min": 2,
            "n_max": 6,
            "grid": {"radius": 0.5},
        }

    def test_good_document(self):
        config = parse_experiment_document(self.good())
        assert config.p == 1
        assert config.grid.radius == 0.5
        assert config.grid.rim_points == 64
        assert config.precision is None
        assert config.spec.exp_count == 1

    def test_grid_overrides_and_precision(self):
        doc = self.good()
        doc["grid"].update(rim_points=10, interior_circles=0, points_per_circle=3,
                           exclusion_radius=0.01)
        doc["precision"] = 100
        config = parse_experiment_document(doc)
        assert config.grid.rim_points == 10
        assert config.grid.exclusion == 0.01
        assert config.precision == 100

    def test_declared_poles_parsed(self):
        doc = {
            "function": TWO_POLE_RATIONAL,
            "p": 2,
            "n_min": 1,
            "n_max": 3,
            "grid": {"radius": 0.2},
            "declared_poles": [
                {"re": 1 / 3, "multiplicity": 1},
                {"re": 0.5, "multiplicity": 1},
            ],
        }
        config = parse_experiment_document(doc)
        assert len(config.spec.poles()) == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("function"),
            lambda d: d.update(p=-1),
            lambda d: d.update(p="1"),
            lambda d: d.update(n_max=1),
            lambda d: d.pop("grid"),
            lambda d: d.update(grid={}),
            lambda d: d.update(grid={"radius": -2}),
            lambda d: d.update(precision=4),
            lambda d: d.update(declared_poles=[]),
            lambda d: d.update(declared_poles=[{"re": 1.0, "multiplicity": 0}]),
        ],
    )
    def test_rejects_bad_documents(self, mutate):
        doc = self.good()
        mutate(doc)
        with pytest.raises(SchemaError):
            parse_experiment_document(doc)
