"""Exact kernel tests: scalars, polynomials, rational functions, series."""

import random
from fractions import Fraction as F
from types import SimpleNamespace

import mpmath
import pytest
from exact_values import check_quotient, held_coefficients

from padelab import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    builtin_series,
    eval_rf_complex,
    format_rational,
    pade_approximant,
    parse_rational,
    parse_series_document,
    poly_product,
    precision,
    rational_normalize,
    series_from_moments,
    series_of_rational_function,
)
from padelab.core.floats import (
    ROOT_RESIDUAL_REL,
    coefficient_scale,
    eval_poly,
    eval_prepared_rf,
    find_poly_roots,
    fixed_point,
    int_form,
    prepare_rf,
    to_mpf,
)
from padelab.core.poly import convolve
from padelab.core.scalars import integer_vector
from padelab.errors import (
    DomainError,
    InputError,
    InsufficientCoefficientsError,
    NearPoleError,
    NonFiniteError,
    OriginPoleError,
    PoleEvaluationError,
    RootFindingError,
    SchemaError,
    UnknownBuiltinError,
)


class TestRationals:
    def test_normalize_examples(self):
        assert rational_normalize(105, 24) == F(35, 8)
        assert rational_normalize(-6, -4) == F(3, 2)
        assert rational_normalize(0, 7) == F(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            rational_normalize(1, 0)

    def test_parse_and_format(self):
        assert parse_rational("35/8") == F(35, 8)
        assert parse_rational("-7") == F(-7)
        assert parse_rational("3/-4") == F(-3, 4)
        assert parse_rational(12) == F(12)
        assert format_rational(F(35, 8)) == "35/8"
        assert format_rational(F(-4, 2)) == "-2"

    @pytest.mark.parametrize("bad", ["1.5", "", "x", "1/0", "1/2/3", None, 2.5])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            parse_rational(bad)

    def test_round_trip_random(self):
        rng = random.Random(20260819)
        for _ in range(200):
            x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert parse_rational(format_rational(x)) == x


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (F(1), F(2))
        assert Polynomial((0, 0)).is_zero
        assert Polynomial(()).degree == -1

    def test_product_examples(self):
        one_minus = Polynomial((1, -1))
        assert poly_product(one_minus, Polynomial((1, 1))) == Polynomial((1, 0, -1))
        assert poly_product(one_minus, Polynomial.zero()).is_zero
        assert poly_product(Polynomial((F(1, 2),)), Polynomial((2,))) == Polynomial.one()

    def test_fraction_coefficients_kept(self):
        c = F(3, 7)
        assert Polynomial((c, 1)).coeffs[0] is c
        assert type(Polynomial((True, 2)).coeffs[0]) is F

    def test_integer_convolution_matches_product(self):
        rng = random.Random(5)
        for _ in range(100):
            a = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))]
            b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))]
            ia, sa = integer_vector(a)
            ib, sb = integer_vector(b)
            assert Polynomial(a) == Polynomial([F(x, sa) for x in ia])
            full = Polynomial([F(x, sa * sb) for x in convolve(ia, ib)])
            assert full == Polynomial(a) * Polynomial(b)
            size = rng.randint(0, 8)
            cut = Polynomial([F(x, sa * sb) for x in convolve(ia, ib, size)])
            assert cut == full.truncated(size - 1)

    def test_integer_vector_scale(self):
        assert integer_vector([F(1, 2), 3, F(-5, 6)]) == ([3, 18, -5], 6)
        assert integer_vector([]) == ([], 1)

    def test_ring_laws_random(self):
        rng = random.Random(7)

        def rand_poly():
            return Polynomial(
                [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 5))]
            )

        for _ in range(100):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b).degree <= max(a.degree, b.degree)
            if not a.is_zero and not b.is_zero:
                assert (a * b).degree == a.degree + b.degree

    def test_division_and_gcd(self):
        a = Polynomial((1, -1)) * Polynomial((1, 0, 1)) * 3
        q, r = divmod(a, Polynomial((1, -1)))
        assert r.is_zero and q == Polynomial((3, 0, 3))
        g = Polynomial.gcd(a, Polynomial((1, -1)) * Polynomial((2, 2)))
        assert g == Polynomial((-1, 1))  # monic
        with pytest.raises(DomainError):
            Polynomial((1, 1)).exact_div(Polynomial((0, 1)))

    def test_eval_and_reversal(self):
        p = Polynomial((1, 2, 3))
        assert p(F(1, 2)) == F(1) + F(1) + F(3, 4)
        rev = p.reversed_for_degree(3)
        # rev(z) = z^3 * p(1/z)
        z = F(2)
        assert rev(z) == z**3 * p(1 / z)

    def test_float_coefficients_rejected(self):
        with pytest.raises(InputError):
            Polynomial((0.5,))

    def test_derivative(self):
        assert Polynomial((5, 1, 3)).derivative() == Polynomial((1, 6))
        assert Polynomial((7,)).derivative().is_zero


class TestRationalFunction:
    def test_normalization_constant_term(self):
        rf = RationalFunction(Polynomial((2, 2)), Polynomial((2, -2)))
        assert rf.den.coefficient(0) == 1
        assert rf.num == Polynomial((1, 1))

    def test_normalization_monic_at_origin_zero(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((0, 3)))
        assert rf.den == Polynomial((0, 1))
        assert rf.num == Polynomial((F(1, 3),))

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            RationalFunction(Polynomial.one(), Polynomial.zero())

    def test_reduced_and_equivalence(self):
        common = Polynomial((1, 5))
        rf = RationalFunction(Polynomial((1, 1)) * common, Polynomial((1, -1)) * common)
        red = rf.reduced()
        assert red.num == Polynomial((1, 1)) and red.den == Polynomial((1, -1))
        assert rf.equivalent_to(red) and red.equivalent_to(rf)
        assert not red.equivalent_to(RationalFunction(Polynomial((1, 2)), Polynomial((1, -1))))

    def test_exact_evaluation_and_pole(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        assert rf(F(1, 2)) == F(2)
        with pytest.raises(PoleEvaluationError):
            rf(F(1))

    def test_addition_with_polynomial(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        total = rf + Polynomial((0, 1))
        assert total(F(1, 2)) == F(2) + F(1, 2)


class TestPowerSeries:
    def test_geometric_expansions(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        assert series_of_rational_function(rf, 4).coeffs == (F(1),) * 5
        alt = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
        assert series_of_rational_function(alt, 3).coeffs == (F(1), F(-1), F(1), F(-1))

    def test_expansion_rejects_origin_pole(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((0, 1)))
        with pytest.raises(OriginPoleError):
            series_of_rational_function(rf, 3)

    def test_truncation_is_prefix(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(1, 8)
            coeffs = [F(rng.randint(-5, 5)) for _ in range(n + 1)]
            s = PowerSeries(coeffs)
            m = rng.randint(0, n)
            assert s.truncated(m).coeffs == s.coeffs[: m + 1]

    def test_coefficient_out_of_range(self):
        s = PowerSeries((1, 2))
        with pytest.raises(InsufficientCoefficientsError):
            s.coefficient(2)

    def test_builtin_exp(self):
        s = builtin_series("exp", 6)
        assert s.coeffs[:4] == (F(1), F(1), F(1, 2), F(1, 6))
        fact = 1
        for i, c in enumerate(s.coeffs):
            if i:
                fact *= i
            assert c * fact == 1

    def test_builtin_geometric(self):
        assert builtin_series("geometric", 3, 2).coeffs == (F(1), F(2), F(4), F(8))
        assert builtin_series("geometric", 2).coeffs == (F(1), F(1), F(1))

    def test_builtin_unknown(self):
        with pytest.raises(UnknownBuiltinError):
            builtin_series("contrived", 3)

    def test_moments_examples(self):
        s = series_from_moments([1, 1, 2, 6])
        assert s.coeffs == (F(1), F(-1), F(2), F(-6))
        assert s.variable == "1/z"
        assert series_from_moments([F(1, 2)]).coeffs == (F(1, 2),)
        assert series_from_moments([0, 3]).coeffs == (F(0), F(-3))

    def test_moments_involution(self):
        rng = random.Random(5)
        for _ in range(30):
            ms = [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(rng.randint(1, 9))]
            twice = series_from_moments(series_from_moments(ms).coeffs)
            assert list(twice.coeffs) == ms

    def test_variable_mixing_rejected(self):
        with pytest.raises(InputError):
            PowerSeries((1,), "z") + PowerSeries((1,), "1/z")


class TestFloats:
    def test_eval_rf_basic(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        assert eval_rf_complex(rf, 0) == 1
        assert abs(eval_rf_complex(rf, 0.5) - 2) < 1e-15

    def test_near_pole_guard(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        with pytest.raises(NearPoleError) as info:
            eval_rf_complex(rf, 1.0 + 1e-15)
        assert info.value.magnitude <= 1e-12
        with pytest.raises(NearPoleError) as info:
            eval_rf_complex(rf, 1)
        assert info.value.magnitude == 0.0

    @pytest.mark.parametrize("bits", [53, 113])
    def test_prepared_evaluation_rounds_as_mpc_arithmetic(self, bits):
        # eval_rf_complex works in mpc arithmetic and must agree with
        # eval_poly bit for bit, at every precision, 53 bits included. The
        # integer form, from one conversion, must sit within its stated
        # bound of the exact value at its dyadic point, rounded once.
        rng = random.Random(bits)

        def poly(degree):
            return Polynomial([F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                               for _ in range(degree + 1)])

        with precision(bits):
            for _ in range(20):
                rf = RationalFunction(poly(rng.randint(0, 12)), poly(rng.randint(0, 4)))
                prepared = int_form(prepare_rf(rf))
                values = held_coefficients(rf)
                for _ in range(5):
                    z = mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    expected = eval_poly(rf.num, z) / eval_poly(rf.den, z)
                    assert eval_rf_complex(rf, z) == expected
                    check_quotient(eval_prepared_rf(prepared, z), *values, fixed_point(z), bits)

    @staticmethod
    def _forms(rf):
        # the double form prepare_rf gives at 53 bits, and the integer form
        double = prepare_rf(rf)
        assert isinstance(double[2], float)
        return [double, int_form(double)]

    def test_non_finite_denominator(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        for prepared in self._forms(rf):
            with pytest.raises(NonFiniteError, match="polynomial evaluation"):
                eval_prepared_rf(prepared, mpmath.inf)
        with pytest.raises(NonFiniteError, match="polynomial evaluation"):
            eval_rf_complex(rf, mpmath.inf)

    def test_non_finite_numerator(self):
        # exact coefficients cannot overflow mpf, so a float infinity stands in
        rf = SimpleNamespace(num=SimpleNamespace(coeffs=(float("inf"),)),
                             den=SimpleNamespace(coeffs=(1,)))
        for prepared in self._forms(rf):
            with pytest.raises(NonFiniteError, match="polynomial evaluation"):
                eval_prepared_rf(prepared, 0.5)
        with pytest.raises(NonFiniteError, match="polynomial evaluation"):
            eval_rf_complex(rf, 0.5)

    def test_denominator_finiteness_checked_before_pole_guard(self):
        # den = 1 + inf*z: at z = 1 its value inf is non-finite and, against
        # an infinite threshold, also inside the guard
        rf = SimpleNamespace(num=SimpleNamespace(coeffs=(1,)),
                             den=SimpleNamespace(coeffs=(1, float("inf"))))
        for prepared in self._forms(rf):
            with pytest.raises(NonFiniteError, match="polynomial evaluation"):
                eval_prepared_rf(prepared, 1)
        with pytest.raises(NonFiniteError, match="polynomial evaluation"):
            eval_rf_complex(rf, 1)

    def test_pole_guard_checked_before_numerator_finiteness(self):
        rf = SimpleNamespace(num=SimpleNamespace(coeffs=(float("inf"),)),
                             den=SimpleNamespace(coeffs=(1, -1)))
        for prepared in self._forms(rf):
            with pytest.raises(NearPoleError, match="below near-pole threshold") as info:
                eval_prepared_rf(prepared, 1)
            assert info.value.magnitude == 0.0
        with pytest.raises(NearPoleError):
            eval_rf_complex(rf, 1)

    def test_precision_context(self):
        x = F(1, 3)
        with precision(200):
            fine = to_mpf(x)
            err_fine = abs(fine - mpmath.mpf(1) / 3)
        coarse = to_mpf(x)
        assert err_fine == 0  # same rounding at 200 bits
        assert abs(coarse - fine) < 1e-15

    def test_roots_with_residual_contract(self):
        den = Polynomial((6, -5, 1))  # roots 2 and 3
        roots = find_poly_roots(den)
        assert len(roots) == 2
        assert abs(roots[0] - 2) < 1e-12 and abs(roots[1] - 3) < 1e-12

    def test_roots_constant_empty(self):
        assert find_poly_roots(Polynomial((4,))) == []

    def test_far_root_within_horner_contract(self):
        # exp + sum 1/(1 - z/a) over a in {-5/2, 9/2, 16/3, -6}: the [1/4]
        # denominator has a spurious root near 2622.14, where rounding alone
        # leaves a residual above 1e-9 times the largest coefficient
        series = builtin_series("exp", 5)
        for a in (F(-5, 2), F(9, 2), F(16, 3), F(-6)):
            rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1 / a)))
            series = series + series_of_rational_function(rf, 5)
        den = pade_approximant(series, 1, 4).fraction.den
        with precision(53):
            roots = find_poly_roots(den)
            far = max(roots, key=abs)
            residual = abs(eval_poly(den, far))
            assert residual > ROOT_RESIDUAL_REL * coefficient_scale(den)
        assert len(roots) == 4
        assert abs(far - mpmath.mpf("2622.1401342007057")) < 1e-9 * 2622

    def test_root_past_both_contracts_rejected(self, monkeypatch):
        den = Polynomial((6, -5, 1))  # roots 2 and 3; 5/2 leaves residual 1/4
        monkeypatch.setattr(mpmath, "polyroots", lambda *a, **k: [mpmath.mpc(2.5), mpmath.mpc(3)])
        with pytest.raises(RootFindingError, match="exceeds contract"):
            find_poly_roots(den)


class TestSeriesDocuments:
    def test_explicit(self):
        src = parse_series_document({"kind": "explicit", "coeffs": ["1", "1", "1/2"]})
        assert src.series(2).coeffs == (F(1), F(1), F(1, 2))
        with pytest.raises(InsufficientCoefficientsError):
            src.series(3)

    def test_builtin_and_rational(self):
        src = parse_series_document({"kind": "builtin", "name": "geometric", "ratio": "2"})
        assert src.series(2).coeffs == (F(1), F(2), F(4))
        src = parse_series_document({"kind": "rational", "num": ["1"], "den": ["1", "-1"]})
        assert src.series(3).coeffs == (F(1),) * 4

    def test_sum(self):
        doc = {
            "kind": "sum",
            "parts": [
                {"kind": "builtin", "name": "exp"},
                {"kind": "rational", "num": ["1"], "den": ["1", "-1"]},
            ],
        }
        src = parse_series_document(doc)
        assert src.series(3).coeffs == (F(2), F(2), F(3, 2), F(7, 6))

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "explicit", "coeffs": []},
            {"kind": "explicit", "coeffs": ["1.5"]},
            {"kind": "builtin", "name": "gamma"},
            {"kind": "builtin", "name": "exp", "ratio": "2"},
            {"kind": "rational", "num": ["1"], "den": ["0"]},
            {"kind": "sum", "parts": []},
            {"kind": "mystery"},
            [],
        ],
    )
    def test_rejects_bad_documents(self, doc):
        with pytest.raises(SchemaError):
            parse_series_document(doc)

    def test_document_round_trip(self):
        docs = [
            {"kind": "explicit", "coeffs": ["1", "-2/3"]},
            {"kind": "builtin", "name": "exp"},
            {"kind": "builtin", "name": "geometric", "ratio": "-1/2"},
            {"kind": "rational", "num": ["0", "1"], "den": ["1", "0", "3"]},
        ]
        for doc in docs:
            assert parse_series_document(doc).to_document() == doc
