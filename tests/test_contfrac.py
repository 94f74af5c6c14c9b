"""Continued fraction engine tests: recurrences, recovery, evaluation."""

import random
from fractions import Fraction as F

import mpmath
import pytest

from padelab import (
    AlgebraicCF,
    NumericCF,
    Polynomial,
    builtin_algebraic_cf,
    builtin_series,
    cf_from_convergents,
    cf_to_document,
    convergent,
    euclid_cf,
    evaluate_cf,
    order_of_contact,
    parse_cf_document,
    sqrt_cf,
)
from padelab.errors import (
    ConvergentIndexError,
    DegenerateSequenceError,
    IndeterminateTruncationError,
    InputError,
    SchemaError,
    UnknownBuiltinError,
)


def terms_of(cf):
    """Simple-fraction view [q0; q1, q2, ...] for numeric fractions."""
    assert all(cf.partial(k)[0] == 1 for k in range(1, cf.length + 1))
    return [cf.q0] + [cf.partial(k)[1] for k in range(1, cf.length + 1)]


class TestEuclid:
    def test_worked_example(self):
        cf = euclid_cf(F(105, 24))
        assert terms_of(cf) == [4, 2, 1, 2]
        assert convergent(cf, 3).reduced() == F(35, 8)
        assert tuple(convergent(cf, 3)) == (35, 8)

    def test_integer_and_unit_fraction(self):
        assert terms_of(euclid_cf(7)) == [7]
        assert terms_of(euclid_cf(F(1, 3))) == [0, 3]
        assert terms_of(euclid_cf(F(-7, 2))) == [-4, 2]

    def test_string_input(self):
        assert terms_of(euclid_cf("105/24")) == [4, 2, 1, 2]

    def test_last_convergent_reproduces_input(self):
        rng = random.Random(11)
        for _ in range(100):
            x = F(rng.randint(-999, 999), rng.randint(1, 999))
            cf = euclid_cf(x)
            assert convergent(cf, cf.length).reduced() == x

    def test_partial_quotients_positive_after_head(self):
        cf = euclid_cf(F(-355, 113))
        for k in range(1, cf.length + 1):
            assert cf.partial(k)[1] >= 1


class TestSqrt:
    def test_three(self):
        assert terms_of(sqrt_cf(3, 5)) == [1, 1, 2, 1, 2]

    def test_two(self):
        assert terms_of(sqrt_cf(2, 4)) == [1, 2, 2, 2]

    def test_perfect_square_is_head_only(self):
        cf = sqrt_cf(4, 10)
        assert terms_of(cf) == [2]
        assert cf.length == 0

    def test_convergents_approach_root(self):
        with mpmath.workprec(200):
            target = mpmath.sqrt(7)
            cf = sqrt_cf(7, 12)
            errs = [
                abs(mpmath.mpf(convergent(cf, k).reduced().numerator)
                    / convergent(cf, k).reduced().denominator - target)
                for k in (2, 5, 8, 11)
            ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("n,k", [(-1, 3), (2.0, 3), (2, 0), (2, -1), (True, 3)])
    def test_rejects_bad_arguments(self, n, k):
        with pytest.raises(InputError):
            sqrt_cf(n, k)


class TestRecurrence:
    def test_index_validation(self):
        cf = euclid_cf(F(105, 24))
        with pytest.raises(ConvergentIndexError):
            cf.convergent(4)
        with pytest.raises(ConvergentIndexError):
            cf.convergent(-1)

    def test_determinant_identity_random(self):
        rng = random.Random(314)
        for _ in range(100):
            n = rng.randint(1, 8)
            q0 = F(rng.randint(-9, 9))
            partials = []
            for _ in range(n):
                p = F(rng.choice([t for t in range(-9, 10) if t]))
                q = F(rng.randint(-9, 9))
                partials.append((p, q))
            cf = NumericCF(q0, partials)
            pairs = cf.convergent_pairs(n)
            prod = F(1)
            for k in range(1, n + 1):
                prod *= cf.partial(k)[0]
                a_k, b_k = pairs[k]
                a_1, b_1 = pairs[k - 1]
                assert a_k * b_1 - a_1 * b_k == (-1) ** (k - 1) * prod

    def test_zero_partial_numerator_rejected(self):
        with pytest.raises(InputError):
            NumericCF(F(1), [(F(0), F(2))])

    def test_prefix(self):
        cf = euclid_cf(F(105, 24))
        head = cf.prefix(2)
        assert terms_of(head) == [4, 2, 1]
        assert head.convergent(2) == cf.convergent(2)


class TestRecovery:
    def test_round_trip_random(self):
        rng = random.Random(2718)
        for _ in range(60):
            n = rng.randint(1, 7)
            q0 = F(rng.randint(-9, 9), rng.randint(1, 4))
            partials = [
                (
                    F(rng.choice([t for t in range(-9, 10) if t]), rng.randint(1, 4)),
                    F(rng.randint(1, 9)),
                )
                for _ in range(n)
            ]
            cf = NumericCF(q0, partials)
            back = cf_from_convergents(cf.convergent_pairs(n))
            assert back.convergent_offset == 0
            assert back.q0 == q0
            assert [back.partial(k) for k in range(1, n + 1)] == partials

    def test_nonunit_b0_gets_zero_head(self):
        back = cf_from_convergents([(F(1), F(2)), (F(3), F(4))])
        assert back.convergent_offset == 1
        assert back.q0 == 0
        assert tuple(back.convergent(1)) == (1, 2)
        assert tuple(back.convergent(2)) == (3, 4)

    def test_algebraic_round_trip(self):
        x = Polynomial.variable()
        cf = AlgebraicCF(Polynomial.zero(), [(x, Polynomial.one()), (-x * x, Polynomial((3,)))])
        back = cf_from_convergents(cf.convergent_pairs(2))
        assert back.algebraic
        assert back.q0 == cf.q0
        assert [back.partial(k) for k in (1, 2)] == [cf.partial(k) for k in (1, 2)]

    def test_zero_forced_numerator_reported(self):
        with pytest.raises(DegenerateSequenceError) as info:
            cf_from_convergents([(F(1), F(1)), (F(2), F(2))])
        assert info.value.index == 1

    def test_proportional_consecutive_pairs_degenerate(self):
        # (4, 2) repeats the value of (2, 1), forcing a zero partial numerator
        with pytest.raises(DegenerateSequenceError) as info:
            cf_from_convergents([(F(1), F(1)), (F(2), F(1)), (F(4), F(2))])
        assert info.value.index == 2

    def test_inexact_polynomial_step_reported(self):
        z = Polynomial.variable()
        pairs = [
            (Polynomial.one(), Polynomial.one()),
            (Polynomial((1, 1)), Polynomial.one()),
            (z * z, Polynomial((1, 2))),
        ]
        with pytest.raises(DegenerateSequenceError) as info:
            cf_from_convergents(pairs)
        assert info.value.index == 2
        # D_2 = z: dividing z^2 - 2z - 1 by it needs a zero constant term
        assert str(info.value) == (
            "no exact polynomial term at index 2: polynomial division is not exact"
        )

    def test_inexact_division_by_non_monomial_reported(self):
        pairs = [
            (Polynomial.one(), Polynomial.one()),
            (Polynomial((2, 1)), Polynomial.one()),
            (Polynomial((0, 1)), Polynomial((1, 1))),
        ]
        with pytest.raises(DegenerateSequenceError) as info:
            cf_from_convergents(pairs)
        assert info.value.index == 2
        assert str(info.value) == (
            "no exact polynomial term at index 2: polynomial division is not exact"
        )

    def test_prefix_keeps_offset(self):
        back = cf_from_convergents([(F(1), F(2)), (F(3), F(4)), (F(7), F(9))])
        head = back.prefix(2)
        assert head.convergent_offset == 1
        assert tuple(head.convergent(2)) == (3, 4)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            cf_from_convergents([])


class TestBuiltins:
    def test_tan_terms(self):
        cf = builtin_algebraic_cf("tan")
        assert cf.length is None
        assert cf.q0.is_zero
        assert cf.partial(1) == (Polynomial.variable(), Polynomial.one())
        assert cf.partial(2) == (Polynomial((0, 0, -1)), Polynomial((3,)))
        assert cf.partial(5) == (Polynomial((0, 0, -1)), Polynomial((9,)))

    def test_exp_denominator_pattern(self):
        cf = builtin_algebraic_cf("exp")
        got = [cf.partial(k)[1].coefficient(0) for k in range(1, 9)]
        assert got == [1, -2, -3, 2, 5, -2, -7, 2]
        assert all(cf.partial(k)[0] == Polynomial.variable() for k in range(1, 9))

    def test_exp_convergents_match_series(self):
        cf = builtin_algebraic_cf("exp")
        s = builtin_series("exp", 16)
        for k in range(1, 7):
            rf = cf.convergent(k).reduced()
            contact = order_of_contact(s, rf)
            assert contact is not None and contact >= k + 1

    def test_unknown_name(self):
        with pytest.raises(UnknownBuiltinError):
            builtin_algebraic_cf("cot")


class TestEvaluation:
    def test_tan_backward(self):
        cf = builtin_algebraic_cf("tan")
        val = evaluate_cf(cf, 0.5, 9)
        assert abs(val - mpmath.tan(0.5)) < 1e-14

    def test_exp_partial_sum_accuracy(self):
        cf = builtin_algebraic_cf("exp")
        val = evaluate_cf(cf, 1, 4)
        assert abs(val - mpmath.e) < 2e-2
        better = evaluate_cf(cf, 1, 10)
        assert abs(better - mpmath.e) < 1e-9

    def test_methods_agree(self):
        cf = builtin_algebraic_cf("tan")
        b = evaluate_cf(cf, 0.3, 6, method="backward")
        f = evaluate_cf(cf, 0.3, 6, method="forward")
        assert abs(b - f) < 1e-13

    def test_numeric_evaluation(self):
        cf = sqrt_cf(2, 10)
        val = evaluate_cf(cf, 0, 9)
        assert abs(val - mpmath.sqrt(2)) < 1e-6

    def test_indeterminate_truncation(self):
        cf = NumericCF(F(0), [(F(1), F(0))])
        with pytest.raises(IndeterminateTruncationError) as info:
            evaluate_cf(cf, 0, 1)
        assert info.value.level == 1

    def test_unknown_method(self):
        with pytest.raises(InputError):
            evaluate_cf(euclid_cf(F(3, 2)), 0, 1, method="sideways")


class TestDocuments:
    def test_simple_form_round_trip(self):
        cf = euclid_cf(F(105, 24))
        doc = cf_to_document(cf)
        assert doc == {"q0": "4", "terms": ["2", "1", "2"]}
        back = parse_cf_document(doc)
        assert terms_of(back) == [4, 2, 1, 2]

    def test_general_numeric_form(self):
        cf = NumericCF(F(1, 2), [(F(-2), F(3)), (F(1, 3), F(4))])
        doc = cf_to_document(cf)
        assert doc == {"q0": "1/2", "partials": [["-2", "3"], ["1/3", "4"]]}
        back = parse_cf_document(doc)
        assert back.q0 == F(1, 2)
        assert back.partial(2) == (F(1, 3), F(4))

    def test_algebraic_form_round_trip(self):
        cf = builtin_algebraic_cf("tan").prefix(3)
        doc = cf_to_document(cf)
        assert doc["q0"] == ["0"]
        assert doc["partials"][1] == [["0", "0", "-1"], ["3"]]
        back = parse_cf_document(doc)
        assert back.algebraic
        assert back.convergent(3) == cf.convergent(3)

    def test_unbounded_rejected(self):
        with pytest.raises(InputError):
            cf_to_document(builtin_algebraic_cf("exp"))

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"q0": "1", "terms": "2"},
            {"q0": "1", "partials": [["1"]]},
            {"q0": ["1"], "terms": ["2"]},
            {"q0": "1", "terms": ["2.5"]},
            {"q0": ["1"], "partials": [["1", "2"]]},
            {"q0": "1", "terms": ["2"], "offset": -1},
            {"q0": "1", "partials": [["1", "2"]], "offset": True},
            {"q0": ["1"], "partials": [[["1"], ["2"]]], "offset": "1"},
            {"q0": "0", "terms": ["2"], "offset": 2},
            {"q0": "3", "partials": [["1", "2"]], "offset": 1},
            {"q0": ["1"], "partials": [[["1"], ["2"]]], "offset": 1},
        ],
    )
    def test_rejects_bad_documents(self, doc):
        with pytest.raises(InputError):
            parse_cf_document(doc)

    @pytest.mark.parametrize(
        "q0, partial", [("0", ["2", "3"]), (["0"], [["2"], ["3"]]), ([], [["2"], ["3"]])]
    )
    def test_offset_on_zero_head(self, q0, partial):
        doc = {"q0": q0, "partials": [partial]}
        assert parse_cf_document({**doc, "offset": 1}).convergent_offset == 1
        with pytest.raises(SchemaError, match=r"\(at \$\.offset\)"):
            parse_cf_document({**doc, "offset": 2})
