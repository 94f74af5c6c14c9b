"""Approximant, determinant, and table structure tests."""

import random
from fractions import Fraction as F

import pytest

from padelab import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    builtin_series,
    exact_det,
    exact_solve,
    hadamard_polynomial,
    hankel_det,
    hankel_grid,
    order_of_contact,
    pade_approximant,
    pade_table,
    row_sequence,
    row_to_cf,
    series_of_rational_function,
)
from padelab.errors import (
    InputError,
    InsufficientCoefficientsError,
    NonNormalWindowError,
    OriginPoleError,
    RowNotNormalError,
)


def rational(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


def one_over_one_minus_z2(order):
    return series_of_rational_function(rational((1,), (1, 0, -1)), order)


class TestExactLinearAlgebra:
    def test_det_examples(self):
        assert exact_det([[F(2)]]) == 2
        assert exact_det([[1, 2], [3, 4]]) == -2
        assert exact_det([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
        assert exact_det([[1, 2], [2, 4]]) == 0
        assert exact_det([]) == 1

    def test_det_row_swap_sign(self):
        a = [[F(0), F(1)], [F(2), F(3)]]
        assert exact_det(a) == -2

    def test_solve_cramer(self):
        sol = exact_solve([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
        assert sol == [F(1), F(3)]

    def test_solve_singular_is_none(self):
        assert exact_solve([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]) is None

    def test_solve_matches_random_systems(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            x = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
            sol = exact_solve(a, b)
            if exact_det(a) == 0:
                assert sol is None
            else:
                assert sol == x


class TestHankel:
    def test_size_one_is_coefficient(self):
        s = builtin_series("exp", 6)
        for m in range(5):
            assert hankel_det(s, m, 1) == s.coefficient(m)

    def test_exp_window(self):
        s = builtin_series("exp", 4)
        assert hankel_det(s, 0, 2) == F(-1, 2)
        assert hankel_det(s, 1, 2) == F(-1, 12)

    def test_geometric_vanishes(self):
        s = builtin_series("geometric", 6)
        for m in range(2):
            assert hankel_det(s, m, 2) == 0

    def test_empty_window_convention(self):
        s = builtin_series("exp", 2)
        assert hankel_det(s, 0, 0) == 1
        assert hankel_det(s, 5, 0) == 1

    def test_grid_shape_and_values(self):
        s = builtin_series("exp", 6)
        grid = hankel_grid(s, 2, 2)
        assert len(grid) == 3 and all(len(row) == 2 for row in grid)
        assert grid[0] == [hankel_det(s, 0, 1), hankel_det(s, 0, 2)]
        assert grid[2][0] == F(1, 2)

    def test_validation(self):
        s = builtin_series("exp", 6)
        with pytest.raises(InputError):
            hankel_det(s, -1, 1)
        with pytest.raises(InputError):
            hankel_det(s, 0, -1)
        with pytest.raises(InsufficientCoefficientsError):
            hankel_det(s, 5, 2)


class TestApproximant:
    def test_exp_three_four(self):
        s = builtin_series("exp", 7)
        entry = pade_approximant(s, 3, 4)
        assert not entry.is_block
        assert entry.fraction.num.coeffs == (F(1), F(3, 7), F(1, 14), F(1, 210))
        assert entry.fraction.den.coeffs == (
            F(1),
            F(-4, 7),
            F(1, 7),
            F(-2, 105),
            F(1, 840),
        )

    def test_exp_three_four_contact(self):
        s = builtin_series("exp", 10)
        entry = pade_approximant(s, 3, 4)
        assert order_of_contact(s, entry.fraction) == 8
        expansion = series_of_rational_function(entry.fraction, 8)
        assert expansion.coefficient(8) == F(17, 705600)

    def test_column_zero_is_taylor_sum(self):
        s = builtin_series("exp", 5)
        for L in range(5):
            entry = pade_approximant(s, L, 0)
            assert entry.fraction.den == Polynomial.one()
            assert entry.fraction.num.coeffs == s.coeffs[: L + 1]

    def test_denominator_normalized_at_one(self):
        s = series_of_rational_function(rational((1, 2), (1, -5, 6)), 8)
        entry = pade_approximant(s, 3, 2)
        assert entry.fraction.den.coefficient(0) == 1

    def test_exact_recovery_of_rational(self):
        rf = rational((1, 2), (1, -5, 6))
        s = series_of_rational_function(rf, 8)
        entry = pade_approximant(s, 1, 2)
        assert entry.fraction.equivalent_to(rf)

    def test_block_marker(self):
        s = one_over_one_minus_z2(6)
        entry = pade_approximant(s, 1, 1)
        assert entry.is_block
        assert entry.fraction is None
        assert entry.singular_system == (1, 1)

    def test_needs_enough_coefficients(self):
        s = builtin_series("exp", 4)
        with pytest.raises(InsufficientCoefficientsError):
            pade_approximant(s, 3, 4)
        with pytest.raises(InputError):
            pade_approximant(s, -1, 0)

    def test_defining_contact_bound(self):
        # any non-block [L/M] touches the series through order L+M
        rng = random.Random(8)
        s = builtin_series("exp", 12)
        for _ in range(20):
            L, M = rng.randint(0, 6), rng.randint(0, 5)
            entry = pade_approximant(s, L, M)
            contact = order_of_contact(s.truncated(L + M), entry.fraction)
            assert contact is None


class TestHadamard:
    def test_empty_window_is_one(self):
        s = builtin_series("exp", 3)
        assert hadamard_polynomial(s, 2, 0) == Polynomial.one()

    def test_geometric_unit_window(self):
        s = builtin_series("geometric", 3)
        assert hadamard_polynomial(s, 1, 1) == Polynomial((-1, 1))

    def test_monic(self):
        s = builtin_series("exp", 9)
        for m, p in [(0, 1), (1, 2), (2, 3), (-1, 2)]:
            poly = hadamard_polynomial(s, m, p)
            assert poly.degree == p
            assert poly.leading_coefficient == 1

    def test_non_normal_window_rejected(self):
        s = builtin_series("geometric", 4)
        with pytest.raises(NonNormalWindowError):
            hadamard_polynomial(s, 0, 2)

    def test_negative_offset_reversal(self):
        # window (-1, 2) of exp reverses onto the [0/2] denominator
        s = builtin_series("exp", 4)
        poly = hadamard_polynomial(s, -1, 2)
        assert poly == Polynomial((F(1, 2), -1, 1))
        entry = pade_approximant(s, 0, 2)
        assert poly.reversed_for_degree(2) == entry.fraction.den

    def test_reversal_matches_denominators_everywhere(self):
        s = builtin_series("exp", 14)
        for p in range(1, 4):
            for n in range(0, 7):
                entry = pade_approximant(s, n, p)
                assert not entry.is_block
                poly = hadamard_polynomial(s, n - p + 1, p)
                assert poly.reversed_for_degree(p) == entry.fraction.den


class TestTable:
    def test_exp_table_fully_normal(self):
        s = builtin_series("exp", 10)
        table = pade_table(s, 4, 4)
        assert table.blocks == ()
        for (L, M), entry in table.entries.items():
            assert not entry.is_block
            assert entry.normal is True

    def test_normal_flag_none_when_underdetermined(self):
        s = builtin_series("exp", 8)
        table = pade_table(s, 4, 4)
        assert table.entry(4, 4).normal is None
        assert table.entry(3, 4).normal is True

    def test_even_series_block(self):
        table = pade_table(one_over_one_minus_z2(6), 2, 2)
        assert len(table.blocks) == 1
        block = table.blocks[0]
        assert block.corner == (1, 1)
        assert block.size == 1
        assert not block.clipped
        assert block.fraction == rational((1,), (1,))
        assert table.block_of[(1, 1)] == 0
        assert table.entry(2, 2).fraction.equivalent_to(rational((1,), (1, 0, -1)))

    def test_block_squares_tile_markers(self):
        # every marker cell belongs to one square block record
        table = pade_table(one_over_one_minus_z2(10), 4, 4)
        markers = {c for c, e in table.entries.items() if e.is_block}
        covered = set(table.block_of)
        assert markers == covered
        for block in table.blocks:
            L0, M0 = block.corner
            for i in range(block.size):
                for j in range(block.size):
                    cell = (L0 + i, M0 + j)
                    if cell in markers:
                        assert table.block_of[cell] == table.blocks.index(block)

    def test_clipped_block(self):
        table = pade_table(one_over_one_minus_z2(4), 2, 1)
        [block] = table.blocks
        assert block.corner == (1, 1)
        assert block.clipped

    def test_entry_outside_rejected(self):
        table = pade_table(builtin_series("exp", 4), 2, 2)
        with pytest.raises(InputError):
            table.entry(3, 0)


class TestContact:
    def test_truncation_agreement_is_none(self):
        s = builtin_series("geometric", 5)
        assert order_of_contact(s, rational((1,), (1, -1))) is None

    def test_first_disagreement_index(self):
        s = builtin_series("geometric", 5, 2)
        assert order_of_contact(s, rational((1,), (1, -1))) == 1

    def test_origin_pole_rejected(self):
        s = builtin_series("exp", 3)
        with pytest.raises(OriginPoleError):
            order_of_contact(s, rational((1,), (0, 1)))


class TestRows:
    def test_row_sequence_orders(self):
        s = builtin_series("exp", 8)
        row = row_sequence(s, 1, 2, 5)
        assert [(e.L, e.M) for e in row] == [(2, 1), (3, 1), (4, 1), (5, 1)]

    def test_row_round_trip(self):
        s = builtin_series("exp", 9)
        cf = row_to_cf(s, 1, 0, 4)
        entries = row_sequence(s, 1, 0, 4)
        k0 = cf.convergent_offset
        for i, entry in enumerate(entries):
            pair = cf.convergent(i + k0)
            got = RationalFunction(pair.numerator, pair.denominator)
            assert got == entry.fraction

    def test_row_zero_round_trip(self):
        # Taylor sums have unit denominators, so no offset appears
        s = builtin_series("exp", 6)
        cf = row_to_cf(s, 0, 0, 5)
        assert cf.convergent_offset == 0
        pair = cf.convergent(3)
        assert pair.numerator == Polynomial(s.coeffs[:4])

    def test_blocked_row_rejected(self):
        with pytest.raises(RowNotNormalError):
            row_to_cf(one_over_one_minus_z2(6), 1, 0, 3)

    def test_repeated_entry_rejected(self):
        # exp + 2/(1 + z/2) has c_1 = 0, so [0/0] = [1/0] = 3: the top row of
        # a block, where the systems are nonsingular but the entries repeat
        s = builtin_series("exp", 4) + series_of_rational_function(rational((2,), (1, F(1, 2))), 4)
        assert s.coeffs[1] == 0
        with pytest.raises(RowNotNormalError, match=r"block at \[1/0\]"):
            row_to_cf(s, 0, 0, 1)
        assert row_to_cf(s, 0, 1, 3).length == 2

    def test_bad_range_rejected(self):
        s = builtin_series("exp", 6)
        with pytest.raises(InputError):
            row_sequence(s, 1, 3, 2)
