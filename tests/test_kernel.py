"""Exact kernel against independent oracles, and table flags and Hankel
grids against direct determinants and Sylvester's identity.

exact_det is checked against sympy's determinant over QQ, exact_solve by
its residuals, every Hankel grid entry against a determinant computed
directly for that window, and every table normality flag, which the table
reads from its own singular solves, against the four governing Hankel
determinants computed by sympy. Tables and grids, which slice their
systems out of one integer image of the series, are checked entry by
entry against sympy's solves and determinants of the Fraction systems.
"""

import re

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
    hankel_grid,
    pade_approximant,
    pade_table,
    series_of_rational_function,
)
from padelab.errors import InputError, InsufficientCoefficientsError, NonNormalWindowError

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

settings = hypothesis.settings(derandomize=True, max_examples=60, deadline=None)

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6)) | st.just(F(0))


@st.composite
def square_matrices(draw):
    """Random rational matrices, some made singular, some with a zero pivot.

    A singular matrix gets its last row replaced by a combination of the
    others; a zero-pivot matrix gets a zero top-left entry, so elimination
    must swap rows before its first step.
    """
    n = draw(st.integers(1, 6))
    a = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("plain", "singular", "zero_pivot")))
    if shape == "singular":
        weights = [draw(rationals) for _ in range(n - 1)]
        a[-1] = [sum((w * a[i][j] for i, w in enumerate(weights)), F(0)) for j in range(n)]
    elif shape == "zero_pivot":
        a[0][0] = F(0)
    return a


def sympy_det(a):
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])
    d = m.det()
    return F(int(d.p), int(d.q))


def padded(series, i):
    """Series coefficient with zeros below index 0."""
    return series.coefficient(i) if i >= 0 else F(0)


def padded_window(series, m, p):
    """The p x p Hankel window at offset m, zeros below index 0."""
    return [[padded(series, m + i + j) for j in range(p)] for i in range(p)]


def even_series(order):
    """1/(1-z^2): every odd coefficient is zero, so many windows are singular."""
    rf = RationalFunction(Polynomial((1,)), Polynomial((1, 0, -1)))
    return series_of_rational_function(rf, order)


def exp_plus_pole(order):
    """exp(z) + 1/(1 - 2z/3)."""
    rf = RationalFunction(Polynomial((1,)), Polynomial((1, F(-2, 3))))
    return builtin_series("exp", order) + series_of_rational_function(rf, order)


class TestDeterminant:
    @settings
    @hypothesis.given(square_matrices())
    def test_matches_sympy(self, a):
        assert exact_det(a) == sympy_det(a)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(InputError):
            exact_det([[1, 2], [3]])


class TestSolve:
    @settings
    @hypothesis.given(square_matrices(), st.data())
    def test_residuals_vanish_or_singular(self, a, data):
        n = len(a)
        b = [data.draw(rationals) for _ in range(n)]
        x = exact_solve(a, b)
        if exact_det(a) == 0:
            assert x is None
        else:
            assert x is not None
            assert all(sum(a[i][j] * x[j] for j in range(n)) == b[i] for i in range(n))


class TestHankelStore:
    @pytest.mark.parametrize("series", [exp_plus_pole(22), even_series(22)],
                             ids=["exp+pole", "even"])
    def test_grid_matches_direct_determinants(self, series):
        grid = hankel_grid(series, 10, 7)
        for m, row in enumerate(grid):
            for p, value in enumerate(row, 1):
                assert value == exact_det(padded_window(series, m, p)), (m, p)

    def test_fallback_past_zero_pivot(self):
        # s_1 = 0 ends the sweep at offset 1 on its first pivot, yet the
        # window (1, 2) = [[0, 1], [1, 0]] is nonsingular
        grid = hankel_grid(even_series(10), 3, 3)
        assert grid[1][0] == 0
        assert grid[1][1] == -1
        assert grid[0] == [1, 1, 0]

    @pytest.mark.parametrize("series, size", [(even_series(21), 10),
                                              (builtin_series("exp", 17), 8)],
                             ids=["even-10x10", "exp-8x8"])
    def test_table_flags_match_four_determinants(self, series, size):
        table = pade_table(series, size, size)
        for (L, M), entry in table.entries.items():
            if series.order < L + M + 1:
                assert entry.normal is None
                continue
            windows = ((L - M + 1, M), (L - M + 2, M), (L - M, M + 1), (L - M + 1, M + 1))
            expected = all(exact_det(padded_window(series, m, p)) != 0 for m, p in windows)
            assert entry.normal is expected, (L, M)


def rational_series(num, den, order):
    return series_of_rational_function(RationalFunction(Polynomial(num), Polynomial(den)), order)


def pole_sum(draw, count, order):
    """Sum of b/(1 - z/a) over count rational poles a."""
    series = PowerSeries([F(0)] * (order + 1))
    for _ in range(count):
        a = draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 5)))
        b = draw(st.integers(1, 3))
        series = series + rational_series((b,), (1, -1 / a), order)
    return series


ratios = st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 4))


def lacunary(draw, order):
    """1/(1 - c z^k) for k = 2..4: its zero coefficients make zero pivots."""
    k = draw(st.integers(2, 4))
    return rational_series((1,), (1,) + (0,) * (k - 1) + (-draw(ratios),), order)


@st.composite
def block_heavy_tables(draw):
    """A table size and a series whose tables are full of blocks.

    Geometric and lacunary series and sums of 1-3 poles are rational, so
    every cell past their degrees is singular; the series is cut at
    Lmax + Mmax or a little past it, so flags out of reach occur too.
    """
    Lmax, Mmax = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    order = Lmax + Mmax + draw(st.sampled_from((0, 0, 1, 2)))
    kind = draw(st.sampled_from(("geometric", "lacunary", "poles")))
    if kind == "geometric":
        series = rational_series((1,), (1, -draw(ratios)), order)
    elif kind == "lacunary":
        series = lacunary(draw, order)
    else:
        series = pole_sum(draw, draw(st.integers(1, 3)), order)
    return series, Lmax, Mmax


@st.composite
def grid_series(draw):
    """exp plus 0-3 poles, or a lacunary series whose zero pivots force the fallback."""
    order = 22
    if draw(st.booleans()):
        return builtin_series("exp", order) + pole_sum(draw, draw(st.integers(0, 3)), order)
    return lacunary(draw, order)


class TestFlagsAndGrids:
    @settings
    @hypothesis.given(block_heavy_tables())
    def test_table_flags_are_four_hankel_windows(self, case):
        """normal is the four-window definition, with dets by sympy over QQ."""
        series, Lmax, Mmax = case
        table = pade_table(series, Lmax, Mmax)
        dets = {}

        def vanishes(m, p):
            if (m, p) not in dets:
                dets[(m, p)] = p > 0 and sympy_det(padded_window(series, m, p)) == 0
            return dets[(m, p)]

        for (L, M), entry in table.entries.items():
            if series.order < L + M + 1:
                assert entry.normal is None, (L, M)
                continue
            windows = ((L - M + 1, M), (L - M + 2, M), (L - M, M + 1), (L - M + 1, M + 1))
            assert entry.normal is not any(vanishes(m, p) for m, p in windows), (L, M)

    @settings
    @hypothesis.given(grid_series())
    def test_grid_satisfies_sylvester_identity(self, series):
        """H_m^(k+1) H_{m+2}^(k-1) = H_m^(k) H_{m+2}^(k) - (H_{m+1}^(k))^2."""
        grid = hankel_grid(series, 8, 7)
        H = [[F(1)] + row for row in grid]  # H[m][k] = H_m^(k), H_m^(0) = 1
        for m in range(len(H) - 2):
            for k in range(1, len(H[m]) - 1):
                assert H[m][k + 1] * H[m + 2][k - 1] == (
                    H[m][k] * H[m + 2][k] - H[m + 1][k] ** 2
                ), (m, k)


def q(x):
    return sympy.Rational(x.numerator, x.denominator)


def sympy_pade(series, L, M):
    """(num, den) of [L/M] by sympy's LU solve over QQ of the Fraction
    Toeplitz system [s_{L+1+r-c}] x = -s_{L+1+r}; None when it is singular."""
    den = [F(1)]
    if M:
        a = sympy.Matrix([[q(padded(series, L + 1 + r - c)) for c in range(1, M + 1)]
                          for r in range(M)])
        b = sympy.Matrix([q(-padded(series, L + 1 + r)) for r in range(M)])
        try:
            x = a.LUsolve(b)
        except sympy.matrices.exceptions.NonInvertibleMatrixError:
            return None
        den += [F(int(v.p), int(v.q)) for v in x]
    num = [sum(den[j] * padded(series, k - j) for j in range(min(k, M) + 1)) for k in range(L + 1)]
    return Polynomial(num), Polynomial(den)


mixed = st.builds(F, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 4, 7, 9, 10, 12)))


def image_series(draw, order):
    """Series whose integer image needs a real scale, or has many zeros.

    Mixed denominators, lacunary zeros in random or periodic places, exp
    (factorial denominators) plus a pole, or 1/(1 - c z^k).
    """
    kind = draw(st.sampled_from(("mixed", "sparse", "periodic", "exp", "lacunary")))
    if kind == "exp":
        return builtin_series("exp", order) + pole_sum(draw, draw(st.integers(0, 1)), order)
    if kind == "lacunary":
        return lacunary(draw, order)
    k = draw(st.integers(2, 3))
    coeffs = []
    for i in range(order + 1):
        zero = (kind == "sparse" and draw(st.booleans())) or (kind == "periodic" and i % k)
        coeffs.append(F(0) if zero else draw(mixed))
    return PowerSeries(coeffs)


@st.composite
def image_tables(draw):
    """A table size, with L < M - 1 cells, and a series cut near Lmax + Mmax,
    sometimes short of it."""
    Lmax, Mmax = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    order = max(0, Lmax + Mmax + draw(st.sampled_from((-2, -1, 0, 0, 1, 2))))
    return image_series(draw, order), Lmax, Mmax


@st.composite
def image_grids(draw):
    """A grid size and a series cut near its last window, sometimes short of it."""
    m_max, p_max = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    order = max(0, m_max + 2 * p_max - 2 + draw(st.sampled_from((-3, -1, 0, 0, 1, 2, 3))))
    return image_series(draw, order), m_max, p_max


class TestIntegerImage:
    @settings
    @hypothesis.given(image_tables())
    def test_table_matches_sympy_solves(self, case):
        series, Lmax, Mmax = case
        if series.order < Lmax + Mmax:
            message = (f"table to ({Lmax}, {Mmax}) needs coefficients through "
                       f"{Lmax + Mmax}, series stops at {series.order}")
            with pytest.raises(InsufficientCoefficientsError, match=re.escape(message)):
                pade_table(series, Lmax, Mmax)
            return
        table = pade_table(series, Lmax, Mmax)
        for (L, M), entry in table.entries.items():
            expected = sympy_pade(series, L, M)
            if expected is None:
                assert entry.is_block, (L, M)
            else:
                assert (entry.fraction.num, entry.fraction.den) == expected, (L, M)

    @settings
    @hypothesis.given(image_grids())
    def test_grid_matches_sympy_dets(self, case):
        series, m_max, p_max = case
        windows = [(m, p) for m in range(m_max + 1) for p in range(1, p_max + 1)]
        short = [(m, p) for m, p in windows if m + 2 * p - 2 > series.order]
        if short:
            # the first window past the series, in grid order, raises
            m, p = short[0]
            message = (f"window (m={m}, p={p}) needs coefficient {m + 2 * p - 2}, "
                       f"series stops at {series.order}")
            with pytest.raises(InsufficientCoefficientsError, match=re.escape(message)):
                hankel_grid(series, m_max, p_max)
            return
        grid = hankel_grid(series, m_max, p_max)
        for m, p in windows:
            assert grid[m][p - 1] == sympy_det(padded_window(series, m, p)), (m, p)

    @pytest.mark.parametrize("series", [exp_plus_pole(14), even_series(14)],
                             ids=["exp+pole", "even"])
    @pytest.mark.parametrize("L, M", [(0, 0), (0, 3), (1, 5), (3, 2), (4, 4), (6, 1)])
    def test_approximant_reads_only_its_coefficients(self, series, L, M):
        """Coefficients past L + M, here with other denominators, change nothing."""
        assert pade_approximant(series, L, M) == pade_approximant(series.truncated(L + M), L, M)


class TestHadamard:
    @settings
    @hypothesis.given(
        st.lists(rationals, min_size=10, max_size=10),
        st.integers(-3, 3),
        st.integers(1, 4),
    )
    def test_matches_bordered_minors(self, coeffs, m, p):
        """One Hankel solve gives the bordered-determinant polynomial."""
        series = PowerSeries(coeffs)
        hypothesis.assume(m + 2 * p - 1 <= series.order)
        rows = [
            [series.coefficient(m + r + j) if m + r + j >= 0 else F(0) for j in range(p)]
            for r in range(p + 1)
        ]
        h = sympy_det(rows[:p])
        if h == 0:
            with pytest.raises(NonNormalWindowError):
                hadamard_polynomial(series, m, p)
            return
        expected = [
            (-1) ** (i + p) * sympy_det(rows[:i] + rows[i + 1:]) / h for i in range(p + 1)
        ]
        assert hadamard_polynomial(series, m, p) == Polynomial(expected)
