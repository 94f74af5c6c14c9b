"""Pade approximants, Hankel determinants, and table structure, all exact.

Conventions used throughout:

  * The approximant [L/M] of a series has numerator degree at most L,
    denominator degree at most M, denominator constant term 1, and matches
    the series through index L + M. The denominator comes from the M x M
    Toeplitz system; a singular system marks the entry as a block member
    instead of inventing a fraction.
  * The Hankel determinant of window (m, p) is det [s_{m+i+j}] for
    i, j = 0 .. p-1, with the empty determinant (p = 0) equal to 1.
    Coefficients at negative indices are zero. Public entry points insist
    on m >= 0; the zero-padded form is used internally and by the Hadamard
    construction, where shifted windows arise naturally.
  * The normality flag of (L, M) checks the four governing determinants
    with windows (L-M+1, M), (L-M+2, M), (L-M, M+1), (L-M+1, M+1); the
    entry is normal when none vanish. These are the determinants of the
    systems of [L/M], [L+1/M], [L/M+1] and [L+1/M+1], so a table reads
    its flags from its own singular markers.

Singular systems cluster: inside a table they form square regions, and the
fraction they repeat sits one step up-left of the square's corner. The
table groups markers into those squares and reports them as blocks.

Every determinant and linear solve here runs through one integer Bareiss
kernel (Bareiss, Math. Comp. 22, 1968), on rows sliced out of one integer
image of the series coefficients: the coefficients scaled by the lcm of
their denominators. A table takes one image for all its cells, a Hankel
grid one per offset, and a lone approximant, row entry, Hankel
determinant or Hadamard polynomial one for its own window. Only the cells one step past
a table's last row and column, which it does not solve, get an
elimination for its flags. A Hankel grid eliminates each offset once
without pivoting: the pivots of window (m, P) are the leading minors
H_m^(1..P), each times a power of the image's scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Optional

from .contfrac import AlgebraicCF, _cf_from_integer_pairs
from .core.poly import Polynomial, RationalFunction, convolve
from .core.scalars import integer_vector
from .core.series import PowerSeries, series_of_rational_function
from .errors import (
    DegenerateSequenceError,
    InputError,
    InsufficientCoefficientsError,
    NonNormalWindowError,
    OriginPoleError,
    RowNotNormalError,
)

# ---------------------------------------------------------------------------
# Exact linear algebra: one integer Bareiss kernel
#
# The elimination runs on Python ints, so every Bareiss update is an exact
# floor division, with no gcd per step. Pivot k of the elimination is the
# leading (k+1)-minor of the row-permuted integer matrix (Sylvester's
# identity, Bareiss 1968).
#
# One rule builds the integer rows of every Toeplitz and Hankel system the
# package solves: scale the series coefficients the system reads to
# integers once, by the lcm of their denominators, and slice the rows out
# of that image. pade_table takes one image of its series, hankel_grid one
# per offset, and pade_approximant, hankel_det and hadamard_polynomial one
# per call. Scaling every row by the same integer changes neither the
# solution nor whether the matrix is singular; a determinant of size p is
# the signed last pivot over scale**p, and a Hankel grid, which runs the
# kernel without pivoting, reads pivot k as the leading minor of size k+1
# times scale**(k+1). The public exact_det and exact_solve take general
# rational matrices and scale each row by its own lcm.


def _integer_rows(matrix) -> tuple[list[list[int]], list[int]]:
    """Rows scaled to integers by the lcm of their denominators, and the scales."""
    scaled = [integer_vector(row) for row in matrix]
    return [row for row, _ in scaled], [scale for _, scale in scaled]


def _bareiss(a: list[list[int]], pivoting: bool = True) -> tuple[int, list[int]]:
    """Fraction-free elimination of the square part of integer rows, in place.

    Returns the sign of the row permutation and the pivots; pivot k is the
    leading (k+1)-minor of the permuted rows. Elimination stops after a zero
    pivot, which is then the last one returned: with pivoting it means the
    matrix is singular, without pivoting only that this leading minor is 0.
    """
    n = len(a)
    sign, prev, pivots = 1, 1, []
    for k in range(n):
        if a[k][k] == 0 and pivoting:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
        pivot = a[k][k]
        pivots.append(pivot)
        if pivot == 0:
            break
        top = a[k][k + 1 :]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1 :], top)]
        prev = pivot
    return sign, pivots


def _solve_integer_rows(a: list[list[int]]) -> Optional[tuple[int, list[int]]]:
    """Solve n augmented integer rows in place: (d, y) with solution y / d.

    None when the square part is singular.
    """
    n = len(a)
    _, pivots = _bareiss(a)
    det = pivots[-1]
    if det == 0:
        return None
    # det * x is integral (Cramer), so back substitution stays in integers
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
    return det, y


def exact_det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by integer Bareiss elimination; the empty matrix gives 1."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise InputError("determinant needs a square matrix")
    a, scales = _integer_rows(matrix)
    sign, pivots = _bareiss(a)
    return Fraction(sign * pivots[-1], prod(scales))


def exact_solve(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> Optional[list[Fraction]]:
    """Solve a square system exactly; None when the matrix is singular."""
    n = len(matrix)
    if n == 0:
        return []
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if any(len(row) != n + 1 for row in aug):
        raise InputError("system needs a square matrix and matching rhs")
    a, _ = _integer_rows(aug)
    sol = _solve_integer_rows(a)
    if sol is None:
        return None
    det, y = sol
    return [Fraction(v, det) for v in y]


# ---------------------------------------------------------------------------
# Hankel determinants


@dataclass(frozen=True)
class HankelSpec:
    """Window of a Hankel determinant: offset m, size p."""

    m: int
    p: int

    def validate(self) -> None:
        if not isinstance(self.m, int) or self.m < 0:
            raise InputError(f"window offset must be a nonnegative integer, got {self.m!r}")
        if not isinstance(self.p, int) or self.p < 1:
            raise InputError(f"window size must be a positive integer, got {self.p!r}")

    @property
    def top_index(self) -> int:
        return self.m + 2 * self.p - 2


def _window_image(series: PowerSeries, m: int, p: int, top: int) -> tuple[list[int], int]:
    """Integer image of s_m .. s_top for window (m, p), zeros below index 0, and its scale."""
    if top > series.order:
        raise InsufficientCoefficientsError(
            f"window (m={m}, p={p}) needs coefficient {top}, "
            f"series stops at {series.order}"
        )
    ints, scale = integer_vector(series.coeffs[max(m, 0) : max(top + 1, 0)])
    return [0] * (top + 1 - m - len(ints)) + ints, scale


def _window_det(series: PowerSeries, m: int, p: int) -> Fraction:
    """det [s_{m+i+j}], i, j < p, from the window's own integer image."""
    img, scale = _window_image(series, m, p, m + 2 * p - 2)
    sign, pivots = _bareiss([img[i : i + p] for i in range(p)])
    return Fraction(sign * pivots[-1], scale**p)


def hankel_det(series: PowerSeries, m: int, p: int) -> Fraction:
    """Hankel determinant of the window starting at offset m with size p.

    The offset must be nonnegative here; p = 0 returns 1 by the empty
    determinant convention.
    """
    if not isinstance(p, int) or p < 0:
        raise InputError(f"window size must be a nonnegative integer, got {p!r}")
    if p == 0:
        if not isinstance(m, int) or m < 0:
            raise InputError(f"window offset must be a nonnegative integer, got {m!r}")
        return Fraction(1)
    HankelSpec(m, p).validate()
    return _window_det(series, m, p)


def hankel_grid(series: PowerSeries, m_max: int, p_max: int) -> list[list[Fraction]]:
    """Grid of determinants: row m in 0..m_max, column p in 1..p_max."""
    if m_max < 0 or p_max < 1:
        raise InputError("grid needs m_max >= 0 and p_max >= 1")
    grid = []
    for m in range(m_max + 1):
        # pivot k of window (m, size) is H_m^(k+1) times scale**(k+1); a zero
        # pivot ends the elimination, and the windows past it (or past the
        # series) get a direct determinant
        size = min(p_max, (series.order - m) // 2 + 1)
        row = []
        if size > 0:
            img, scale = _window_image(series, m, size, m + 2 * size - 2)
            power = 1
            for pivot in _bareiss([img[i : i + size] for i in range(size)], pivoting=False)[1]:
                power *= scale
                row.append(Fraction(pivot, power))
        for p in range(len(row) + 1, p_max + 1):
            row.append(_window_det(series, m, p))
        grid.append(row)
    return grid


# ---------------------------------------------------------------------------
# Approximants


@dataclass(frozen=True)
class PadeEntry:
    """One table entry: either a fraction or a block marker.

    A marker means the (L, M) denominator system was singular; the pair
    (L, M) itself indexes the defining singular system. The normal flag is
    filled in by table construction when enough coefficients exist to
    evaluate the four governing determinants, and stays None otherwise.
    """

    L: int
    M: int
    fraction: Optional[RationalFunction]
    normal: Optional[bool] = None

    @property
    def is_block(self) -> bool:
        return self.fraction is None

    @property
    def singular_system(self) -> Optional[tuple[int, int]]:
        return (self.L, self.M) if self.fraction is None else None


def _toeplitz_ints(ints: list[int], L: int, M: int) -> list[list[int]]:
    """Rows [s_{L+r}, s_{L+r-1}, .., s_{L+r-M+1}], r < M, of the [L/M] matrix.

    Read from the integer image of the series; zeros below index 0.
    """
    rows = []
    for top in range(L, L + M):
        lo = top - M + 1
        row = ints[lo : top + 1] if lo >= 0 else [0] * -lo + ints[: top + 1]
        row.reverse()
        rows.append(row)
    return rows


def _solve_entry(image: tuple[list[int], int], L: int, M: int):
    """The [L/M] solve on the integer image (ints, scale) of c_0 .. c_{L+M} or more.

    Returns (det, y, num): the denominator is (det, y_0, .., y_{M-1}) / det
    and the numerator num / (det * scale). None when the system is singular.
    """
    ints, _ = image
    if M == 0:
        det, y = 1, []
    else:
        rows = _toeplitz_ints(ints, L, M)
        for row, c in zip(rows, ints[L + 1 : L + M + 1]):
            row.append(-c)
        sol = _solve_integer_rows(rows)
        if sol is None:
            return None
        det, y = sol
    return det, y, convolve([det] + y, ints[: L + 1], L + 1)


def _approximant(series: PowerSeries, image: tuple[list[int], int], L: int, M: int) -> PadeEntry:
    """[L/M] from the integer image (ints, scale) of c_0 .. c_{L+M} or more."""
    if M == 0:
        num = Polynomial(series.coeffs[: L + 1])
        return PadeEntry(L, M, RationalFunction(num, Polynomial.one()))
    sol = _solve_entry(image, L, M)
    if sol is None:
        return PadeEntry(L, M, None)
    det, y, num = sol
    den = Polynomial([Fraction(1)] + [Fraction(v, det) for v in y])
    total = det * image[1]
    num = Polynomial([Fraction(c, total) for c in num])
    return PadeEntry(L, M, RationalFunction(num, den))


def _check_order(series: PowerSeries, L: int, M: int) -> None:
    if series.order < L + M:
        raise InsufficientCoefficientsError(
            f"[{L}/{M}] needs coefficients through {L + M}, "
            f"series stops at {series.order}"
        )


def pade_approximant(series: PowerSeries, L: int, M: int) -> PadeEntry:
    """The [L/M] entry of the series, or a block marker.

    Denominator coefficients solve the Toeplitz system that kills the
    series coefficients at indices L+1 .. L+M; the numerator is the product
    f * den truncated at degree L, one integer convolution of the two
    coefficient vectors cleared of denominators. Everything stays in exact
    arithmetic, so a singular system is detected exactly, not by a pivot
    tolerance.
    """
    if L < 0 or M < 0:
        raise InputError("approximant orders must be nonnegative")
    _check_order(series, L, M)
    return _approximant(series, integer_vector(series.coeffs[: L + M + 1]), L, M)


def order_of_contact(series: PowerSeries, rf: RationalFunction) -> Optional[int]:
    """Index of the first coefficient where rf's expansion leaves the series.

    None means the two agree through the series' truncation order. The
    fraction must be regular at the origin.
    """
    if rf.den.coefficient(0) == 0:
        raise OriginPoleError("fraction has a pole at the origin")
    expansion = series_of_rational_function(rf, series.order)
    for i in range(series.order + 1):
        if expansion.coefficient(i) != series.coefficient(i):
            return i
    return None


def hadamard_polynomial(series: PowerSeries, m: int, p: int) -> Polynomial:
    """Monic degree-p polynomial attached to the Hankel window (m, p).

    Its coefficients c_0 .. c_{p-1} (and c_p = 1) solve the Hankel system
    sum_j c_j s_{m+r+j} = -s_{m+r+p} for r = 0 .. p-1, whose matrix is the
    window itself. Equivalently: the polynomial is the (p+1) x p matrix of
    rows (s_{m+r}, ..., s_{m+r+p-1}), r = 0 .. p, bordered with the column
    of powers 1, u, ..., u^p, expanded along that column and divided by
    the window determinant. The construction needs the window determinant
    to be nonzero; offsets may be negative, with coefficients below index
    0 read as zeros.

    Reversing the coefficients of the result for degree p gives the
    denominator of the approximant [m+p-1 / p] exactly, whenever that
    entry is not a block.
    """
    if not isinstance(p, int) or p < 0:
        raise InputError(f"window size must be a nonnegative integer, got {p!r}")
    if not isinstance(m, int):
        raise InputError(f"window offset must be an integer, got {m!r}")
    if p == 0:
        return Polynomial.one()
    img, _ = _window_image(series, m, p, m + 2 * p - 1)
    sol = _solve_integer_rows([img[r : r + p] + [-img[r + p]] for r in range(p)])
    if sol is None:
        raise NonNormalWindowError(f"non-normal window (m={m}, p={p})")
    det, y = sol
    return Polynomial([Fraction(v, det) for v in y] + [Fraction(1)])


# ---------------------------------------------------------------------------
# Tables


@dataclass(frozen=True)
class Block:
    """A square of block markers found in a table.

    corner is the upper-left marker (lowest L, lowest M); size counts
    markers along each side. clipped records that the square touches the
    table boundary, so the underlying region may extend further. fraction
    is the entry repeated around the square, read one step up-left of the
    corner, or None when the corner sits on a table edge.
    """

    corner: tuple[int, int]
    size: int
    clipped: bool
    fraction: Optional[RationalFunction]


@dataclass(frozen=True)
class PadeTable:
    """All entries [L/M] for L <= Lmax, M <= Mmax, plus block structure."""

    Lmax: int
    Mmax: int
    entries: dict
    blocks: tuple[Block, ...]
    block_of: dict

    def entry(self, L: int, M: int) -> PadeEntry:
        try:
            return self.entries[(L, M)]
        except KeyError:
            raise InputError(f"entry ({L}, {M}) outside table") from None


def pade_table(series: PowerSeries, Lmax: int, Mmax: int) -> PadeTable:
    """Rectangular table of entries with normality flags and block squares."""
    if Lmax < 0 or Mmax < 0:
        raise InputError("table bounds must be nonnegative")
    if series.order < Lmax + Mmax:
        raise InsufficientCoefficientsError(
            f"table to ({Lmax}, {Mmax}) needs coefficients through {Lmax + Mmax}, "
            f"series stops at {series.order}"
        )
    # one integer image of every coefficient a cell or an edge matrix reads
    image = integer_vector(series.coeffs[: Lmax + Mmax + 2])
    entries = {
        (L, M): _approximant(series, image, L, M)
        for L in range(Lmax + 1)
        for M in range(Mmax + 1)
    }
    singular = {cell for cell, entry in entries.items() if entry.is_block}
    # the cells one step past the last row and column are not solved; each
    # gets an elimination where its matrix fits the series, and is singular
    # when the last pivot is 0 (the empty matrix of M = 0 never is)
    edge = [(Lmax + 1, M) for M in range(1, Mmax + 2)] + [(L, Mmax + 1) for L in range(Lmax + 1)]
    for L, M in edge:
        if L + M - 1 <= series.order and _bareiss(_toeplitz_ints(image[0], L, M))[1][-1] == 0:
            singular.add((L, M))
    for (L, M), entry in entries.items():
        if series.order >= L + M + 1:
            normal = singular.isdisjoint(((L, M), (L + 1, M), (L, M + 1), (L + 1, M + 1)))
            entries[(L, M)] = PadeEntry(L, M, entry.fraction, normal)

    blocks: list[Block] = []
    block_of: dict = {}
    for L0 in range(Lmax + 1):
        for M0 in range(Mmax + 1):
            if not entries[(L0, M0)].is_block or (L0, M0) in block_of:
                continue
            size = 1
            while True:
                edge = size
                layer = [(L0 + i, M0 + edge) for i in range(edge + 1)] + [
                    (L0 + edge, M0 + j) for j in range(edge)
                ]
                visible = [
                    c for c in layer if c[0] <= Lmax and c[1] <= Mmax
                ]
                if not visible:
                    break
                if all(entries[c].is_block for c in visible):
                    size += 1
                else:
                    break
            shared = None
            if L0 >= 1 and M0 >= 1:
                shared = entries[(L0 - 1, M0 - 1)].fraction
            clipped = (L0 + size - 1 >= Lmax) or (M0 + size - 1 >= Mmax)
            block = Block((L0, M0), size, clipped, shared)
            idx = len(blocks)
            blocks.append(block)
            for i in range(size):
                for j in range(size):
                    cell = (L0 + i, M0 + j)
                    if cell[0] <= Lmax and cell[1] <= Mmax and entries[cell].is_block:
                        block_of[cell] = idx
    return PadeTable(Lmax, Mmax, entries, tuple(blocks), block_of)


# ---------------------------------------------------------------------------
# Row sequences


def _check_row_range(p: int, n_min: int, n_max: int) -> None:
    if p < 0 or n_min < 0 or n_min > n_max:
        raise InputError("row range needs 0 <= n_min <= n_max and p >= 0")


def row_sequence(
    series: PowerSeries, p: int, n_min: int, n_max: int
) -> list[PadeEntry]:
    """Entries [n/p] for n = n_min .. n_max, in order."""
    _check_row_range(p, n_min, n_max)
    return [pade_approximant(series, n, p) for n in range(n_min, n_max + 1)]


def _not_normal(p: int, n_min: int, n_max: int, n: int) -> RowNotNormalError:
    return RowNotNormalError(f"row {p} is not normal over {n_min}..{n_max}: block at [{n}/{p}]")


def _normal_row(series: PowerSeries, p: int, n_min: int, n_max: int) -> list[PadeEntry]:
    """row_sequence, with RowNotNormalError at the first entry inside a block.

    Along a block's top row the systems are nonsingular but the entries
    repeat. A nonsingular system's one solution is the reduced approximant,
    so a repeat shows as a pair equal to the one before it.
    """
    entries = row_sequence(series, p, n_min, n_max)
    for entry, before in zip(entries, [None] + entries):
        if entry.is_block or (before is not None and entry.fraction == before.fraction):
            raise _not_normal(p, n_min, n_max, entry.L)
    return entries


def _trimmed(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _row_pairs(series: PowerSeries, p: int, n_min: int, n_max: int):
    """The entries [n/p], n = n_min .. n_max, as reduced integer pairs.

    Yields (a, b, s) with A = a/s and B = b/s, s > 0 and gcd(s, a, b) = 1:
    the form _integer_pair gives the pair (A, B) of the entry, built from
    the entry's integer solve with no Fraction on the way. A block entry
    raises RowNotNormalError as _normal_row does: a singular system, or a
    pair equal to the one before it.
    """
    before = None
    for n in range(n_min, n_max + 1):
        image = integer_vector(series.coeffs[: n + p + 1])
        sol = _solve_entry(image, n, p)
        if sol is None:
            raise _not_normal(p, n_min, n_max, n)
        det, y, a = sol
        b = [v * image[1] for v in [det] + y]
        # A = a / b[0] and B = b / b[0]; b[0] = det * scale is not zero
        g = gcd(*a, *b) if det > 0 else -gcd(*a, *b)
        pair = (_trimmed([x // g for x in a]), _trimmed([x // g for x in b]), b[0] // g)
        if pair == before:
            raise _not_normal(p, n_min, n_max, n)
        yield pair
        before = pair


def row_to_cf(series: PowerSeries, p: int, n_min: int, n_max: int) -> AlgebraicCF:
    """Algebraic continued fraction whose convergents are a table row.

    Reads the row once, entry by entry, as the integer pairs of _row_pairs
    and feeds them to the recovery of cf_from_convergents, which keeps
    only the last two. Blocks in the range make the row non-normal and are
    rejected, before any recovery failure: a failed recovery still reads
    the rest of the row. See cf_from_convergents for the offset convention
    when the first denominator is not the constant 1.
    """
    _check_row_range(p, n_min, n_max)
    # the first entry past the series fails before any entry is read
    _check_order(series, max(n_min, min(n_max, series.order - p + 1)), p)
    pairs = _row_pairs(series, p, n_min, n_max)
    try:
        return _cf_from_integer_pairs(pairs, algebraic=True)
    except DegenerateSequenceError:
        for _ in pairs:
            pass
        raise
