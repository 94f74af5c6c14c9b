"""Convergent recovery as properties over generated fractions and rows.

cf_from_convergents must invert the forward recurrence exactly: numeric
and algebraic round trips give back the terms they started from. Terms of
degree up to 2 make the determinants products of non-monomial partial
numerators, so the recovery's general exact division runs as well as its
monomial shift. On Pade rows of exp plus rational poles, the determinants
are monomials (the Frobenius identity), and convergent k + offset of the
recovered fraction is row entry k as an unreduced pair. Fractions recovered
from scaled pairs and from rows survive their document form:
parse_cf_document(cf_to_document(cf)) keeps the convergent offset and
every convergent pair. row_to_cf, which streams the row into the recovery
on integers, gives what cf_from_convergents gives on the row's entries,
errors included, on normal and block-heavy series and from any n_min.
"""

from fractions import Fraction as F

import pytest

from padelab import (
    AlgebraicCF,
    NumericCF,
    Polynomial,
    PowerSeries,
    RationalFunction,
    builtin_series,
    cf_from_convergents,
    cf_to_document,
    parse_cf_document,
    row_sequence,
    row_to_cf,
    series_of_rational_function,
)
from padelab.errors import DegenerateSequenceError, PadelabError, RowNotNormalError
from padelab.pade import PadeEntry, _not_normal

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

settings = hypothesis.settings(derandomize=True, max_examples=60, deadline=None)

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
nonzero_rationals = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 6))
polynomials = st.lists(rationals, max_size=3).map(Polynomial)
nonzero_polynomials = st.builds(
    lambda low, top: Polynomial(low + [top]), st.lists(rationals, max_size=2), nonzero_rationals
)


def partials_of(cf):
    return [cf.partial(k) for k in range(1, cf.length + 1)]


@settings
@hypothesis.given(
    rationals, st.lists(st.tuples(nonzero_rationals, rationals), min_size=1, max_size=7)
)
def test_numeric_round_trip(q0, partials):
    cf = NumericCF(q0, partials)
    back = cf_from_convergents(cf.convergent_pairs(len(partials)))
    assert back.convergent_offset == 0
    assert back.q0 == q0
    assert partials_of(back) == partials_of(cf)


@settings
@hypothesis.given(
    polynomials, st.lists(st.tuples(nonzero_polynomials, polynomials), min_size=1, max_size=5)
)
def test_algebraic_round_trip_degree_two(q0, partials):
    cf = AlgebraicCF(q0, partials)
    back = cf_from_convergents(cf.convergent_pairs(len(partials)))
    assert back.algebraic
    assert back.convergent_offset == 0
    assert back.q0 == cf.q0
    assert partials_of(back) == partials_of(cf)


def assert_document_round_trip(cf):
    back = parse_cf_document(cf_to_document(cf))
    assert back.convergent_offset == cf.convergent_offset
    assert back.convergent_pairs(cf.length) == cf.convergent_pairs(cf.length)


@settings
@hypothesis.given(
    nonzero_rationals,
    st.lists(st.tuples(nonzero_rationals, rationals), min_size=1, max_size=7),
    nonzero_rationals,
)
def test_scaled_pairs_round_trip(q0, partials, scale):
    # scale != 1 gives B_0 != 1: a zero head, and pair k at convergent k + 1
    cf = NumericCF(q0, partials)
    pairs = [(scale * a, scale * b) for a, b in cf.convergent_pairs(len(partials))]
    back = cf_from_convergents(pairs)
    offset = 0 if scale == 1 else 1
    assert back.convergent_offset == offset
    assert [tuple(pair) for pair in back.convergent_pairs(back.length)[offset:]] == pairs
    assert_document_round_trip(back)


def test_non_monomial_determinant_uses_exact_div(monkeypatch):
    # p_1 = 1 + z makes D_3 = (1 + z)(1 - z^2) up to sign: not a monomial
    calls = []
    exact_div = Polynomial.exact_div

    def counted(self, other):
        calls.append(other)
        return exact_div(self, other)

    monkeypatch.setattr(Polynomial, "exact_div", counted)
    partials = [
        (Polynomial((1, 1)), Polynomial((2,))),
        (Polynomial((1, 0, -1)), Polynomial((0, 1))),
    ]
    cf = AlgebraicCF(Polynomial((1,)), partials)
    back = cf_from_convergents(cf.convergent_pairs(2))
    assert partials_of(back) == partials_of(cf)
    assert calls and all(d.degree >= 1 for d in calls)


poles = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from((F(2), F(-2), F(3), F(-3), F(5, 2), F(-4, 3)))),
    min_size=0,
    max_size=3,
    unique_by=lambda pole: pole[1],
)


def exp_plus_poles(parts, order):
    """exp + sum of r / (1 - z/a); positive residues keep the constant term nonzero."""
    series = builtin_series("exp", order)
    for r, a in parts:
        rf = RationalFunction(Polynomial((r,)), Polynomial((1, -1 / a)))
        series = series + series_of_rational_function(rf, order)
    return series


@settings
@hypothesis.given(poles, st.integers(0, 3), st.integers(1, 8))
def test_row_convergents_are_row_entries(parts, p, n_max):
    series = exp_plus_poles(parts, n_max + p)
    entries = row_sequence(series, p, 0, n_max)
    hypothesis.assume(not any(e.is_block for e in entries))
    cf = row_to_cf(series, p, 0, n_max)
    pairs = cf.convergent_pairs(n_max + cf.convergent_offset)
    for k, entry in enumerate(entries):
        a, b = pairs[k + cf.convergent_offset]
        assert (a, b) == (entry.fraction.num, entry.fraction.den)


@settings
@hypothesis.given(poles, st.integers(0, 3), st.integers(1, 8))
@hypothesis.example([(2, F(-2))], 0, 1)  # c_1 = 0, so [0/0] = [1/0] = 3
def test_row_document_round_trip(parts, p, n_max):
    series = exp_plus_poles(parts, n_max + p)
    entries = [e.fraction for e in row_sequence(series, p, 0, n_max)]
    # a block shows on the row as a singular system or as two equal neighbours
    blocked = None in entries or any(
        a.num * b.den == b.num * a.den for a, b in zip(entries, entries[1:])
    )
    if blocked:
        with pytest.raises(RowNotNormalError):
            row_to_cf(series, p, 0, n_max)
    else:
        assert_document_round_trip(row_to_cf(series, p, 0, n_max))


def test_normal_row_divides_by_monomials_only(monkeypatch):
    def refuse(self, other):
        raise AssertionError(f"long division by {other!r}")

    monkeypatch.setattr(Polynomial, "exact_div", refuse)
    series = exp_plus_poles([(1, F(2))], 15)
    cf = row_to_cf(series, 3, 0, 12)
    assert cf.convergent_offset == 1
    assert cf.length == 13


# Series for the streamed row: exp plus poles; num / (1 - c z^k), whose
# tables are mostly blocks, as in the benchmark's block-heavy series; and exp
# with one coefficient set to 0, whose row 0 repeats an entry and whose
# row 1 meets a singular system.
row_series = st.one_of(
    st.tuples(st.just("poles"), poles),
    st.tuples(
        st.just("power"),
        st.integers(1, 4),
        nonzero_rationals,
        st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=4),
    ),
    st.tuples(st.just("gap"), st.integers(1, 8)),
)


def build_series(spec, order):
    if spec[0] == "poles":
        return exp_plus_poles(spec[1], order)
    if spec[0] == "power":
        _, k, c, num = spec
        rf = RationalFunction(Polynomial(num), Polynomial([1] + [0] * (k - 1) + [-c]))
        return series_of_rational_function(rf, order)
    coeffs = list(builtin_series("exp", order).coeffs)
    if spec[1] <= order:
        coeffs[spec[1]] = F(0)
    return PowerSeries(coeffs)


# The oracle of the streamed row: the row's entries, judged one Fraction pair
# against the one before it, independently of the integer triples row_to_cf
# compares.
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


def outcome(make):
    """The document of the fraction make() returns, or the error it raises."""
    try:
        return "ok", cf_to_document(make())
    except PadelabError as exc:
        return type(exc), str(exc)


@settings
@hypothesis.given(row_series, st.integers(0, 3), st.integers(0, 3), st.integers(0, 8))
@hypothesis.example(("poles", [(2, F(-2))]), 0, 0, 1)  # [0/0] = [1/0]: a repeated entry
@hypothesis.example(("power", 2, F(1), [1]), 1, 0, 4)  # 1/(1 - z^2): singular systems
@hypothesis.example(("poles", []), 1, 2, 6)  # exp from n_min = 2: the recovery fails
@hypothesis.example(("gap", 6), 1, 2, 7)  # ... and then [6/1] is a block
def test_streamed_row_matches_recovery_over_entries(spec, p, n_min, length):
    n_max = n_min + length
    series = build_series(spec, n_max + p)

    def over_entries():
        entries = _normal_row(series, p, n_min, n_max)
        return cf_from_convergents([(e.fraction.num, e.fraction.den) for e in entries])

    assert outcome(lambda: row_to_cf(series, p, n_min, n_max)) == outcome(over_entries)


def test_block_later_in_row_is_reported_before_recovery_failure():
    # exp with c_6 = 0: [6/1] solves the singular system c_6 * b_1 = -c_7
    series = build_series(("gap", 6), 10)
    # from n_min = 2 the recovery fails at its first step ...
    with pytest.raises(DegenerateSequenceError, match="at index 1"):
        row_to_cf(series, 1, 2, 5)
    # ... and a block further along the row is still the error reported
    with pytest.raises(RowNotNormalError, match=r"over 2\.\.9: block at \[6/1\]"):
        row_to_cf(series, 1, 2, 9)
