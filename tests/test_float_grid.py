"""The row experiment's grid: double and integer forms, fallbacks, grid points.

At 53 bits prepare_rf holds each coefficient as the double equal to its
mpf, and eval_prepared_rf runs Horner's rule in IEEE double complex
arithmetic. eval_poly at a much higher precision is the reference: the
double form must stay within a bound fixed in advance from the double's
epsilon and the Horner magnitude sum |c_0| + |c_1||z| + ... + |c_d||z|^d.
At every other precision, and where a double would overflow, the integer
form runs on Python integers: its values must sit within the bounds its
docstrings state of the exact values at the dyadic point, rounded once,
and where a double overflows the row experiment must report exactly what
the integer form reports. GridSpec.points must give the points of the
original loop (a cos and a sin per point, every center tested) bit for bit.
"""

import sys
from fractions import Fraction as F

import mpmath
import pytest
from exact_values import check_error, check_quotient, held_coefficients, rf_coefficients

from padelab import (
    GridSpec,
    MeromorphicSpec,
    Polynomial,
    RationalFunction,
    pade_approximant,
    precision,
    run_row_experiment,
)
from padelab.core.floats import (
    GUARD_BITS,
    NEAR_POLE_EPS_REL,
    coefficient_scale,
    error_modulus,
    eval_poly,
    eval_prepared_rf,
    fixed_point,
    int_form,
    prepare_rf,
    to_mpc,
    to_mpf,
)
from padelab.errors import DomainError, NearPoleError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

settings = hypothesis.settings(derandomize=True, max_examples=60, deadline=None)

EPS = sys.float_info.epsilon
# |double Horner - exact| <= HORNER_FACTOR * (d + 1) * EPS * sum |c_k| |z|^k
# for a polynomial of degree d: each step rounds a complex product and a sum.
HORNER_FACTOR = 4

fractions = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12))
# wide magnitudes too: past the double range, and into its subnormal range
wide_fractions = st.one_of(
    fractions,
    st.builds(lambda m, e: F(m) * F(10) ** e, st.integers(-99, 99), st.integers(-330, 330)),
)
points = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


@settings
@hypothesis.given(st.lists(fractions, min_size=1, max_size=16), points)
def test_double_form_within_horner_bound_of_exact(coeffs, z):
    poly = Polynomial(coeffs)
    with precision(53):
        prepared = prepare_rf(RationalFunction(poly, Polynomial((1,))))
        assert isinstance(prepared[2], float)
        got = eval_prepared_rf(prepared, z)
    assert type(got) is complex
    with precision(200):
        exact = eval_poly(poly, to_mpc(z))
        magnitude = sum(abs(to_mpf(c)) * abs(z) ** k for k, c in enumerate(poly.coeffs))
    bound = HORNER_FACTOR * (poly.degree + 1) * EPS * magnitude
    assert abs(mpmath.mpc(got) - exact) <= bound


def check_integer_form(prepared, rf, bits):
    """Each polynomial of an integer form holds its exact coefficients.

    Each coefficient c is c*2^e rounded to nearest, with e >= 0, every
    nonzero one keeps at least bits + GUARD_BITS bits, and the threshold is
    the mpf threshold at bits, squared over 2^(-2e) of the denominator's
    integers.
    """
    num, den, limit = prepared
    for (scaled, e), exact in ((num, rf.num.coeffs), (den, rf.den.coeffs)):
        assert len(scaled) == len(exact) and e >= 0
        for c, x in zip(scaled, reversed(exact)):
            assert abs(c - x * F(2) ** e) <= F(1, 2)
            assert x == 0 or abs(x) * F(2) ** e >= 2 ** (bits + GUARD_BITS)
    with precision(bits):
        threshold = to_mpf(NEAR_POLE_EPS_REL) * coefficient_scale(rf.den)
    _, man, exp, _ = threshold._mpf_
    assert limit == (man * man, 2 * (exp + den[1]))


@settings
@hypothesis.given(st.lists(wide_fractions, min_size=1, max_size=6),
                  st.lists(wide_fractions, min_size=1, max_size=6).filter(any))
def test_prepared_values_are_the_53_bit_mpf_values(num, den):
    # the double form, where a double holds every value, carries exactly
    # the values to_mpf gives at 53 bits; the integer form, otherwise,
    # carries the exact values to 53 + GUARD_BITS bits
    rf = RationalFunction(Polynomial(num), Polynomial(den))
    with precision(53):
        prepared = prepare_rf(rf)
        expected = (
            [to_mpf(c) for c in reversed(rf.num.coeffs)],
            [to_mpf(c) for c in reversed(rf.den.coeffs)],
            to_mpf(NEAR_POLE_EPS_REL) * coefficient_scale(rf.den),
        )
    if isinstance(prepared[2], float):
        assert [mpmath.mpf(c) for c in prepared[0]] == expected[0]
        assert [mpmath.mpf(c) for c in prepared[1]] == expected[1]
        assert mpmath.mpf(prepared[2]) == expected[2]
    else:
        check_integer_form(prepared, rf, 53)
    exact_in_doubles = all(
        c == 0 or sys.float_info.min < abs(c) < sys.float_info.max
        for c in list(rf.num.coeffs) + list(rf.den.coeffs)
    )
    if not exact_in_doubles:
        assert not isinstance(prepared[2], float)


# precisions of the integer form's properties: just above a double, the
# quadruple precision of the benchmark's rows, and well beyond
INTEGER_BITS = [64, 113, 200]


@settings
@hypothesis.given(st.lists(fractions, min_size=1, max_size=12),
                  st.lists(fractions, min_size=1, max_size=5).filter(any),
                  points, st.sampled_from(INTEGER_BITS))
def test_integer_form_within_bound_of_exact(num, den, z, bits):
    rf = RationalFunction(Polynomial(num), Polynomial(den))
    with precision(bits):
        prepared = prepare_rf(rf)
        point = fixed_point(z)
        try:
            got = eval_prepared_rf(prepared, z)
        except NearPoleError:
            hypothesis.reject()
    check_integer_form(prepared, rf, bits)
    assert isinstance(got, mpmath.mpc)
    check_quotient(got, *rf_coefficients(rf), point, bits)


@st.composite
def rows_of_exp_plus_poles(draw):
    """(spec, entry, grid points): exp plus 1-3 rational poles, one row entry."""
    count = draw(st.integers(1, 3))
    moduli = sorted(draw(st.lists(st.integers(4, 30), min_size=count, max_size=count,
                                  unique=True)))
    poles = [F(m, 10) * draw(st.sampled_from([1, -1])) for m in moduli]
    den = Polynomial((1,))
    for pole in poles:
        den = den * Polynomial((1, -1 / pole))
    num = Polynomial([F(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
                      for _ in range(draw(st.integers(1, count)))])
    spec = MeromorphicSpec(RationalFunction(num, den), exp_count=draw(st.integers(0, 2)))
    p = draw(st.integers(0, count))
    n = draw(st.integers(0, 12))
    entry = pade_approximant(spec.taylor(n + p), n, p)
    hypothesis.assume(not entry.is_block)
    outer = abs(poles[p]) if p < count else 2 * abs(poles[-1])
    radius = float(outer) * draw(st.sampled_from([0.5, 0.8, 0.95]))
    grid = GridSpec(radius, rim_points=8, interior_circles=1, points_per_circle=4)
    return spec, entry.fraction, grid.points(poles)


@hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
@hypothesis.given(rows_of_exp_plus_poles(), st.sampled_from(INTEGER_BITS))
def test_grid_error_within_bound_of_exact(row, bits):
    spec, r, grid_points = row
    with precision(bits):
        f_prepared, prepared = prepare_rf(spec.rational), prepare_rf(r)
        measured = []
        for z in grid_points:
            point = fixed_point(z)
            try:
                measured.append((error_modulus(f_prepared, spec.exp_count, prepared, point),
                                 point))
            except NearPoleError:
                pass
    check_integer_form(prepared, r, bits)
    assert measured
    for got, point in measured:
        check_error(got, rf_coefficients(spec.rational), spec.exp_count, rf_coefficients(r),
                    point, bits)


def test_integer_form_near_pole_guard():
    # 1 - 2z vanishes at z = 1/2, a dyadic point held exactly
    rf = RationalFunction(Polynomial((1,)), Polynomial((1, -2)))
    with precision(113):
        prepared = prepare_rf(rf)
        for z, magnitude in ((F(1, 2), 0.0), (F(1, 2) + F(1, 2**60), 2.0**-59)):
            with pytest.raises(NearPoleError, match="below near-pole threshold") as info:
                eval_prepared_rf(prepared, z)
            assert info.value.magnitude == magnitude
            with pytest.raises(NearPoleError):
                error_modulus(prepare_rf(RationalFunction(0)), 1, prepared, fixed_point(z))
        # just outside the threshold, 2e-12, the quotient is formed
        check_quotient(eval_prepared_rf(prepared, F(1, 2) + F(1, 10**12)),
                       *rf_coefficients(rf), fixed_point(F(1, 2) + F(1, 10**12)), 113)


def test_prepared_form_follows_the_precision():
    rf = RationalFunction(Polynomial((1, 2)), Polynomial((1, F(-1, 3))))
    with precision(53):
        assert isinstance(prepare_rf(rf)[2], float)
    for bits in (52, 54, 113):
        with precision(bits):
            assert not isinstance(prepare_rf(rf)[2], float)


def test_double_form_near_pole_guard():
    rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
    with precision(53):
        prepared = prepare_rf(rf)
        with pytest.raises(NearPoleError, match="below near-pole threshold") as info:
            eval_prepared_rf(prepared, complex(1.0 + 1e-15))
        assert info.value.magnitude <= 1e-12


# ---------------------------------------------------------------------------
# Fallback to the integer form


def test_coefficient_past_the_double_range_keeps_the_mpf_form():
    # no double holds 10^400: prepare_rf gives the integer form of the exact
    # coefficients at 53 bits, as at any other precision
    rf = RationalFunction(Polynomial((F(10**400), 1)), Polynomial((1, F(-1, 2))))
    with precision(53):
        prepared = prepare_rf(rf)
        assert not isinstance(prepared[2], float)
        assert int_form(prepared) is prepared
        for z in (complex(0.25, 0.5), complex(-1.5, 0.1)):
            got = eval_prepared_rf(prepared, z)
            check_quotient(got, *rf_coefficients(rf), fixed_point(z), 53)
    check_integer_form(prepared, rf, 53)


def test_exp_past_the_double_range_taken_in_mpf():
    spec = MeromorphicSpec.from_document(EXP)
    with precision(53):
        prepared = prepare_rf(spec.rational)
        assert isinstance(prepared[2], float)
        assert type(spec.evaluate(complex(700), prepared)) is complex
        assert spec.evaluate(complex(750), prepared) == spec.evaluate(750)


def _integer_errors(spec, p, n_min, n_max, grid):
    """Per entry, the integer-form value at every grid point the guards pass.

    Each value is error_modulus on the integer forms of what prepare_rf gives
    at the working precision, at fixed_point(z).
    """
    grid_points = grid.points([info.location for info in spec.poles()])
    series = spec.taylor(n_max + p)
    f_prepared = int_form(prepare_rf(spec.rational))
    rows = []
    for n in range(n_min, n_max + 1):
        r = pade_approximant(series.truncated(n + p), n, p).fraction
        prepared = int_form(prepare_rf(r))
        values = []
        for z in grid_points:
            point = fixed_point(z)
            try:
                values.append((error_modulus(f_prepared, spec.exp_count, prepared, point), point))
            except (NearPoleError, DomainError):
                continue
        rows.append((held_coefficients(r), values))
    return rows


def _sum_spec(*parts):
    return MeromorphicSpec.from_document({"kind": "sum", "parts": list(parts)})


EXP = {"kind": "builtin", "name": "exp"}


@pytest.mark.parametrize(
    "spec, p, radius, beyond_doubles",
    [
        # exp itself overflows a double on the rim
        (_sum_spec(EXP), 0, 750, True),
        # exp(709.5) is a double, 2 exp(709.5) is not
        (_sum_spec(EXP, EXP), 0, 709.5, True),
        # f's rational part has a coefficient past the double range
        (_sum_spec(EXP, {"kind": "rational", "num": [str(10**400)], "den": ["1", "-1/2"]}),
         1, 1.5, False),
    ],
)
def test_overflow_matches_the_mpf_path(spec, p, radius, beyond_doubles):
    # where a double overflows, the row's sup error is the integer form's
    # value at that point, exactly, and every integer-form value sits within
    # its bound of the exact value at its dyadic point
    grid = GridSpec(radius=radius)
    with precision(53):
        report = run_row_experiment(spec, p, 2, 4, grid)
        rows = _integer_errors(spec, p, 2, 4, grid)
        f_coefficients = held_coefficients(spec.rational)
    expected = [max(value for value, _ in values) for _, values in rows]
    assert [r.sup_error for r in report.records] == expected
    assert (max(expected) > sys.float_info.max) == beyond_doubles
    for r_coefficients, values in rows:
        for value, point in values:
            check_error(value, f_coefficients, spec.exp_count, r_coefficients, point, 53)


# ---------------------------------------------------------------------------
# Grid points


def _reference_points(grid, excluded_centers=()):
    # the original GridSpec.points body
    grid.validate()
    r = to_mpf(grid.radius)
    delta = to_mpf(grid.exclusion)
    centers = [to_mpc(c) for c in excluded_centers]
    out = []

    def circle(rho, count):
        for k in range(count):
            theta = 2 * mpmath.pi * k / count
            z = rho * mpmath.mpc(mpmath.cos(theta), mpmath.sin(theta))
            if any(abs(z - c) < delta for c in centers):
                continue
            out.append(z)

    circle(r, grid.rim_points)
    for j in range(1, grid.interior_circles + 1):
        circle(r * j / (grid.interior_circles + 1), grid.points_per_circle)
    return out


@st.composite
def grids_and_centers(draw):
    radius = draw(st.floats(0.01, 100))
    grid = GridSpec(
        radius=radius,
        rim_points=draw(st.integers(1, 40)),
        interior_circles=draw(st.integers(0, 3)),
        points_per_circle=draw(st.integers(1, 20)),
        exclusion_radius=draw(st.sampled_from([None, 0.0, 1e-300, 1e-15 * radius])),
    )
    circles = [(1, grid.rim_points)] + [
        (F(j, grid.interior_circles + 1), grid.points_per_circle)
        for j in range(1, grid.interior_circles + 1)
    ]
    centers = []
    for _ in range(draw(st.integers(0, 4))):
        scale, count = draw(st.sampled_from(circles))
        k = draw(st.integers(0, count - 1))
        # on a grid point, near the circle, or off it
        where = draw(st.sampled_from([1, 1 + 1e-16, 1 - 1e-9, 1 + 0.04, 0.5, 3]))
        z = radius * float(scale) * where * mpmath.expjpi(mpmath.mpf(2 * k) / count)
        centers.append(mpmath.mpc(complex(z)))
    return grid, centers


@settings
@hypothesis.given(grids_and_centers(), st.sampled_from([53, 113]))
def test_points_match_the_original_loop(case, bits):
    grid, centers = case
    with precision(bits):
        got = grid.points(centers)
        want = _reference_points(grid, centers)
    assert len(got) == len(want)
    assert all(a.real == b.real and a.imag == b.imag for a, b in zip(got, want))
