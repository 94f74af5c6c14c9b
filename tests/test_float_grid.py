"""The row experiment's grid at 53 bits: double forms, fallbacks, grid points.

At 53 bits prepare_rf holds each coefficient as the double equal to its
mpf, and eval_prepared_rf runs Horner's rule in IEEE double complex
arithmetic. eval_poly at a much higher precision is the reference: the
double form must stay within a bound fixed in advance from the double's
epsilon and the Horner magnitude sum |c_0| + |c_1||z| + ... + |c_d||z|^d.
Where a double overflows and the mpf does not, the row experiment must
report exactly what the mpf form reports. GridSpec.points must give the
points of the original loop (a cos and a sin per point, every center
tested) bit for bit.
"""

import sys
from fractions import Fraction as F

import mpmath
import pytest

from padelab import (
    GridSpec,
    MeromorphicSpec,
    Polynomial,
    RationalFunction,
    eval_rf_complex,
    pade_approximant,
    precision,
    run_row_experiment,
)
from padelab.core.floats import (
    NEAR_POLE_EPS_REL,
    coefficient_scale,
    eval_poly,
    eval_prepared_rf,
    mpf_form,
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


@settings
@hypothesis.given(st.lists(wide_fractions, min_size=1, max_size=6),
                  st.lists(wide_fractions, min_size=1, max_size=6).filter(any))
def test_prepared_values_are_the_53_bit_mpf_values(num, den):
    # the double form, where a double holds every value, and the mpf form
    # otherwise, carry exactly the values to_mpf gives at 53 bits
    rf = RationalFunction(Polynomial(num), Polynomial(den))
    with precision(53):
        prepared = prepare_rf(rf)
        expected = (
            [to_mpf(c)._mpf_ for c in reversed(rf.num.coeffs)],
            [to_mpf(c)._mpf_ for c in reversed(rf.den.coeffs)],
            to_mpf(NEAR_POLE_EPS_REL) * coefficient_scale(rf.den),
        )
        converted = mpf_form(prepared)
    assert converted[0] == expected[0]
    assert converted[1] == expected[1]
    assert converted[2] == expected[2]
    exact_in_doubles = all(
        c == 0 or sys.float_info.min < abs(c) < sys.float_info.max
        for c in list(rf.num.coeffs) + list(rf.den.coeffs)
    )
    if not exact_in_doubles:
        assert not isinstance(prepared[2], float)


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
# Fallback to the mpf form


def test_coefficient_past_the_double_range_keeps_the_mpf_form():
    rf = RationalFunction(Polynomial((F(10**400), 1)), Polynomial((1, F(-1, 2))))
    with precision(53):
        prepared = prepare_rf(rf)
        assert not isinstance(prepared[2], float)
        for z in (complex(0.25, 0.5), complex(-1.5, 0.1)):
            assert eval_prepared_rf(prepared, z) == eval_rf_complex(rf, mpmath.mpc(z))


def test_exp_past_the_double_range_taken_in_mpf():
    spec = MeromorphicSpec.from_document(EXP)
    with precision(53):
        prepared = prepare_rf(spec.rational)
        assert isinstance(prepared[2], float)
        assert type(spec.evaluate(complex(700), prepared)) is complex
        assert spec.evaluate(complex(750), prepared) == spec.evaluate(750)


def _mpf_sup_errors(spec, p, n_min, n_max, grid):
    """The sup errors of a row, point by point on the mpf path."""
    grid_points = grid.points([info.location for info in spec.poles()])
    series = spec.taylor(n_max + p)
    sups = []
    for n in range(n_min, n_max + 1):
        entry = pade_approximant(series.truncated(n + p), n, p)
        sup = None
        for z in grid_points:
            try:
                err = abs(spec.evaluate(z) - eval_rf_complex(entry.fraction, z))
            except (NearPoleError, DomainError):
                continue
            if sup is None or err > sup:
                sup = err
        sups.append(sup)
    return sups


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
    grid = GridSpec(radius=radius)
    with precision(53):
        report = run_row_experiment(spec, p, 2, 4, grid)
        expected = _mpf_sup_errors(spec, p, 2, 4, grid)
    assert [r.sup_error for r in report.records] == expected
    assert (max(expected) > sys.float_info.max) == beyond_doubles


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
