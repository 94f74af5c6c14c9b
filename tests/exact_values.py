"""Exact values at a dyadic point, and the bounds the integer form states.

The integer form of prepare_rf evaluates at fixed_point(z), the point
(a + i b)/2^F. Here the same polynomials are evaluated there exactly, over
Fractions, and the bounds of eval_prepared_rf and error_modulus are
computed from their docstrings, at a precision far above the one tested.
"""

from fractions import Fraction as F

import mpmath

from padelab.core.floats import GUARD_BITS, prepare_rf, to_mpf

# working bits of the reference arithmetic, far above any precision tested
REFERENCE_BITS = 1200


def dyadic(point):
    """The exact point of a fixed_point result, as a pair of Fractions."""
    a, b, frac = point
    return F(a, 2**frac), F(b, 2**frac)


def horner_exact(coeffs, z):
    """Exact value of a polynomial, highest degree first, at a Fraction pair."""
    x, y = z
    re = im = F(0)
    for c in coeffs:
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


def quotient_exact(num, den, z):
    """Exact num(z)/den(z) as a pair of Fractions."""
    (nr, ni), (dr, di) = horner_exact(num, z), horner_exact(den, z)
    norm = dr * dr + di * di
    return (nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm


def _mpc(pair):
    return mpmath.mpc(to_mpf(pair[0]), to_mpf(pair[1]))


def horner_bound(coeffs, z, bits):
    """E = 2^(1-prec-g)*m*sum_{k<=d} |z|^k, as an mpf; call at REFERENCE_BITS."""
    nonzero = [abs(F(c)) for c in coeffs if c]
    if not nonzero:
        return mpmath.mpf(0)
    modulus = abs(_mpc(z))
    power_sum = mpmath.fsum(modulus**k for k in range(len(coeffs)))
    return mpmath.ldexp(to_mpf(min(nonzero)) * power_sum, 1 - bits - GUARD_BITS)


def propagated(num, den, z, bits):
    """(exact q = num/den, B = (E_num + |q|*E_den)/(|den(z)| - E_den)).

    num and den are highest degree first; call at REFERENCE_BITS. The points
    tested pass the near-pole guard, far above E_den.
    """
    q = quotient_exact(num, den, z)
    d = abs(_mpc(horner_exact(den, z)))
    e_num, e_den = horner_bound(num, z, bits), horner_bound(den, z, bits)
    assert d > e_den
    return q, (e_num + abs(_mpc(q)) * e_den) / (d - e_den)


def rf_coefficients(rf):
    """Numerator and denominator of an exact rational function, highest degree first."""
    return list(reversed(rf.num.coeffs)), list(reversed(rf.den.coeffs))


def held_coefficients(rf):
    """The values int_form(prepare_rf(rf)) holds at the working precision.

    Those of a double form are the doubles, which int_form converts
    exactly; the integer form holds the exact coefficients.
    """
    num, den, threshold = prepare_rf(rf)
    if isinstance(threshold, float):
        return [F(c) for c in num], [F(c) for c in den]
    return rf_coefficients(rf)


def check_quotient(got, num, den, point, bits):
    """got, an mpc at bits, within eval_prepared_rf's bound plus one rounding."""
    with mpmath.workprec(REFERENCE_BITS):
        q, b = propagated(num, den, dyadic(point), bits)
        q = _mpc(q)
        # the last division adds 2^(-prec-g) of the modulus it forms
        bound = b + mpmath.ldexp(abs(q) + b, -bits - GUARD_BITS)
        # one rounding to nearest per component moves a value x by at most 2^-bits*|x|
        assert abs(mpmath.mpc(got) - q) <= bound + mpmath.ldexp(abs(q) + bound, -bits)


def check_error(got, f_coefficients, exp_count, r_coefficients, point, bits):
    """got, error_modulus's mpf at bits, within its stated bound plus one rounding.

    Each of f's rational part and r is given as (numerator, denominator),
    highest degree first.
    """
    z = dyadic(point)
    with mpmath.workprec(REFERENCE_BITS):
        qf, bf = propagated(*f_coefficients, z, bits)
        qr, br = propagated(*r_coefficients, z, bits)
        rational = _mpc((qf[0] - qr[0], qf[1] - qr[1]))
        e = exp_count * mpmath.exp(_mpc(z))
        exact = abs(rational + e)
        larger = max(abs(rational) + bf + br, abs(e))
        bound = bf + br + mpmath.ldexp(larger, 3 - bits - GUARD_BITS)
        assert abs(mpmath.mpf(got) - exact) <= bound + mpmath.ldexp(exact + bound, -bits)
