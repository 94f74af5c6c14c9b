"""Floating diagnostics on top of the exact kernel.

The exact objects never see a float. Everything here instruments them at a
configurable binary precision: evaluation at complex points, denominator
root finding, magnitude estimates. mpmath supplies the arithmetic, except
on the integer form of prepare_rf, where Horner's rule, the quotient and
the row experiment's grid error run on Python integers and are rounded
once. This module pins the conversion rules and the error contracts.
"""

from __future__ import annotations

import cmath
import math
import sys
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpc_exp, round_nearest

from ..errors import InputError, NearPoleError, NonFiniteError, RootFindingError

DEFAULT_PRECISION = 53

# The precision of an IEEE double: prepare_rf's double form applies here.
DOUBLE_BITS = 53
_DOUBLE_MIN = sys.float_info.min

# Bits that prepare_rf's integer form and fixed_point keep beyond the
# working precision.
GUARD_BITS = 16

# Near-pole guard: evaluation refuses to divide when the denominator value
# is below this multiple of the largest denominator coefficient magnitude.
NEAR_POLE_EPS_REL = 1e-12

# Root residual contract: |den(root)| must stay below this multiple of the
# largest coefficient magnitude, or of the Horner magnitude at the root.
ROOT_RESIDUAL_REL = 1e-9

mp.prec = DEFAULT_PRECISION


def set_precision(bits: int) -> None:
    """Set the working binary precision for all floating diagnostics."""
    if not isinstance(bits, int) or bits < 8:
        raise InputError(f"precision must be an integer of at least 8 bits, got {bits!r}")
    mp.prec = bits


def get_precision() -> int:
    return mp.prec


@contextmanager
def precision(bits: int):
    """Temporarily switch the working precision."""
    if not isinstance(bits, int) or bits < 8:
        raise InputError(f"precision must be an integer of at least 8 bits, got {bits!r}")
    old = mp.prec
    mp.prec = bits
    try:
        yield
    finally:
        mp.prec = old


def to_mpf(x) -> mpmath.mpf:
    """Convert an exact rational (or int/float) to mpf at working precision."""
    if isinstance(x, Fraction):
        return mpmath.fdiv(x.numerator, x.denominator)
    return mpmath.mpf(x)


def to_mpc(z) -> mpmath.mpc:
    """Convert exact rationals, Python numbers, or mpmath values to mpc."""
    if isinstance(z, Fraction):
        return mpmath.mpc(to_mpf(z))
    if isinstance(z, tuple) and len(z) == 2:
        return mpmath.mpc(to_mpf(z[0]), to_mpf(z[1]))
    return mpmath.mpc(z)


def eval_poly(poly, z) -> mpmath.mpc:
    """Horner evaluation of an exact polynomial at a complex point."""
    z = to_mpc(z)
    acc = mpmath.mpc(0)
    for c in reversed(poly.coeffs):
        acc = acc * z + to_mpf(c)
    if not mpmath.isfinite(acc):
        raise NonFiniteError("polynomial evaluation produced a non-finite value")
    return acc


def coefficient_scale(poly) -> mpmath.mpf:
    """Largest coefficient magnitude, 0 for the zero polynomial."""
    scale = mpmath.mpf(0)
    for c in poly.coeffs:
        m = abs(to_mpf(c))
        if m > scale:
            scale = m
    return scale


def _double(x) -> float:
    """x as the double equal to to_mpf(x) at 53 bits.

    float() of a Fraction or an int rounds to nearest, as to_mpf does.
    OverflowError where no double holds that value: past the double range,
    or at a subnormal magnitude (or one that underflows to zero), where the
    mpf still carries 53 bits.
    """
    value = float(x)
    if abs(value) <= _DOUBLE_MIN and x:
        raise OverflowError("value below the normal double range")
    return value


def _fixed(sign: int, man: int, exp: int, bits: int) -> int:
    """(-1)^sign*man*2^exp times 2^bits, rounded to nearest."""
    shift = exp + bits
    if shift >= 0:
        man <<= shift
    else:
        man = (man + (1 << (-shift - 1))) >> -shift
    return -man if sign else man


def fixed_point(z) -> tuple:
    """A complex point as integers over a power of two: (re, im, F).

    The point is to_mpc(z) at the working precision prec, and (re + i im)/2^F
    is that point with each component rounded to nearest. F is prec +
    GUARD_BITS, plus the bits that bring |z| up to at least 1/2 when it is
    smaller, so the rounding moves z by at most 2^(1/2 - prec - GUARD_BITS)
    times max(|z|, 1/2). A non-finite point raises NonFiniteError.
    """
    parts = to_mpc(z)._mpc_
    for part in parts:
        if not part[1] and part != fzero:
            raise NonFiniteError("polynomial evaluation at a non-finite point")
    # |z| >= 2^(top - 1)
    top = max((part[2] + part[3] for part in parts if part[1]), default=0)
    bits = mp.prec + GUARD_BITS + max(0, -top)
    return _fixed(*parts[0][:3], bits), _fixed(*parts[1][:3], bits), bits


def _scaled(coeffs, bits: int):
    """Exact coefficients, highest degree first, as integers over 2^e.

    Returns (integers, e): each coefficient c as c*2^e rounded to nearest,
    with e >= 0 taken so that every nonzero |c|*2^e is at least 2^bits. None
    when a coefficient is not finite.
    """
    try:
        values = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
    except (OverflowError, ValueError):
        return None
    # 2^(k-1) < |c| < 2^(k+1) for k = bit length of |numerator| less that of the denominator
    heights = [abs(c.numerator).bit_length() - c.denominator.bit_length() for c in values if c]
    # at least 0, so that integer coefficients are held exactly
    e = max(0, bits + 1 - min(heights, default=bits + 1))
    return [(2 * (c.numerator << e) + c.denominator) // (2 * c.denominator) for c in values], e


def _integer_form(num, den, threshold) -> tuple:
    bits = mp.prec + GUARD_BITS
    num, den = _scaled(num, bits), _scaled(den, bits)
    limit = None
    if den is not None:
        # threshold^2 in units of 2^(-2e) of the denominator's value: (man^2, shift)
        _, man, exp, _ = threshold._mpf_
        limit = (man * man, 2 * (exp + den[1]))
    return num, den, limit


def prepare_rf(rf) -> tuple:
    """Convert a rational function once for evaluation at many points.

    Returns (num, den, threshold), numerator and denominator highest degree
    first, with the near-pole threshold NEAR_POLE_EPS_REL times the largest
    denominator coefficient magnitude. Either form holds at the working
    precision prec of the call; prepare again after changing it.

    At DOUBLE_BITS, when a double holds each of these values exactly as
    to_mpf rounds it, they are Python floats (the double form). Otherwise
    each polynomial is a pair (integers, e), its coefficients over 2^e
    rounded to nearest, with e >= 0 taken so that every nonzero coefficient
    keeps at least prec + GUARD_BITS bits (the integer form; a polynomial
    with a non-finite coefficient is None). The integer form's threshold is
    the mpf threshold at prec, squared and scaled to the denominator's
    integers.
    """
    if mp.prec == DOUBLE_BITS:
        try:
            num = [_double(c) for c in reversed(rf.num.coeffs)]
            den = [_double(c) for c in reversed(rf.den.coeffs)]
            return num, den, _double(NEAR_POLE_EPS_REL * max(map(abs, den), default=0.0))
        except OverflowError:
            pass
    threshold = to_mpf(NEAR_POLE_EPS_REL) * coefficient_scale(rf.den)
    return _integer_form(reversed(rf.num.coeffs), reversed(rf.den.coeffs), threshold)


def int_form(prepared) -> tuple:
    """The integer form of a prepare_rf result, from the same coefficient values."""
    num, den, threshold = prepared
    if not isinstance(threshold, float):
        return prepared
    return _integer_form(num, den, mpmath.mpf(threshold))


def _int_horner(poly, point) -> tuple:
    """(re, im, e): the value of an integer-form polynomial, over 2^e.

    The value is within 2^(1-e)*sum_{k<=d} |z|^k of the exact one at the point,
    d the degree: each coefficient is off by at most 1/2, and each of the d
    shifts drops less than 1 from each component.
    """
    if poly is None:
        raise NonFiniteError("polynomial evaluation produced a non-finite value")
    coeffs, e = poly
    a, b, frac = point
    re = im = 0
    for c in coeffs:
        re, im = ((re * a - im * b) >> frac) + c, (re * b + im * a) >> frac
    return re, im, e


def _int_ratio(prepared, point) -> tuple:
    """The numerator and denominator values of an integer form, guarded."""
    num, den, limit = prepared
    d = _int_horner(den, point)
    re, im, e = d
    square, shift = limit
    norm = re * re + im * im
    if (norm << -shift if shift < 0 else norm) <= (square << shift if shift > 0 else square):
        magnitude = mpmath.sqrt(mpmath.ldexp(norm, -2 * e))
        a, b, frac = point
        z = mpmath.mpc(mpmath.ldexp(a, -frac), mpmath.ldexp(b, -frac))
        raise NearPoleError(
            f"denominator magnitude {mpmath.nstr(magnitude, 6)} below "
            f"near-pole threshold at z = {mpmath.nstr(z, 8)}",
            magnitude=float(magnitude),
        )
    return _int_horner(num, point), d


def _height(value) -> int:
    """L with 2^(L-1) <= |value| < 2^(L+1/2), for a nonzero (re, im, e) over 2^e."""
    return max(abs(value[0]).bit_length(), abs(value[1]).bit_length()) - value[2]


def _quotient(n, d, bits: int) -> tuple:
    """n/d over 2^bits, each component rounded down."""
    nr, ni, en = n
    dr, di, ed = d
    re, im = nr * dr + ni * di, ni * dr - nr * di
    norm = dr * dr + di * di
    shift = bits + ed - en
    if shift < 0:
        return re // (norm << -shift), im // (norm << -shift)
    return (re << shift) // norm, (im << shift) // norm


def eval_prepared_rf(prepared, z):
    """Evaluate a prepare_rf result at a complex point with a pole guard.

    Denominator and numerator are evaluated by Horner's rule. NonFiniteError
    is raised for a non-finite denominator (checked before the guard),
    numerator or quotient; the division is refused with NearPoleError when
    |den(z)| is at or below the prepared threshold, and the error carries
    the offending magnitude.

    On the integer form, z is taken as fixed_point(z), integers over 2^F,
    and Horner's rule runs on integers: each step is
    ((re*a - im*b) >> F) + c, (re*b + im*a) >> F, with z = (a + i b)/2^F.
    With g = GUARD_BITS, prec the working precision and m a polynomial's
    smallest nonzero coefficient modulus, its value is then within
    E = 2^(1-prec-g)*m*sum_{k<=d} |z|^k of the exact value at the point, d the
    degree; when no coefficient is zero, E is at most 2^(1-prec-g) times
    the Horner magnitude sum |c_k||z|^k. The guard compares |den(z)|^2 with
    the threshold squared, exactly. The quotient q = num/den is formed on
    integers within (E_num + |q|*E_den)/(|den(z)| - E_den) of the exact
    one, plus 2^(-prec-g) of its own modulus, and each component is rounded
    once to nearest at prec bits. The value is an mpc.

    On the double form the steps are IEEE double complex arithmetic and the
    value is a Python complex. A point where a double goes non-finite, which
    the integer form cannot, is evaluated again on the integer form of the
    same values, so it returns or raises as that form does.
    """
    num, den, threshold = prepared
    if not isinstance(threshold, float):
        return _eval_int_form(prepared, z)
    w = z if type(z) is complex else complex(to_mpc(z))
    den_val = 0j
    for c in den:
        den_val = den_val * w + c
    if cmath.isfinite(den_val):
        try:
            magnitude = abs(den_val)
        except OverflowError:  # past the double range, so far above the guard
            magnitude = math.inf
        if magnitude <= threshold:
            raise NearPoleError(
                f"denominator magnitude {mpmath.nstr(mpmath.mpf(magnitude), 6)} below "
                f"near-pole threshold at z = {mpmath.nstr(mpmath.mpc(w), 8)}",
                magnitude=magnitude,
            )
        num_val = 0j
        for c in num:
            num_val = num_val * w + c
        # a non-finite numerator leaves the quotient non-finite
        value = num_val / den_val
        if cmath.isfinite(value):
            return value
    return _eval_int_form(int_form(prepared), w)


def _eval_int_form(prepared, z) -> mpmath.mpc:
    n, d = _int_ratio(prepared, fixed_point(z))
    if not (n[0] or n[1]):
        return mpmath.mpc(0)
    # |q| > 2^(prec + g + 1/2) over 2^bits, so the floor costs 2^(-prec-g)*|q|
    bits = mp.prec + GUARD_BITS + 2 - _height(n) + _height(d)
    re, im = _quotient(n, d, bits)
    prec = mp.prec
    return mp.make_mpc((from_man_exp(re, -bits, prec, round_nearest),
                        from_man_exp(im, -bits, prec, round_nearest)))


def _times(x, y) -> tuple:
    """The product of two values (re, im, e) over 2^e, exactly."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0], x[2] + y[2]


def error_modulus(f_prepared, exp_count: int, prepared, point) -> mpmath.mpf:
    """|f(z) - r(z)| on integer forms, rounded once to the working precision.

    f is the rational function of the integer form f_prepared plus
    exp_count*exp, r that of prepared, and point a fixed_point result. The
    checks run as eval_prepared_rf runs them, on f's rational part first.
    From the four Horner values, f's rational part less r is formed exactly
    over one common denominator and divided once, exp is taken by libmp at
    prec + g + 4 bits, and their sum and its modulus (isqrt) are taken on
    integers over one power of two. Before the one rounding to nearest at
    prec bits the modulus is within B_f + B_r + 2^(3-prec-g)*T of the exact
    |f(z) - r(z)| at the point: B_f and B_r are
    (E_num + |q|*E_den)/(|den(z)| - E_den) for the two quotients q, with
    eval_prepared_rf's E, and T is the larger of |f's rational part - r|
    and exp_count*|exp(z)|, up to its own error.
    """
    fn, fd = _int_ratio(f_prepared, point)
    rn, rd = _int_ratio(prepared, point)
    left, right = _times(fn, rd), _times(rn, fd)
    e = max(left[2], right[2])
    n = ((left[0] << e - left[2]) - (right[0] << e - right[2]),
         (left[1] << e - left[2]) - (right[1] << e - right[2]), e)
    d = _times(fd, rd)
    heights = [_height(n) - _height(d)] if n[0] or n[1] else []
    if exp_count:
        a, b, frac = point
        wp = mp.prec + GUARD_BITS + 4
        exp = mpc_exp((from_man_exp(a, -frac), from_man_exp(b, -frac)), wp, round_nearest)
        # 2^(h-1) <= exp_count*|exp(z)| < 2^(h+3/2)
        heights.append(max(x[2] + x[3] for x in exp if x[1]) + exp_count.bit_length() - 1)
    if not heights:
        return mpmath.mpf(0)
    # the larger term has modulus above 2^(prec + g + 1/2) over 2^bits
    bits = mp.prec + GUARD_BITS + 2 - max(heights)
    re, im = _quotient(n, d, bits) if n[0] or n[1] else (0, 0)
    if exp_count:
        (sr, mr, er, _), (si, mi, ei, _) = exp
        re += _fixed(sr, mr * exp_count, er, bits)
        im += _fixed(si, mi * exp_count, ei, bits)
    return mp.make_mpf(from_man_exp(math.isqrt(re * re + im * im), -bits, mp.prec, round_nearest))


def eval_rf_complex(rf, z) -> mpmath.mpc:
    """Evaluate a rational function at a complex point with a pole guard.

    The denominator and then the numerator by eval_poly, at any precision:
    the value is an mpc rounded as mpc arithmetic rounds it. The checks are
    eval_prepared_rf's, in its order: NonFiniteError for a non-finite
    denominator, NearPoleError when |den(z)| is at or below the near-pole
    threshold, NonFiniteError for a non-finite numerator or quotient.
    """
    z = to_mpc(z)
    den_val = eval_poly(rf.den, z)
    magnitude = abs(den_val)
    if magnitude <= to_mpf(NEAR_POLE_EPS_REL) * coefficient_scale(rf.den):
        raise NearPoleError(
            f"denominator magnitude {mpmath.nstr(magnitude, 6)} below "
            f"near-pole threshold at z = {mpmath.nstr(z, 8)}",
            magnitude=float(magnitude),
        )
    value = eval_poly(rf.num, z) / den_val
    if not mpmath.isfinite(value):
        raise NonFiniteError("rational evaluation produced a non-finite value")
    return value


def find_poly_roots(poly) -> list[mpmath.mpc]:
    """All complex roots of an exact polynomial, deterministically ordered.

    Uses simultaneous iteration on the full root set, then checks every
    root against the residual contract |poly(root)| <= ROOT_RESIDUAL_REL
    times the largest coefficient magnitude, or, for a far root where
    rounding grows with |c_k||root|^k, times the Horner magnitude: the sum
    of those terms. Roots are sorted by real part, then imaginary part.
    """
    if poly.is_zero:
        raise InputError("the zero polynomial has no root set")
    if poly.degree == 0:
        return []
    coeffs_desc = [to_mpf(c) for c in reversed(poly.coeffs)]
    try:
        roots = mpmath.polyroots(coeffs_desc, maxsteps=120, extraprec=80)
    except mpmath.libmp.NoConvergence:
        try:
            roots = mpmath.polyroots(coeffs_desc, maxsteps=400, extraprec=240)
        except mpmath.libmp.NoConvergence as exc:
            raise RootFindingError(f"root iteration did not converge: {exc}") from exc
    roots = [to_mpc(r) for r in roots]
    scale = coefficient_scale(poly)
    rel = to_mpf(ROOT_RESIDUAL_REL)
    bound = rel * scale
    for r in roots:
        res = abs(eval_poly(poly, r))
        if res <= bound:
            continue
        modulus = abs(r)
        far = rel * mpmath.fsum(abs(to_mpf(c)) * modulus**k for k, c in enumerate(poly.coeffs))
        if not res <= far:
            raise RootFindingError(
                f"root residual {mpmath.nstr(res, 6)} exceeds contract "
                f"{mpmath.nstr(max(bound, far), 6)}"
            )
    return sorted(roots, key=lambda r: (r.real, r.imag))
