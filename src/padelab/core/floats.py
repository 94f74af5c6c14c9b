"""Floating diagnostics on top of the exact kernel.

The exact objects never see a float. Everything here instruments them at a
configurable binary precision: evaluation at complex points, denominator
root finding, magnitude estimates. mpmath supplies the arithmetic; this
module pins the conversion rules and the error contracts.
"""

from __future__ import annotations

import cmath
import math
import sys
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import from_float, fzero, mpc_add_mpf, mpc_mul, round_nearest

from ..errors import InputError, NearPoleError, NonFiniteError, RootFindingError

DEFAULT_PRECISION = 53

# The precision of an IEEE double: prepare_rf's double form applies here.
DOUBLE_BITS = 53
_DOUBLE_MIN = sys.float_info.min

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


def _prepare_mpf(rf) -> tuple:
    num = []
    for c in reversed(rf.num.coeffs):
        num.append(to_mpf(c)._mpf_)
    den = []
    for c in reversed(rf.den.coeffs):
        den.append(to_mpf(c)._mpf_)
    return num, den, to_mpf(NEAR_POLE_EPS_REL) * coefficient_scale(rf.den)


def prepare_rf(rf) -> tuple:
    """Convert a rational function once for evaluation at many points.

    Returns (num, den, threshold): the numerator and denominator
    coefficients, highest degree first, and the near-pole threshold,
    NEAR_POLE_EPS_REL times the largest denominator coefficient magnitude.
    At DOUBLE_BITS of working precision, when a double holds each of these
    values exactly as to_mpf rounds it, they are Python floats (the double
    form). Otherwise they are raw mpf values (mpmath.libmp tuples) and an
    mpf threshold (the mpf form). Either holds at the working precision of
    the call; prepare again after changing it.
    """
    if mp.prec == DOUBLE_BITS:
        try:
            num = [_double(c) for c in reversed(rf.num.coeffs)]
            den = [_double(c) for c in reversed(rf.den.coeffs)]
            return num, den, _double(NEAR_POLE_EPS_REL * max(map(abs, den), default=0.0))
        except OverflowError:
            pass
    return _prepare_mpf(rf)


def mpf_form(prepared) -> tuple:
    """The mpf form of a prepare_rf result, holding the same values."""
    num, den, threshold = prepared
    if not isinstance(threshold, float):
        return prepared
    return [from_float(c) for c in num], [from_float(c) for c in den], mpmath.mpf(threshold)


def eval_prepared_rf(prepared, z):
    """Evaluate a prepare_rf result at a complex point with a pole guard.

    Denominator and numerator are evaluated by Horner's rule. NonFiniteError
    is raised for a non-finite denominator (checked before the guard),
    numerator or quotient; the division is refused with NearPoleError when
    |den(z)| is at or below the prepared threshold, and the error carries
    the offending magnitude.

    On the mpf form each step is rounded to nearest at the working
    precision, exactly as mpc arithmetic (and eval_poly) rounds it, and the
    value is an mpc. On the double form the steps are IEEE double complex
    arithmetic, which can differ from mpc rounding in the last bits, and
    the value is a Python complex. A point where a double goes non-finite,
    which the unbounded mpf exponent may not, is evaluated again on the mpf
    form, so it returns or raises as the mpf form does.
    """
    num, den, threshold = prepared
    if not isinstance(threshold, float):
        return _eval_mpf_form(num, den, threshold, z)
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
    return _eval_mpf_form(*mpf_form(prepared), mpmath.mpc(w))


def _eval_mpf_form(num, den, threshold, z) -> mpmath.mpc:
    z = to_mpc(z)
    prec = mp.prec
    w = z._mpc_
    acc = (fzero, fzero)
    for c in den:
        acc = mpc_add_mpf(mpc_mul(acc, w, prec, round_nearest), c, prec, round_nearest)
    den_val = mp.make_mpc(acc)
    if not mpmath.isfinite(den_val):
        raise NonFiniteError("polynomial evaluation produced a non-finite value")
    if abs(den_val) <= threshold:
        raise NearPoleError(
            f"denominator magnitude {mpmath.nstr(abs(den_val), 6)} below "
            f"near-pole threshold at z = {mpmath.nstr(z, 8)}",
            magnitude=float(abs(den_val)),
        )
    acc = (fzero, fzero)
    for c in num:
        acc = mpc_add_mpf(mpc_mul(acc, w, prec, round_nearest), c, prec, round_nearest)
    num_val = mp.make_mpc(acc)
    if not mpmath.isfinite(num_val):
        raise NonFiniteError("polynomial evaluation produced a non-finite value")
    value = num_val / den_val
    if not mpmath.isfinite(value):
        raise NonFiniteError("rational evaluation produced a non-finite value")
    return value


def eval_rf_complex(rf, z) -> mpmath.mpc:
    """Evaluate a rational function at a complex point with a pole guard.

    eval_prepared_rf on the mpf form, at any precision: the value is an mpc
    rounded as mpc arithmetic rounds it.
    """
    return _eval_mpf_form(*_prepare_mpf(rf), z)


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
