"""Floating diagnostics on top of the exact kernel.

The exact objects never see a float. Everything here instruments them at a
configurable binary precision: evaluation at complex points, denominator
root finding, magnitude estimates. mpmath supplies the arithmetic; this
module pins the conversion rules and the error contracts.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import fzero, mpc_add_mpf, mpc_mul, round_nearest

from ..errors import InputError, NearPoleError, NonFiniteError, RootFindingError

DEFAULT_PRECISION = 53

# Near-pole guard: evaluation refuses to divide when the denominator value
# is below this multiple of the largest denominator coefficient magnitude.
NEAR_POLE_EPS_REL = 1e-12

# Root residual contract: max |den(root)| must stay below this multiple of
# the largest coefficient magnitude.
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


def prepare_rf(rf) -> tuple:
    """Convert a rational function once for evaluation at many points.

    Returns (num, den, threshold): the raw mpf values (mpmath.libmp tuples)
    of the numerator and denominator coefficients, highest degree first,
    and the near-pole threshold, NEAR_POLE_EPS_REL times the largest
    denominator coefficient magnitude. All three hold at the working
    precision of the call; prepare again after changing it.
    """
    num = []
    for c in reversed(rf.num.coeffs):
        num.append(to_mpf(c)._mpf_)
    den = []
    for c in reversed(rf.den.coeffs):
        den.append(to_mpf(c)._mpf_)
    return num, den, to_mpf(NEAR_POLE_EPS_REL) * coefficient_scale(rf.den)


def eval_prepared_rf(prepared, z) -> mpmath.mpc:
    """Evaluate a prepare_rf result at a complex point with a pole guard.

    Denominator and numerator are evaluated by Horner's rule on the raw
    values, each step rounded to nearest at the working precision, exactly
    as mpc arithmetic (and eval_poly) rounds it. The division is refused
    with NearPoleError when |den(z)| is at or below the prepared threshold;
    the error carries the offending magnitude. NonFiniteError is raised for
    a non-finite denominator (checked before the guard), numerator or
    quotient.
    """
    num, den, threshold = prepared
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

    The one-point form of prepare_rf followed by eval_prepared_rf.
    """
    return eval_prepared_rf(prepare_rf(rf), z)


def find_poly_roots(poly) -> list[mpmath.mpc]:
    """All complex roots of an exact polynomial, deterministically ordered.

    Uses simultaneous iteration on the full root set, then checks every
    root against the residual contract |poly(root)| <= ROOT_RESIDUAL_REL
    times the largest coefficient magnitude. Roots are sorted by real part,
    then imaginary part.
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
    bound = to_mpf(ROOT_RESIDUAL_REL) * scale
    for r in roots:
        res = abs(eval_poly(poly, r))
        if not res <= bound:
            raise RootFindingError(
                f"root residual {mpmath.nstr(res, 6)} exceeds contract "
                f"{mpmath.nstr(bound, 6)}"
            )
    return sorted(roots, key=lambda r: (r.real, r.imag))
