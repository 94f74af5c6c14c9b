"""Continued fractions with exact convergent recurrences.

A fraction here is a head term q0 plus a list of partial pairs (p_k, q_k),
read as q0 + p1/(q1 + p2/(q2 + ...)). Two flavors share one engine:
NumericCF has rational terms, AlgebraicCF has polynomial terms. Convergents
come from the forward recurrence

    A_k = q_k * A_{k-1} + p_k * A_{k-2}
    B_k = q_k * B_{k-1} + p_k * B_{k-2}

seeded with A_{-1} = 1, B_{-1} = 0, A_0 = q0, B_0 = 1, and satisfy

    A_k * B_{k-1} - A_{k-1} * B_k = (-1)**(k-1) * p1 * ... * pk

in exact arithmetic. The inverse direction, recovering terms from a list of
convergent pairs, is cf_from_convergents below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import floor, isqrt
from typing import Callable, Iterable, Iterator, Optional, Union

import mpmath

from .core.floats import eval_poly, to_mpc, to_mpf
from .core.poly import Polynomial, RationalFunction, convolve
from .core.scalars import format_rational, integer_vector, parse_rational
from .errors import (
    ConvergentIndexError,
    DegenerateSequenceError,
    DomainError,
    IndeterminateTruncationError,
    InputError,
    NonFiniteError,
    SchemaError,
    UnknownBuiltinError,
)

Term = Union[Fraction, Polynomial]


@dataclass(frozen=True)
class ConvergentPair:
    """One convergent as the exact pair (A_k, B_k), never reduced."""

    numerator: Term
    denominator: Term

    def __iter__(self):
        return iter((self.numerator, self.denominator))

    @property
    def algebraic(self) -> bool:
        return isinstance(self.numerator, Polynomial) or isinstance(
            self.denominator, Polynomial
        )

    def as_fraction(self):
        """The pair as a value: a Fraction, or a RationalFunction.

        A zero denominator is reported, not returned, since the recurrence
        only produces one when the fraction degenerates.
        """
        if self.algebraic:
            den = self.denominator
            if isinstance(den, Polynomial) and den.is_zero:
                raise DegenerateSequenceError("zero denominator convergent")
            return RationalFunction(self.numerator, den)
        if self.denominator == 0:
            raise DegenerateSequenceError("zero denominator convergent")
        return Fraction(self.numerator) / Fraction(self.denominator)

    def reduced(self):
        """as_fraction in lowest terms."""
        value = self.as_fraction()
        if isinstance(value, RationalFunction):
            return value.reduced()
        return value


def _as_numeric_term(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, float):
        raise InputError(f"exact term expected, got float {x!r}")
    return Fraction(x)


def _as_poly_term(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, float):
        raise InputError(f"exact term expected, got float {x!r}")
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    if isinstance(x, (list, tuple)):
        return Polynomial(x)
    raise InputError(f"cannot build a polynomial term from {x!r}")


class ContinuedFraction:
    """Shared engine; instantiate NumericCF or AlgebraicCF instead.

    convergent_offset is 0 except for fractions built by cf_from_convergents
    from a pair list whose B_0 was not 1; those carry an artificial zero head
    and reproduce the supplied pairs starting at convergent 1. Documents
    carry a nonzero offset as their "offset" key: cf_to_document writes it
    and parse_cf_document reads it back.
    """

    algebraic = False
    convergent_offset = 0

    def __init__(self, q0, partials) -> None:
        coerce = _as_poly_term if self.algebraic else _as_numeric_term
        self._q0 = coerce(q0)
        terms = []
        for i, (p, q) in enumerate(partials, start=1):
            p = coerce(p)
            q = coerce(q)
            if self._is_zero(p):
                raise InputError(f"partial numerator p_{i} must be nonzero")
            terms.append((p, q))
        self._partials = tuple(terms)

    @classmethod
    def _is_zero(cls, t) -> bool:
        return t.is_zero if isinstance(t, Polynomial) else t == 0

    @property
    def q0(self):
        return self._q0

    @property
    def length(self) -> Optional[int]:
        """Number of partial pairs, None when the fraction is unbounded."""
        return len(self._partials)

    def partial(self, k: int):
        """Partial pair (p_k, q_k), 1-based."""
        if k < 1:
            raise ConvergentIndexError(f"partial index {k} out of range")
        if k > len(self._partials):
            raise ConvergentIndexError(
                f"partial index {k} exceeds term count {len(self._partials)}"
            )
        return self._partials[k - 1]

    def _ring(self):
        if self.algebraic:
            return Polynomial.one(), Polynomial.zero()
        return Fraction(1), Fraction(0)

    def _check_index(self, k: int) -> None:
        if k < 0:
            raise ConvergentIndexError(f"convergent index {k} out of range")
        if self.length is not None and k > self.length:
            raise ConvergentIndexError(
                f"convergent index {k} exceeds term count {self.length}"
            )

    def _forward(self, upto: int):
        """Yield the pairs (A_0, B_0) through (A_upto, B_upto) in order."""
        self._check_index(upto)
        one, zero = self._ring()
        a_prev, b_prev = one, zero
        a, b = self._q0, one
        yield ConvergentPair(a, b)
        for k in range(1, upto + 1):
            p, q = self.partial(k)
            a, a_prev = q * a + p * a_prev, a
            b, b_prev = q * b + p * b_prev, b
            yield ConvergentPair(a, b)

    def convergent(self, k: int) -> ConvergentPair:
        """Exact pair (A_k, B_k) from the forward recurrence."""
        for pair in self._forward(k):
            pass
        return pair

    def convergent_pairs(self, upto: int) -> list[ConvergentPair]:
        """Pairs (A_0, B_0) through (A_upto, B_upto) in one forward pass."""
        return list(self._forward(upto))

    def prefix(self, k: int):
        """A finite fraction carrying the head, the first k partials and the offset."""
        if k < 0:
            raise InputError("prefix length must be nonnegative")
        cls = AlgebraicCF if self.algebraic else NumericCF
        head = cls(self._q0, [self.partial(i) for i in range(1, k + 1)])
        head.convergent_offset = self.convergent_offset
        return head

    def __repr__(self) -> str:
        n = self.length
        shown = "unbounded" if n is None else f"{n} terms"
        return f"{type(self).__name__}(q0={self._q0!r}, {shown})"


class NumericCF(ContinuedFraction):
    """Continued fraction with exact rational terms."""

    algebraic = False


class AlgebraicCF(ContinuedFraction):
    """Continued fraction with exact polynomial terms."""

    algebraic = True


class _StreamCF(AlgebraicCF):
    """Unbounded algebraic fraction defined by a term rule.

    Terms are computed on demand and cached in order.
    """

    def __init__(self, name: str, q0, rule: Callable[[int], tuple]) -> None:
        super().__init__(q0, ())
        self._name = name
        self._rule = rule
        self._cache: list[tuple] = []

    @property
    def length(self) -> Optional[int]:
        return None

    @property
    def name(self) -> str:
        return self._name

    def partial(self, k: int):
        if k < 1:
            raise ConvergentIndexError(f"partial index {k} out of range")
        while len(self._cache) < k:
            i = len(self._cache) + 1
            p, q = self._rule(i)
            p = _as_poly_term(p)
            q = _as_poly_term(q)
            if p.is_zero:
                raise DomainError(f"term rule produced zero p_{i}")
            self._cache.append((p, q))
        return self._cache[k - 1]


def convergent(cf: ContinuedFraction, k: int) -> ConvergentPair:
    """Convergent k of a continued fraction as an exact pair."""
    return cf.convergent(k)


def euclid_cf(x) -> NumericCF:
    """Simple continued fraction of an exact rational, by the floor loop.

    Every partial numerator is 1; integers get an empty term list. The last
    convergent always reproduces the input in lowest terms.
    """
    x = _as_numeric_term(x)
    q0 = floor(x)
    frac = x - q0
    terms = []
    while frac != 0:
        x = 1 / frac
        a = floor(x)
        terms.append((Fraction(1), Fraction(a)))
        frac = x - a
    return NumericCF(Fraction(q0), terms)


def sqrt_cf(n: int, k: int) -> NumericCF:
    """First k terms (head included) of the square root fraction of n.

    Runs the exact surd iteration on integer state, so the periodic pattern
    comes out with no rounding anywhere. A perfect square yields just the
    head, whatever k is requested.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"square root fraction needs a nonnegative integer, got {n!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InputError(f"term count must be a positive integer, got {k!r}")
    a0 = isqrt(n)
    if a0 * a0 == n:
        return NumericCF(Fraction(a0), ())
    terms = []
    big_p, big_q, a = 0, 1, a0
    for _ in range(k - 1):
        big_p = a * big_q - big_p
        big_q = (n - big_p * big_p) // big_q
        a = (a0 + big_p) // big_q
        terms.append((Fraction(1), Fraction(a)))
    return NumericCF(Fraction(a0), terms)


def _integer_pair(a, b) -> tuple[list[int], list[int], int]:
    """A pair (A, B) as integer coefficient vectors over one common denominator.

    A number is read as a constant polynomial, zero as the empty vector.
    """
    ca = a.coeffs if isinstance(a, Polynomial) else ((a,) if a else ())
    cb = b.coeffs if isinstance(b, Polynomial) else ((b,) if b else ())
    ints, scale = integer_vector(ca + cb)
    return ints[: len(ca)], ints[len(ca) :], scale


def _cross(a1: list[int], b1: list[int], a2: list[int], b2: list[int]) -> list[int]:
    """a1*b1 - a2*b2 as a trimmed integer coefficient vector."""
    out, v = convolve(a1, b1), convolve(a2, b2)
    out += [0] * (len(v) - len(out))
    for i, y in enumerate(v):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def _term_quotient(num: list[int], det: list[int], scale: Fraction, index: int):
    """Coefficients of scale * num / det, with num and det trimmed and det nonzero.

    A monomial c*z^j divides by a shift and a scale, and needs the j low
    coefficients of num to vanish; any other det goes through exact_div.
    A division that is not exact means no fraction has these convergents.
    """
    j = len(det) - 1
    try:
        if any(det[:j]):
            return (Polynomial(num).exact_div(Polynomial(det)) * scale).coeffs
        if any(num[:j]):
            raise DomainError("polynomial division is not exact")
    except DomainError as exc:
        raise DegenerateSequenceError(
            f"no exact polynomial term at index {index}: {exc}", index=index
        ) from exc
    c = det[j] * scale.denominator
    return [Fraction(x * scale.numerator, c) for x in num[j:]]


def _constant(coeffs) -> Fraction:
    return coeffs[0] if coeffs else Fraction(0)


def cf_from_convergents(pairs: Iterable) -> ContinuedFraction:
    """Recover a continued fraction whose convergents are the given pairs.

    Accepts ConvergentPair objects or raw (A, B) tuples, rational or
    polynomial. When B_0 is 1 the recovery is direct and convergent k of
    the result equals pairs[k] exactly. Otherwise no fraction can start at
    the given pair, so a zero head is prepended and the result reproduces
    pairs[k] at convergent k + 1; the instance records this through
    convergent_offset = 1.

    Each step solves the two-term recurrence for (p_k, q_k):

        q_k = (A_k B_{k-2} - A_{k-2} B_k) / D_k
        p_k = (A_{k-1} B_k - A_k B_{k-1}) / D_k,  D_k = A_{k-1} B_{k-2} - A_{k-2} B_{k-1}

    with (A_{-1}, B_{-1}) = (1, 0). The numerator of p_k is -D_{k+1}, so
    each determinant is carried to the next step, not recomputed, and is
    never zero: D_1 = -B_0, and a zero numerator of p_k stops the recovery
    before step k + 1. Numbers are constant polynomials, and every pair is
    scaled once to integer coefficient vectors, so the products are
    integer convolutions. On a normal Pade row D_k is a single monomial
    (the Frobenius identity), and the division is a shift. A zero partial
    numerator (two consecutive pairs proportional) or an inexact polynomial
    division means no fraction generates the sequence, reported with the
    failing index.
    """
    raw = []
    algebraic = False
    for item in pairs:
        if isinstance(item, ConvergentPair):
            a, b = item.numerator, item.denominator
        else:
            a, b = item
        if isinstance(a, Polynomial) or isinstance(b, Polynomial):
            algebraic = True
        raw.append((a, b))
    if not raw:
        raise InputError("at least one convergent pair is required")
    coerce = _as_poly_term if algebraic else _as_numeric_term
    raw = [(coerce(a), coerce(b)) for a, b in raw]
    return _cf_from_integer_pairs((_integer_pair(a, b) for a, b in raw), algebraic)


def _cf_from_integer_pairs(pairs: Iterator, algebraic: bool) -> ContinuedFraction:
    """The recovery of cf_from_convergents, on pairs given as _integer_pair makes them.

    pairs yields at least one triple (a, b, s), the pair (a/s, b/s). It is
    read once, and only the pairs k-2, k-1 and k of the current step are
    kept.
    """
    term = Polynomial if algebraic else _constant
    first = next(pairs)
    offset = 0 if tuple(first[1]) == (first[2],) else 1
    # (A_{-1}, B_{-1}) = (1, 0), then the zero head (0, 1) when B_0 is not 1
    head = ([], [1], 1) if offset else first
    if offset:
        pairs = chain((first,), pairs)
    (a2, b2, s2), (a1, b1, s1) = ([1], [], 1), head
    # B_0 = 1 is scaled to [s_0], so D_1 = -[s_0]
    det = [-s1]
    terms = []
    for k, (a, b, s) in enumerate(pairs, start=1):
        index = k - offset
        q = _term_quotient(_cross(a, b2, a2, b), det, Fraction(s1, s), index)
        nxt = _cross(a, b1, a1, b)
        if not nxt:
            raise DegenerateSequenceError(
                f"zero partial numerator forced at index {index}", index=index
            )
        p = _term_quotient(nxt, det, Fraction(-s2, s), index)
        terms.append((term(p), term(q)))
        det = nxt
        (a2, b2, s2), (a1, b1, s1) = (a1, b1, s1), (a, b, s)

    cls = AlgebraicCF if algebraic else NumericCF
    cf = cls(term([Fraction(x, head[2]) for x in head[0]]), terms)
    cf.convergent_offset = offset
    return cf


def evaluate_cf(
    cf: ContinuedFraction,
    z,
    k: int,
    method: str = "backward",
    eps: float = 1e-12,
) -> mpmath.mpc:
    """Floating value of convergent k at the point z.

    "backward" folds the fraction from the tail, which is the numerically
    stable direction; "forward" runs the convergent recurrence in floating
    arithmetic and divides once at the end. Either way a division by a
    value within eps of zero (relative to the incoming numerator) raises
    IndeterminateTruncationError with the level recorded.
    """
    cf._check_index(k)
    z = to_mpc(z)

    def value(term):
        if isinstance(term, Polynomial):
            return eval_poly(term, z)
        return to_mpc(term)

    if method == "backward":
        if k == 0:
            return value(cf.q0)
        acc = value(cf.partial(k)[1])
        for j in range(k, 0, -1):
            pv = value(cf.partial(j)[0])
            guard = to_mpf(eps) * max(mpmath.mpf(1), abs(pv))
            if abs(acc) <= guard:
                raise IndeterminateTruncationError(
                    f"tail value within eps of zero at level {j}", level=j
                )
            head = value(cf.q0) if j == 1 else value(cf.partial(j - 1)[1])
            acc = head + pv / acc
        result = acc
    elif method == "forward":
        one = mpmath.mpc(1)
        a_prev, b_prev = one, mpmath.mpc(0)
        a, b = value(cf.q0), one
        for j in range(1, k + 1):
            p, q = cf.partial(j)
            pv, qv = value(p), value(q)
            a, a_prev = qv * a + pv * a_prev, a
            b, b_prev = qv * b + pv * b_prev, b
        guard = to_mpf(eps) * max(mpmath.mpf(1), abs(a))
        if abs(b) <= guard:
            raise IndeterminateTruncationError(
                f"convergent denominator within eps of zero at level {k}", level=k
            )
        result = a / b
    else:
        raise InputError(f"unknown evaluation method {method!r}")

    if not mpmath.isfinite(result):
        raise NonFiniteError("continued fraction evaluation went non-finite")
    return result


def builtin_algebraic_cf(name: str) -> AlgebraicCF:
    """Named unbounded algebraic fraction with terms computable on demand.

    "tan" is the odd-denominator fraction with head 0, first pair (x, 1)
    and pairs (-x^2, 2k-1) after that. "exp" has head 1, every partial
    numerator z, and denominators following the period-four pattern
    1, -2, -3, 2, 5, -2, -7, 2, 9, ... in which the odd slots carry
    alternating-sign odd multipliers and the even slots alternate -2, 2.
    """
    if name == "tan":
        x = Polynomial.variable()
        minus_x2 = Polynomial((0, 0, -1))

        def tan_rule(k: int):
            if k == 1:
                return (x, Polynomial.one())
            return (minus_x2, Polynomial((2 * k - 1,)))

        return _StreamCF("tan", Polynomial.zero(), tan_rule)
    if name == "exp":
        z = Polynomial.variable()

        def exp_rule(k: int):
            r = k % 4
            if r == 1:
                q = 1 if k == 1 else k
            elif r == 2:
                q = -2
            elif r == 3:
                q = -k
            else:
                q = 2
            return (z, Polynomial((q,)))

        return _StreamCF("exp", Polynomial.one(), exp_rule)
    raise UnknownBuiltinError(f"unknown builtin continued fraction {name!r}")


# ---------------------------------------------------------------------------
# Documents


def _poly_to_array(p: Polynomial) -> list[str]:
    if p.is_zero:
        return ["0"]
    return [format_rational(c) for c in p.coeffs]


def cf_to_document(cf: ContinuedFraction) -> dict:
    """JSON form of a finite fraction.

    Numeric fractions with every partial numerator equal to 1 use the short
    {"q0", "terms"} form; general numeric ones use {"q0", "partials"} with
    ["p", "q"] entries; algebraic ones carry coefficient arrays instead of
    rational literals. A nonzero convergent_offset is written as "offset"
    in every form.
    """
    if cf.length is None:
        raise InputError("unbounded fraction: take a finite prefix first")
    fmt = _poly_to_array if cf.algebraic else format_rational
    partials = [cf.partial(k) for k in range(1, cf.length + 1)]
    if not cf.algebraic and all(p == 1 for p, _ in partials):
        doc = {"q0": fmt(cf.q0), "terms": [fmt(q) for _, q in partials]}
    else:
        doc = {"q0": fmt(cf.q0), "partials": [[fmt(p), fmt(q)] for p, q in partials]}
    if cf.convergent_offset:
        doc["offset"] = cf.convergent_offset
    return doc


def partial_documents(cf: ContinuedFraction):
    """The [p, q] entry of each partial of a finite fraction, in order.

    These are the entries of cf_to_document's "partials" form, made one at
    a time.
    """
    fmt = _poly_to_array if cf.algebraic else format_rational
    for k in range(1, cf.length + 1):
        p, q = cf.partial(k)
        yield [fmt(p), fmt(q)]


def _array_to_poly(coeffs: list) -> Polynomial:
    return Polynomial([parse_rational(c) for c in coeffs])


def parse_cf_document(doc, path: str = "$") -> ContinuedFraction:
    """Inverse of cf_to_document; accepts both numeric forms.

    An "offset" key becomes the fraction's convergent_offset; without one
    the offset is 0. Only the offsets cf_from_convergents makes are read:
    0, or 1 on a fraction with a zero head.
    """
    if not isinstance(doc, dict):
        raise SchemaError("continued fraction document must be a JSON object", path)
    if "q0" not in doc:
        raise SchemaError("missing q0", f"{path}.q0")
    q0 = doc["q0"]
    algebraic = isinstance(q0, list)
    try:
        if "terms" in doc:
            if algebraic:
                raise SchemaError("terms form is numeric only", f"{path}.terms")
            terms = doc["terms"]
            if not isinstance(terms, list):
                raise SchemaError("terms must be an array", f"{path}.terms")
            cf = NumericCF(
                parse_rational(q0),
                [(Fraction(1), parse_rational(t)) for t in terms],
            )
        else:
            partials = doc.get("partials", [])
            if not isinstance(partials, list):
                raise SchemaError("partials must be an array", f"{path}.partials")
            term = _array_to_poly if algebraic else parse_rational
            # an algebraic head is read before the partials and a numeric one
            # after them; that order fixes which fault a bad document reports
            head = term(q0) if algebraic else None
            pairs = []
            for i, entry in enumerate(partials):
                if not isinstance(entry, list) or len(entry) != 2:
                    raise SchemaError(
                        "each partial must be a [p, q] pair", f"{path}.partials[{i}]"
                    )
                if algebraic and not all(isinstance(t, list) for t in entry):
                    raise SchemaError(
                        "algebraic partials carry coefficient arrays",
                        f"{path}.partials[{i}]",
                    )
                pairs.append((term(entry[0]), term(entry[1])))
            cf = AlgebraicCF(head, pairs) if algebraic else NumericCF(term(q0), pairs)
    except InputError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(str(exc), path) from exc
    offset = doc.get("offset", 0)
    if type(offset) is not int or offset not in (0, 1) or (offset and cf.q0):
        raise SchemaError("offset must be 0, or 1 with a zero q0", f"{path}.offset")
    cf.convergent_offset = offset
    return cf
