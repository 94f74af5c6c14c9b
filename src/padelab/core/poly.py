"""Dense exact polynomials and normalized rational functions."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from ..errors import DomainError, InputError, PoleEvaluationError

CoeffLike = Union[Fraction, int]


def _exact(c) -> Fraction:
    if type(c) is Fraction:
        return c
    if isinstance(c, float):
        raise InputError(f"exact coefficient expected, got float {c!r}")
    return Fraction(c)


class Polynomial:
    """Polynomial over exact fractions, coefficients in ascending order.

    The zero polynomial is the empty coefficient tuple; otherwise the last
    coefficient is nonzero. Instances are immutable and hashable, so they
    can serve as continued fraction terms and dictionary keys alike.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[CoeffLike] = ()) -> None:
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: CoeffLike = 1) -> "Polynomial":
        if k < 0:
            raise InputError("monomial degree must be nonnegative")
        return cls((0,) * k + (c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient at index i, zero beyond the degree."""
        if i < 0:
            raise InputError("coefficient index must be nonnegative")
        if i >= len(self._coeffs):
            return Fraction(0)
        return self._coeffs[i]

    def __call__(self, x):
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return Fraction(acc) if isinstance(acc, int) else acc

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Polynomial", self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self._coeffs))

    def __add__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self._coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise InputError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _promote(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return NotImplemented

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = self._promote(other)
        if other is NotImplemented or other.is_zero:
            raise DomainError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self._coeffs) - len(other._coeffs) + 1, 0)
        rem = list(self._coeffs)
        dlead = other.leading_coefficient
        dn = len(other._coeffs)
        while len(rem) >= dn:
            c = rem[-1] / dlead
            k = len(rem) - dn
            quot[k] = c
            for j in range(dn):
                rem[k + j] -= c * other._coeffs[j]
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) == k + dn:
                # leading term failed to cancel; cannot happen with exact arithmetic
                raise AssertionError("leading term survived exact division step")
        return Polynomial(quot), Polynomial(rem)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Quotient self/other when the division is exact; DomainError otherwise."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DomainError("polynomial division is not exact")
        return q

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self._coeffs) if i > 0))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        inv = 1 / self.leading_coefficient
        return self * inv

    @staticmethod
    def gcd(a: "Polynomial", b: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor; gcd(0, 0) is 0."""
        while not b.is_zero:
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by the k-th power of the variable."""
        if k < 0:
            raise InputError("shift must be nonnegative")
        if self.is_zero:
            return self
        return Polynomial((Fraction(0),) * k + self._coeffs)

    def truncated(self, deg: int) -> "Polynomial":
        """Drop every term of degree above deg."""
        if deg < -1:
            raise InputError("truncation degree below -1")
        return Polynomial(self._coeffs[: deg + 1])

    def reversed_for_degree(self, p: int) -> "Polynomial":
        """Reverse the coefficients as a degree-p polynomial.

        Returns the polynomial whose value at z is z**p times the value of
        self at 1/z. Requires degree <= p; missing coefficients are zeros.
        """
        if self.degree > p:
            raise InputError(f"degree {self.degree} exceeds reversal degree {p}")
        padded = list(self._coeffs) + [Fraction(0)] * (p + 1 - len(self._coeffs))
        return Polynomial(tuple(reversed(padded)))

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return self.pretty()

    def pretty(self, var: str = "z") -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                power = var if i == 1 else f"{var}^{i}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


class RationalFunction:
    """Quotient of exact polynomials kept in a fixed normal form.

    The denominator has constant term 1 whenever it does not vanish at the
    origin; otherwise it is made monic. Construction never reduces by the
    gcd, so the pair (num, den) is preserved up to the scalar that enforces
    the normalization; call reduced() for lowest terms.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None) -> None:
        num = self._as_poly(num)
        den = Polynomial.one() if den is None else self._as_poly(den)
        if den.is_zero:
            raise InputError("zero denominator polynomial")
        c0 = den.coefficient(0)
        scale = c0 if c0 != 0 else den.leading_coefficient
        if scale != 1:
            inv = 1 / scale
            num, den = num * inv, den * inv
        self._num = num
        self._den = den

    @staticmethod
    def _as_poly(obj) -> Polynomial:
        if isinstance(obj, Polynomial):
            return obj
        if isinstance(obj, (int, Fraction)):
            return Polynomial((obj,))
        if isinstance(obj, (list, tuple)):
            return Polynomial(obj)
        raise InputError(f"cannot build a polynomial from {obj!r}")

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash(("RationalFunction", self._num, self._den))

    def equivalent_to(self, other: "RationalFunction") -> bool:
        """Equality as functions: cross products of the unreduced pairs agree."""
        return self._num * other._den == other._num * self._den

    def reduced(self) -> "RationalFunction":
        """Same function with numerator and denominator coprime."""
        if self._num.is_zero:
            return RationalFunction(Polynomial.zero(), Polynomial.one())
        g = Polynomial.gcd(self._num, self._den)
        if g.degree < 1:
            return self
        return RationalFunction(self._num.exact_div(g), self._den.exact_div(g))

    def __call__(self, x):
        d = self._den(x)
        if d == 0:
            raise PoleEvaluationError(f"evaluation at an exact pole: {x}")
        return self._num(x) / d

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self._num, self._den)

    def __add__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    @staticmethod
    def _promote(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (Polynomial, int, Fraction)):
            return RationalFunction(other, Polynomial.one())
        return NotImplemented

    def __repr__(self) -> str:
        return f"RationalFunction({self._num!r}, {self._den!r})"

    def __str__(self) -> str:
        return f"({self._num}) / ({self._den})"


def poly_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact product of two polynomials."""
    return a * b


def convolve(a: list[int], b: list[int], size: Optional[int] = None) -> list[int]:
    """Product of two integer coefficient vectors, cut to its first size terms.

    Neither input needs trimming; the result keeps whatever zeros the
    product has at the top.
    """
    n = len(a) + len(b) - 1 if a and b else 0
    if size is not None:
        n = min(n, size)
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out
