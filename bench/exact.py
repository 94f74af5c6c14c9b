"""Plain Fraction arithmetic shared by the job generators and the checks.

Nothing here imports padelab. Polynomials are ascending coefficient
tuples with no trailing zeros (the zero polynomial is the empty tuple).
Determinants use Gaussian elimination, where padelab uses Bareiss, so a
wrong determinant from the program cannot also be the expected one.
"""

from __future__ import annotations

import math
from fractions import Fraction


def strip(p) -> tuple:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return strip((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def poly_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def series_coeffs(parts, order: int) -> list:
    """Taylor coefficients 0..order of a sum of series parts.

    A part is ("exp",), ("geometric", r) for 1/(1 - r z), or
    ("rational", num, den) with ascending coefficient tuples.
    """
    total = [Fraction(0)] * (order + 1)
    for part in parts:
        if part[0] == "exp":
            for k in range(order + 1):
                total[k] += Fraction(1, math.factorial(k))
        elif part[0] == "geometric":
            for k in range(order + 1):
                total[k] += part[1] ** k
        else:
            num, den = part[1], part[2]
            out: list = []
            for k in range(order + 1):
                acc = num[k] if k < len(num) else Fraction(0)
                for j in range(1, min(k, len(den) - 1) + 1):
                    acc -= den[j] * out[k - j]
                out.append(acc / den[0])
            for k in range(order + 1):
                total[k] += out[k]
    return total


def tan_coeffs(order: int) -> list:
    """Taylor coefficients of tan = sin / cos by long division."""
    sin = [Fraction(0)] * (order + 1)
    cos = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        (sin if k % 2 else cos)[k] = Fraction((-1) ** (k // 2), math.factorial(k))
    tan: list = []
    for k in range(order + 1):
        tan.append(sin[k] - sum(cos[j] * tan[k - j] for j in range(1, k + 1)))
    return tan


def det(matrix) -> Fraction:
    """Determinant by Gaussian elimination with row swaps."""
    m = [list(row) for row in matrix]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            result = -result
        result *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k + 1, n):
                    m[i][j] -= factor * m[k][j]
    return result


def toeplitz_singular(c: list, L: int, M: int) -> bool:
    """Is the [L/M] denominator system (series rows L+1..L+M) singular?"""
    def at(i):
        return c[i] if i >= 0 else Fraction(0)
    return det([[at(L + 1 + r - k) for k in range(1, M + 1)] for r in range(M)]) == 0


def convergents(q0, partials, algebraic: bool) -> list:
    """Pairs (A_k, B_k) of q0 + p1/(q1 + p2/(q2 + ...)), forward recurrence."""
    if algebraic:
        one, zero, add, mul = (Fraction(1),), (), poly_add, poly_mul
    else:
        one, zero = Fraction(1), Fraction(0)

        def add(a, b):
            return a + b

        def mul(a, b):
            return a * b
    a_prev, b_prev, a, b = one, zero, q0, one
    out = [(a, b)]
    for p, q in partials:
        a, a_prev = add(mul(q, a), mul(p, a_prev)), a
        b, b_prev = add(mul(q, b), mul(p, b_prev)), b
        out.append((a, b))
    return out


def sqrt_terms(n: int, count: int) -> tuple:
    """Head and the first count-1 partial quotients of sqrt(n)."""
    a0 = math.isqrt(n)
    terms = []
    m, d, a = 0, 1, a0
    for _ in range(count - 1):
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        terms.append(a)
    return a0, terms
