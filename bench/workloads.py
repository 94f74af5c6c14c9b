"""Seeded job generators for the two benchmark workloads.

"tables" is fifty table and Hankel grid jobs on normal series plus fifty
table and single [L/M] jobs on series with blocks; "rows" is fifty
montessus row experiments plus fifty-four row-cf and cf jobs, four of
which hit a known padelab defect (KNOWN_DEFECTS). Each workload has at
least 100 jobs, so ten lie beyond its p90.

A job is one padelab command line plus what the output checks need to
know about it: the series it was built from, in this module's own form,
and the parameters that shape the expected answer. The seed only changes
the numbers inside the jobs (ratios, pole positions, numerators, radii).
The job shapes (table sizes, row lengths, shares of each job type) are
fixed lists, so the total work of a workload barely moves from seed to
seed and the timing metrics compare across seeds.

A series is a tuple of parts, summed:

    ("exp",)                         the exponential series
    ("geometric", r)                 1 / (1 - r z)
    ("rational", num, den)           ascending Fraction coefficient tuples
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from exact import convergents, poly_eval, poly_mul, series_coeffs, strip, toeplitz_singular

WORKLOADS = ("tables", "rows")


@dataclass(frozen=True)
class Job:
    """One command line and the facts its output is checked against."""

    argv: tuple
    kind: str
    facts: dict


# ---------------------------------------------------------------------------
# Series helpers


def lit(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def series_document(parts) -> dict:
    docs = []
    for part in parts:
        if part[0] == "exp":
            docs.append({"kind": "builtin", "name": "exp"})
        elif part[0] == "geometric":
            docs.append({"kind": "builtin", "name": "geometric", "ratio": lit(part[1])})
        else:
            docs.append({"kind": "rational", "num": [lit(c) for c in part[1]],
                         "den": [lit(c) for c in part[2]]})
    return docs[0] if len(docs) == 1 else {"kind": "sum", "parts": docs}


def series_arg(parts) -> str:
    if parts == (("exp",),):
        return "exp"
    return json.dumps(series_document(parts), separators=(",", ":"))


def _pole(rng: random.Random, lo: float, hi: float) -> Fraction:
    """Real pole n/d with modulus in [lo, hi].

    The denominator range is narrow so that the bit growth of the series
    coefficients, and with it the cost of a job, varies little by seed.
    """
    while True:
        d = rng.randint(8, 15)
        n = rng.randint(max(1, round(lo * d)), max(1, round(hi * d)))
        a = Fraction(n, d)
        if lo <= a <= hi:
            return a if rng.random() < 0.5 else -a


def _rational_with_poles(rng: random.Random, poles, num_degree: int) -> tuple:
    """("rational", num, den): den = prod (1 - z/a), num coprime to den."""
    den = (Fraction(1),)
    for a in poles:
        den = poly_mul(den, (Fraction(1), -1 / Fraction(a)))
    while True:
        num = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(num_degree + 1))
        if all(poly_eval(num, Fraction(a)) != 0 for a in poles):
            return ("rational", num, den)


def _distinct_moduli_poles(rng: random.Random, count: int, lo: float, hi: float) -> list:
    poles: list = []
    while len(poles) < count:
        a = _pole(rng, lo, hi)
        if all(abs(a) != abs(b) for b in poles):
            poles.append(a)
    return sorted(poles, key=abs)


def _normal_row(parts, p: int, n_min: int, n_max: int) -> bool:
    """Is every [n/p] for n_min <= n <= n_max a normal entry?

    Normal means the four Toeplitz systems that govern the entry are all
    regular; then no entry of the row is a block and neighbours differ.
    """
    c = series_coeffs(parts, n_max + p + 2)
    cells = [(n, m) for n in range(n_min, n_max + 2) for m in (p, p + 1)]
    return not any(toeplitz_singular(c, L, M) for L, M in cells)


def _unique(make, seen: set):
    """Call make(attempt) until it yields a usable job whose argv is new.

    make returns None for a draw it cannot use (a row with a singular entry).
    """
    attempt = 0
    while True:
        job = make(attempt)
        attempt += 1
        if job is not None and job.argv not in seen:
            seen.add(job.argv)
            return job


# ---------------------------------------------------------------------------
# tables, first half: normal series, determinant-heavy tables and grids

# The shape lists come in cost classes of similar jobs, chosen so that once
# a workload's jobs are sorted by time, ranks 40-59 (p50) and 80-99 (p90)
# each hold like jobs: a percentile is then the median of a group, not the
# time of one job at a jump between classes.

# (L_max, M_max) of table jobs and (m_max, p_max) of Hankel grid jobs. Cost
# grows steeply with M: a table cell needs four (M+1)-sized determinants.
TABLE_CLASSES = (
    [("table", 2, 2), ("table", 3, 2), ("table", 2, 3), ("hankel", 4, 3), ("hankel", 8, 3)] * 4,
    [("table", 4, 4), ("table", 6, 3), ("hankel", 6, 5), ("hankel", 10, 5),
     ("hankel", 20, 4)] * 2,
    [("hankel", 12, 6), ("hankel", 8, 7), ("hankel", 14, 6), ("table", 8, 4),
     ("table", 5, 5)] * 4,
)


def _exp_series(rng: random.Random, i: int, attempt: int, cycle: int):
    """exp alone on every cycle-th job (unless taken), else exp + 1..3 poles."""
    count = i % cycle
    if count == 0 and attempt == 0:
        return (("exp",),)
    count = min(max(count, 1), 3)
    poles = _distinct_moduli_poles(rng, count, 0.5, 3.0)
    return (("exp",), _rational_with_poles(rng, poles, rng.randint(0, count - 1)))


def table_jobs(rng: random.Random) -> list:
    seen: set = set()
    jobs = []
    shapes = [shape for cls in TABLE_CLASSES for shape in cls]
    # the largest grid, on exp alone, sits above every class
    shapes[-1] = ("hankel", 12, 12)
    for i, (kind, a, b) in enumerate(shapes):
        def make(attempt, i=i, kind=kind, a=a, b=b):
            parts = (("exp",),) if (a, b) == (12, 12) else _exp_series(rng, i, attempt, 4)
            if kind == "table":
                argv = ("table", "--series", series_arg(parts),
                        "--L-max", str(a), "--M-max", str(b))
                return Job(argv, "table", {"series": parts, "L_max": a, "M_max": b})
            argv = ("hankel", "--series", series_arg(parts), "--m-max", str(a), "--p-max", str(b))
            return Job(argv, "hankel", {"series": parts, "m_max": a, "p_max": b})
        jobs.append(_unique(make, seen))
    return jobs


# ---------------------------------------------------------------------------
# tables, second half: series whose tables are mostly non-normal


def _block_series(rng: random.Random, i: int):
    kind = i % 3
    if kind == 0:
        r = Fraction(rng.randint(1, 9), rng.randint(2, 9)) * rng.choice((-1, 1))
        return (("geometric", r),)
    if kind == 1:
        mu = rng.randint(1, 3)
        lam = rng.randint(0, 3)
        poles = _distinct_moduli_poles(rng, mu, 0.5, 3.0)
        return (_rational_with_poles(rng, poles, lam),)
    k = rng.choice((2, 3, 4))
    c = Fraction(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice((-1, 1))
    den = (Fraction(1),) + (Fraction(0),) * (k - 1) + (-c,)
    num = tuple(Fraction(rng.randint(1, 5)) for _ in range(rng.randint(1, k)))
    return (("rational", num, den),)


# Thirty single [L/M] jobs, then twenty tables in two classes.
BLOCK_TABLE_SHAPES = (
    [(4, 4), (6, 3), (3, 6), (5, 5), (8, 2)] * 2
    + [(6, 6), (8, 5), (5, 8), (7, 7), (9, 9)] * 2
)


def blocks_jobs(rng: random.Random) -> list:
    seen: set = set()
    jobs = []
    for i, (L, M) in enumerate(BLOCK_TABLE_SHAPES):
        def make(attempt, i=i, L=L, M=M):
            parts = _block_series(rng, i)
            argv = ("table", "--series", series_arg(parts), "--L-max", str(L), "--M-max", str(M))
            return Job(argv, "table", {"series": parts, "L_max": L, "M_max": M})
        jobs.append(_unique(make, seen))
    for i in range(30):
        def make(attempt, i=i):
            parts = _block_series(rng, i)
            L = rng.randint(0, 14)
            M = rng.randint(1, 10)
            argv = ("pade", "--series", series_arg(parts), "--L", str(L), "--M", str(M))
            return Job(argv, "pade", {"series": parts, "L": L, "M": M})
        jobs.append(_unique(make, seen))
    return jobs


# ---------------------------------------------------------------------------
# rows, first half: montessus configs

# Each entry is (share, p, n_max, window): the row entries n_max - window
# .. n_max are computed, and each one that is not an exact recovery is
# evaluated on the default 96-point grid, at a cost that grows with n.
# The twenty "normal" configs are single cheap entries of like cost: with
# the ten mid-size row-cf jobs they fill ranks 40-59 of the rows workload.
MONTESSUS_SHAPES = (
    [("gap", p, n, w) for p, n, w in
     [(1, 4, 2), (2, 6, 1), (3, 8, 0), (1, 10, 0), (2, 26, 0)]] * 2
    + [("rational", p, n, w) for p, n, w in
       [(1, 8, 6), (2, 12, 6), (3, 16, 8), (2, 20, 4), (1, 14, 10)]] * 2
    + [("prec113", p, n, 0) for p, n in [(1, 3), (2, 5), (3, 8), (1, 12), (1, 30)]] * 2
    + [("normal", p, n, 0) for p, n in
       [(1, 2), (2, 4), (3, 5), (1, 6), (2, 8), (1, 3), (2, 3), (3, 4), (1, 5), (2, 5)]] * 2
)


def _montessus_function(rng: random.Random, share: str, p: int):
    """(parts, generated poles, grid radius) for one config."""
    if share == "gap":
        # slots p and p+1 share a modulus: p-1 inner poles, then +a and -a
        inner = _distinct_moduli_poles(rng, p - 1, 0.4, 1.0)
        a = abs(_pole(rng, 1.2, 2.5))
        poles = inner + [a, -a]
        radius = round(float(a) * rng.uniform(0.7, 0.9), 4)
        return (("exp",), _rational_with_poles(rng, poles, rng.randint(0, 1))), poles, radius
    extra = rng.randint(0, 1) if share != "rational" else 0
    poles = _distinct_moduli_poles(rng, p + extra, 0.4, 2.5)
    inner = abs(poles[p - 1])
    outer = abs(poles[p]) if extra else 2 * inner
    radius = round(float(inner + (outer - inner) * Fraction(rng.randint(30, 70), 100)), 4)
    if share == "rational":
        lam = rng.randint(0, 3)
        return (_rational_with_poles(rng, poles, lam),), poles, radius
    return (("exp",), _rational_with_poles(rng, poles, rng.randint(0, p - 1))), poles, radius


def row_experiment_jobs(rng: random.Random) -> list:
    seen: set = set()
    jobs = []
    for share, p, n_max, window in MONTESSUS_SHAPES:
        def make(attempt, share=share, p=p, n_max=n_max, window=window):
            parts, poles, radius = _montessus_function(rng, share, p)
            n_min = n_max - window
            if share == "rational":
                # start the walk at the numerator degree: every entry is an
                # exact recovery, so the grid is never evaluated
                n_min = max(n_min, len(parts[0][1]) - 1)
            elif not _normal_row(parts, p, n_min, n_max):
                return None
            config = {"function": series_document(parts), "p": p, "n_min": n_min,
                      "n_max": n_max, "grid": {"radius": radius}}
            if share == "prec113":
                config["precision"] = 113
            argv = ("montessus", "--config", json.dumps(config, separators=(",", ":")))
            return Job(argv, "montessus", {"share": share, "p": p, "poles": poles,
                                           "n_min": n_min, "n_max": n_max})
        jobs.append(_unique(make, seen))
    return jobs


# ---------------------------------------------------------------------------
# rows, second half: row continued fractions and the cf subcommand

# (p, n_max) of the row-cf jobs, cheapest first; twenty cf jobs come before
# them. These rows start at n = 0: padelab's zero-head recovery cannot
# start a row later (KNOWN_DEFECTS).
ROW_CF_SHAPES = (
    [(1, 8), (2, 6), (3, 5), (1, 12), (2, 10)] * 2
    + [(4, 6), (5, 5), (6, 4), (1, 20), (2, 16)] * 2
    + [(3, 12), (4, 10), (6, 8), (2, 24), (1, 40), (3, 20), (4, 16), (6, 12), (1, 30), (1, 60)]
)


# (p, n_min, n_max) of four more row-cf jobs, which start the row later and
# so hit the known defect "row-cf-n-min".
ROW_CF_DEFECT_SHAPES = ((1, 2, 10), (2, 1, 8), (3, 3, 12), (2, 2, 16))

# padelab defects that some jobs are known to hit, with the message padelab
# exits 1 with. Such a job names its defect in facts["known_defect"]; it is
# timed like any other, may fail with that message, and is checked in full
# if it succeeds. "row-cf-n-min": `row-cf --n-min` > 0 mostly fails,
# depending on the series, because the zero-head path of
# cf_from_convergents divides by A_{n_min}.
KNOWN_DEFECTS = {"row-cf-n-min": "no exact polynomial term at index"}


def _random_cf_terms(rng: random.Random, count: int, algebraic: bool):
    """Head and partial pairs of a continued fraction with nonzero p_k."""
    def term(nonzero: bool):
        if algebraic:
            deg = rng.randint(0, 1)
            cs = strip(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg + 1))
            return (Fraction(1),) if nonzero and not cs else cs
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return Fraction(1) if nonzero and x == 0 else x
    q0 = term(False)
    return q0, [(term(True), term(False)) for _ in range(count)]


def _pair_literal(x, algebraic: bool):
    if algebraic:
        return [lit(c) for c in x] if x else ["0"]
    return lit(x)


def row_cf_jobs(rng: random.Random) -> list:
    seen: set = set()
    jobs = []
    for i in range(10):
        def make(attempt, i=i):
            if i % 2:
                algebraic = False
                q0, partials = _random_cf_terms(rng, rng.randint(10, 30), algebraic)
            else:
                while True:
                    n = rng.randint(2, 10**6)
                    if math.isqrt(n) ** 2 != n:
                        break
                terms = rng.randint(20, 400)
                return Job(("cf", "--sqrt", str(n), "--terms", str(terms)), "cf-sqrt",
                           {"n": n, "terms": terms})
            pairs = convergents(q0, partials, algebraic)
            payload = [[_pair_literal(a, algebraic), _pair_literal(b, algebraic)] for a, b in pairs]
            argv = ("cf", "--from-convergents", json.dumps(payload, separators=(",", ":")))
            return Job(argv, "cf-convergents", {"pairs": pairs, "algebraic": algebraic})
        jobs.append(_unique(make, seen))
    for i in range(10):
        def make(attempt, i=i):
            if i % 2:
                name = ("tan", "exp")[i // 2 % 2]
                k = rng.randint(5, 40)
                return Job(("cf", "--builtin", name, "--convergent", str(k)), "cf-builtin",
                           {"name": name, "k": k})
            q0, partials = _random_cf_terms(rng, rng.randint(6, 16), True)
            pairs = convergents(q0, partials, True)
            payload = [[_pair_literal(a, True), _pair_literal(b, True)] for a, b in pairs]
            argv = ("cf", "--from-convergents", json.dumps(payload, separators=(",", ":")))
            return Job(argv, "cf-convergents", {"pairs": pairs, "algebraic": True})
        jobs.append(_unique(make, seen))
    for i, (p, n_max) in enumerate(ROW_CF_SHAPES):
        def make(attempt, i=i, p=p, n_max=n_max):
            parts = _exp_series(rng, i, attempt, 3)
            if not _normal_row(parts, p, 0, n_max):
                return None
            argv = ("row-cf", "--series", series_arg(parts), "--p", str(p), "--n-min", "0",
                    "--n-max", str(n_max))
            return Job(argv, "row-cf", {"series": parts, "p": p, "n_min": 0, "n_max": n_max})
        jobs.append(_unique(make, seen))
    for i, (p, n_min, n_max) in enumerate(ROW_CF_DEFECT_SHAPES):
        def make(attempt, i=i, p=p, n_min=n_min, n_max=n_max):
            parts = _exp_series(rng, i, attempt, 3)
            if not _normal_row(parts, p, n_min, n_max):
                return None
            argv = ("row-cf", "--series", series_arg(parts), "--p", str(p), "--n-min", str(n_min),
                    "--n-max", str(n_max))
            return Job(argv, "row-cf", {"series": parts, "p": p, "n_min": n_min, "n_max": n_max,
                                        "known_defect": "row-cf-n-min"})
        jobs.append(_unique(make, seen))
    return jobs


_GENERATORS = {
    "tables": lambda rng: table_jobs(rng) + blocks_jobs(rng),
    "rows": lambda rng: row_experiment_jobs(rng) + row_cf_jobs(rng),
}


def generate(workload: str, seed: int) -> list:
    """The job list of a workload; the same seed gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
