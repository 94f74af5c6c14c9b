"""Output checks written against the mathematics, not against padelab.

Nothing here imports padelab. Series coefficients, determinants, contact
orders and continued fraction convergents are recomputed with plain
Fraction arithmetic (Gaussian elimination where padelab uses Bareiss), so
a wrong answer from the program cannot also be the expected answer.

check_job returns None when a job's output is right, or when the job
fails as the known padelab defect it is marked with does, and a one-line
description of the first problem otherwise.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from exact import (
    convergents,
    det,
    poly_mul,
    series_coeffs,
    sqrt_terms,
    strip,
    tan_coeffs,
    toeplitz_singular,
)
from workloads import KNOWN_DEFECTS, Job


def contact_problem(c: list, num: tuple, den: tuple, through: int):
    """None when series*den - num vanishes at indices 0..through."""
    for i in range(through + 1):
        acc = -(num[i] if i < len(num) else 0)
        for j, d in enumerate(den[: i + 1]):
            acc += d * c[i - j]
        if acc != 0:
            return f"series*den - num is nonzero at index {i} (needed through {through})"
    return None


def entry_problem(c: list, L: int, M: int, doc: dict):
    num, den = strip(doc["num"]), strip(doc["den"])
    if not den or den[0] != 1:
        return f"[{L}/{M}] denominator constant term is not 1"
    if len(num) > L + 1 or len(den) > M + 1:
        return f"[{L}/{M}] degrees exceed the type"
    problem = contact_problem(c, num, den, L + M)
    return None if problem is None else f"[{L}/{M}] {problem}"


# ---------------------------------------------------------------------------
# Per job kind


def _check_table(job: Job, code: int, doc: dict):
    f = job.facts
    L_max, M_max = f["L_max"], f["M_max"]
    c = series_coeffs(f["series"], L_max + M_max + 1)
    entries = doc["entries"]
    if len(entries) != (L_max + 1) * (M_max + 1):
        return "table does not have one entry per cell"
    for key, e in entries.items():
        L, M = (int(x) for x in key.split(","))
        if "num" in e:
            problem = entry_problem(c, L, M, e)
            if problem:
                return problem
        elif not toeplitz_singular(c, L, M):
            return f"block marker at [{L}/{M}] but its system is regular"
    return None


def _check_hankel(job: Job, code: int, doc: dict):
    f = job.facts
    m_max, p_max = f["m_max"], f["p_max"]
    rows = doc["rows"]
    if len(rows) != m_max + 1 or any(len(r) != p_max for r in rows):
        return "hankel grid has the wrong shape"
    c = series_coeffs(f["series"], m_max + 2 * p_max)
    sample = {(0, p_max), (m_max, 1), (m_max // 2, max(1, p_max // 2)), (m_max, p_max)}
    for m, p in sorted(sample):
        want = det([[c[m + i + j] for j in range(p)] for i in range(p)])
        if Fraction(rows[m][p - 1]) != want:
            return f"hankel value at m={m}, p={p} is wrong"
    return None


def _check_pade(job: Job, code: int, doc: dict):
    f = job.facts
    L, M = f["L"], f["M"]
    c = series_coeffs(f["series"], L + M + 1)
    if toeplitz_singular(c, L, M):
        if code != 1 or "block" not in doc:
            return f"[{L}/{M}] system is singular but no block marker with exit 1"
        return None
    if code != 0 or "num" not in doc:
        return f"[{L}/{M}] system is regular but exit {code} without an entry"
    return entry_problem(c, L, M, doc)


def _convergents(doc: dict) -> list:
    """Convergent pairs of a fraction document, numeric or algebraic."""
    if isinstance(doc["q0"], list):
        partials = [(strip(p), strip(q)) for p, q in doc["partials"]]
        return convergents(strip(doc["q0"]), partials, True)
    if "terms" in doc:
        partials = [(Fraction(1), Fraction(t)) for t in doc["terms"]]
    else:
        partials = [(Fraction(p), Fraction(q)) for p, q in doc["partials"]]
    return convergents(Fraction(doc["q0"]), partials, False)


def _check_row_cf(job: Job, code: int, doc: dict):
    f = job.facts
    p, n_min, n_max = f["p"], f["n_min"], f["n_max"]
    c = series_coeffs(f["series"], n_max + p + 1)
    conv = _convergents(doc)
    offset = doc.get("offset", 0)
    if len(conv) != n_max - n_min + 1 + offset:
        return "row fraction has the wrong number of convergents"
    for n in range(n_min, n_max + 1):
        A, B = conv[n - n_min + offset]
        if not B or B[0] == 0 or len(A) > n + 1 or len(B) > p + 1:
            return f"convergent for [{n}/{p}] has the wrong shape"
        problem = contact_problem(c, A, B, n + p)
        if problem:
            return f"convergent for [{n}/{p}]: {problem}"
    return None


def _check_cf_convergents(job: Job, code: int, doc: dict):
    pairs = job.facts["pairs"]
    conv = _convergents(doc)
    offset = doc.get("offset", 0)
    if conv[offset:] != pairs:
        return "recovered fraction does not reproduce the convergent pairs"
    return None


def _check_cf_builtin(job: Job, code: int, doc: dict):
    name, k = job.facts["name"], job.facts["k"]
    A, B = strip(doc["A"]), strip(doc["B"])
    through = 2 * k if name == "tan" else k
    c = tan_coeffs(through) if name == "tan" else series_coeffs((("exp",),), through)
    if not B or B[0] == 0:
        return f"{name} convergent {k} has a denominator vanishing at 0"
    problem = contact_problem(c, A, B, through)
    if problem:
        return f"{name} convergent {k}: {problem}"
    num, den = strip(doc["reduced"]["num"]), strip(doc["reduced"]["den"])
    if poly_mul(num, B) != poly_mul(den, A):
        return f"{name} convergent {k}: reduced form is a different function"
    return None


def _check_cf_sqrt(job: Job, code: int, doc: dict):
    a0, terms = sqrt_terms(job.facts["n"], job.facts["terms"])
    if Fraction(doc["q0"]) != a0 or [Fraction(t) for t in doc["terms"]] != terms:
        return "square root fraction terms are wrong"
    return None


def _check_montessus(job: Job, code: int, doc: dict):
    f = job.facts
    p, poles = f["p"], f["poles"]
    slots = sorted(abs(a) for a in poles)
    gap_ok = len(slots) >= p and (len(slots) == p or slots[p] > slots[p - 1])
    if doc["gap_ok"] != gap_ok or bool(doc["flags"]) == gap_ok:
        return f"gap flag disagrees with the generated poles (expected gap_ok={gap_ok})"
    moduli = sorted(x["modulus"] for x in doc["poles"])
    if len(moduli) != len(slots) or any(
        abs(got - float(want)) > 1e-9 * float(want) for got, want in zip(moduli, slots)
    ):
        return "reported pole moduli differ from the generated poles"
    records = doc["records"]
    if [r["n"] for r in records] != list(range(f["n_min"], f["n_max"] + 1)):
        return "records do not cover n_min..n_max"
    for r in records:
        if not set(doc["flags"]) <= set(r["flags"]):
            return f"record n={r['n']} lacks the report flags"
        if f["share"] == "rational":
            if not r["exact"] or r["sup_error"] != 0:
                return f"record n={r['n']} of a rational function is not an exact recovery"
        elif r["block"] or r["exact"] or r["sup_error"] is None:
            return f"record n={r['n']} has no grid sup error"
    return None


_CHECKS = {
    "table": _check_table,
    "hankel": _check_hankel,
    "pade": _check_pade,
    "row-cf": _check_row_cf,
    "cf-convergents": _check_cf_convergents,
    "cf-builtin": _check_cf_builtin,
    "cf-sqrt": _check_cf_sqrt,
    "montessus": _check_montessus,
}


def check_job(job: Job, code: int, stdout: str, stderr: str):
    """None if the output is right, else a description of the problem."""
    defect = job.facts.get("known_defect")
    if defect is not None and code == 1:
        if KNOWN_DEFECTS[defect] in stderr:
            return None
        return f"exit 1, but not with the message of known defect {defect}"
    if code not in (0, 1) or (code == 1 and job.kind != "pade"):
        return f"unexpected exit code {code}"
    try:
        doc = json.loads(stdout)
        return _CHECKS[job.kind](job, code, doc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Pinned references

# montessus output carries floats that a faithful rewrite of the float layer
# may change in the last bits; its numbers are compared within this
# tolerance (integral values such as an imaginary part of 0 included),
# everything else byte for byte.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-12


def _split_floats(obj, floats: list):
    """The document with every float replaced by a marker, floats collected."""
    if isinstance(obj, float):
        floats.append(obj)
        return "<float>"
    if isinstance(obj, dict):
        return {k: _split_floats(v, floats) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_split_floats(v, floats) for v in obj]
    return obj


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def fingerprint(job: Job, code: int, stdout: str) -> dict:
    """What the reference file keeps of one job's exit code and output."""
    if job.kind != "montessus":
        return {"code": code, "sha": _digest(stdout)}
    floats: list = []
    skeleton = _split_floats(json.loads(stdout, parse_int=float), floats)
    return {"code": code, "sha": _digest(json.dumps(skeleton, sort_keys=True)),
            "floats": [float(f"{x:.10g}") for x in floats]}


def reference_problem(ref: dict, job: Job, code: int, stdout: str):
    """None if the output matches the pinned one.

    A known-defect job pinned while it failed may now succeed: check_job
    has already checked its output in full.
    """
    if code != ref["code"]:
        if "known_defect" in job.facts and code == 0:
            return None
        return f"exit {code} where the pinned reference has exit {ref['code']}"
    got = fingerprint(job, code, stdout)
    if got["sha"] != ref["sha"]:
        return "output differs from the pinned reference"
    for x, y in zip(got.get("floats", ()), ref.get("floats", ())):
        if abs(x - y) > FLOAT_RTOL * max(abs(x), abs(y)) + FLOAT_ATOL:
            return f"float {x!r} differs from the pinned {y!r}"
    return None
