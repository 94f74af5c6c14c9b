"""Row convergence experiments for meromorphic functions.

The object of study is a function f = r + entire, with r rational and the
entire part a polynomial, a multiple of exp, or both. Fixing a denominator
degree p and walking the row [n/p] for growing n, the denominator roots of
the approximants should march toward the p poles of f nearest the origin,
and the approximants themselves should converge uniformly on compact sets
avoiding those poles, at a geometric rate controlled by the modulus ratio
of pole p to pole p+1. That statement needs a modulus gap between pole p
and pole p+1; the experiment checks the gap first and carries a prominent
flag when it fails, in which case the numbers are reported as observed
with no convergence claim attached.

Everything feeding the approximants is exact; floats appear only where
they must: locating denominator roots, measuring sup errors on a grid,
estimating rates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .core.floats import (
    DOUBLE_BITS,
    coefficient_scale,
    error_modulus,
    eval_poly,
    eval_prepared_rf,
    eval_rf_complex,
    find_poly_roots,
    fixed_point,
    get_precision,
    int_form,
    prepare_rf,
    to_mpc,
    to_mpf,
)
from .core.poly import Polynomial, RationalFunction
from .core.series import (
    BuiltinSource,
    ExplicitSource,
    PowerSeries,
    RationalSource,
    SeriesSource,
    SumSource,
    builtin_series,
    parse_series_document,
    series_of_rational_function,
)
from .errors import (
    DomainError,
    InputError,
    NearPoleError,
    OriginPoleError,
    SchemaError,
)
from .pade import _rational_function, _row_pairs, pade_approximant

GAP_TOLERANCE_REL = 1e-9
DECLARED_POLE_RESIDUAL_REL = 1e-6
DEFAULT_EXCLUSION_FACTOR = 0.05

GAP_FLAG = "pole modulus gap hypothesis violated"


# ---------------------------------------------------------------------------
# Function specification


@dataclass(frozen=True)
class PoleInfo:
    location: mpmath.mpc
    multiplicity: int

    @property
    def modulus(self) -> mpmath.mpf:
        return abs(self.location)


def _squarefree_parts(poly: Polynomial) -> list[tuple[Polynomial, int]]:
    """Factors grouped by exact multiplicity, via gcds with the derivative."""
    out = []
    g = Polynomial.gcd(poly, poly.derivative())
    w = poly.exact_div(g)
    i = 1
    while w.degree > 0:
        y = Polynomial.gcd(w, g)
        z = w.exact_div(y)
        if z.degree > 0:
            out.append((z, i))
        w = y
        g = g.exact_div(y)
        i += 1
    return out


class MeromorphicSpec:
    """A function r + c * exp with r rational, regular at the origin.

    Polynomial summands fold into the rational part exactly, so the only
    transcendental generator carried separately is exp (with an integer
    count, for sums that mention it more than once). Poles are read off
    the reduced denominator: exact square-free splitting gives each
    multiplicity, and the roots of each split factor are refined in
    floating arithmetic. declared_poles, when given, skip the root search
    entirely after a residual check.
    """

    def __init__(
        self,
        rational: Optional[RationalFunction] = None,
        entire_poly: Optional[Polynomial] = None,
        exp_count: int = 0,
        declared_poles=None,
        document: Optional[dict] = None,
    ) -> None:
        if not isinstance(exp_count, int) or exp_count < 0:
            raise InputError(f"exp count must be a nonnegative integer, got {exp_count!r}")
        base = rational if rational is not None else RationalFunction(0)
        if entire_poly is not None:
            base = base + entire_poly
        self._reduced = base.reduced()
        if self._reduced.den.coefficient(0) == 0:
            raise OriginPoleError("function has a pole at the origin")
        self.exp_count = exp_count
        self.document = document
        self._declared = None
        if declared_poles is not None:
            self._declared = tuple(
                PoleInfo(to_mpc(loc), int(mult)) for loc, mult in declared_poles
            )
        self._poles: Optional[tuple[PoleInfo, ...]] = None

    @property
    def rational(self) -> RationalFunction:
        """The rational part, reduced, with polynomial summands folded in."""
        return self._reduced

    @property
    def is_exactly_rational(self) -> bool:
        return self.exp_count == 0

    @classmethod
    def from_source(cls, source: SeriesSource, document: Optional[dict] = None,
                    declared_poles=None) -> "MeromorphicSpec":
        rational = RationalFunction(0)
        poly = Polynomial.zero()
        exp_count = 0

        def walk(src: SeriesSource) -> None:
            nonlocal rational, poly, exp_count
            if isinstance(src, ExplicitSource):
                poly = poly + Polynomial(src.coeffs)
            elif isinstance(src, BuiltinSource):
                if src.name == "exp":
                    exp_count += 1
                else:
                    r = src.ratio if src.ratio is not None else Fraction(1)
                    rational = rational + RationalFunction(
                        Polynomial.one(), Polynomial((1, -r))
                    )
            elif isinstance(src, RationalSource):
                rational = rational + src.function
            elif isinstance(src, SumSource):
                for part in src.parts:
                    walk(part)
            else:
                raise InputError(f"unsupported series source {src!r}")

        walk(source)
        return cls(rational, poly, exp_count, declared_poles, document)

    @classmethod
    def from_document(cls, doc, declared_poles=None) -> "MeromorphicSpec":
        source = parse_series_document(doc)
        return cls.from_source(source, document=doc, declared_poles=declared_poles)

    def poles(self) -> tuple[PoleInfo, ...]:
        """Poles of the reduced rational part, sorted by modulus then position."""
        if self._poles is not None:
            return self._poles
        den = self._reduced.den
        if self._declared is not None:
            total = sum(p.multiplicity for p in self._declared)
            if total != den.degree:
                raise InputError(
                    f"declared multiplicities sum to {total}, "
                    f"denominator degree is {den.degree}"
                )
            bound = to_mpf(DECLARED_POLE_RESIDUAL_REL) * coefficient_scale(den)
            for p in self._declared:
                if not abs(eval_poly(den, p.location)) <= bound:
                    raise InputError(
                        f"declared pole {mpmath.nstr(p.location, 8)} is not a "
                        "denominator root"
                    )
            found = list(self._declared)
        else:
            found = []
            for factor, mult in _squarefree_parts(den):
                for root in find_poly_roots(factor):
                    found.append(PoleInfo(root, mult))
        found.sort(key=lambda p: (p.modulus, p.location.real, p.location.imag))
        self._poles = tuple(found)
        return self._poles

    def taylor(self, order: int) -> PowerSeries:
        series = series_of_rational_function(self._reduced, order)
        if self.exp_count:
            exp = builtin_series("exp", order).coeffs
            series = PowerSeries(c + self.exp_count * e for c, e in zip(series.coeffs, exp))
        return series

    def evaluate(self, z, prepared=None):
        """Floating value at a complex point away from the poles.

        prepared, when given, is prepare_rf(self.rational) at the working
        precision; a caller evaluating many points passes it so the rational
        part is converted once, not at every point. On its double form the
        value is a Python complex, with exp taken by cmath, unless a double
        overflows; otherwise, on the integer form and without prepared, it
        is an mpc.
        """
        if prepared is None:
            value = eval_rf_complex(self._reduced, z)
        else:
            value = eval_prepared_rf(prepared, z)
        if self.exp_count:
            if type(value) is complex:
                try:
                    return value + self.exp_count * cmath.exp(complex(z))
                except OverflowError:
                    pass
            value = value + self.exp_count * mpmath.exp(to_mpc(z))
        return value


def taylor_of_meromorphic(spec: MeromorphicSpec, order: int) -> PowerSeries:
    """Exact Taylor coefficients of the function through the given order."""
    return spec.taylor(order)


# ---------------------------------------------------------------------------
# Pole ordering


@dataclass(frozen=True)
class PoleOrderingCheck:
    """Moduli of the pole slots and whether row p has its modulus gap.

    moduli lists every pole repeated by multiplicity, ascending. gap_ok
    means there are at least p slots and slot p+1 (when it exists) sits
    strictly above slot p by more than the relative tolerance. A missing
    slot p+1 counts as infinitely far, so exactly p slots pass.
    """

    p: int
    moduli: tuple
    gap_ok: bool
    inner: Optional[float]
    outer: Optional[float]
    note: str = ""


def pole_ordering_check(spec: MeromorphicSpec, p: int) -> PoleOrderingCheck:
    if p < 0:
        raise InputError("row index must be nonnegative")
    slots = []
    for info in spec.poles():
        slots.extend([info.modulus] * info.multiplicity)
    slots.sort()
    moduli = tuple(float(m) for m in slots)
    if len(slots) < p:
        return PoleOrderingCheck(
            p, moduli, False, None, None,
            note=f"only {len(slots)} pole slots for row {p}",
        )
    inner = float(slots[p - 1]) if p >= 1 else None
    if len(slots) == p:
        return PoleOrderingCheck(p, moduli, True, inner, None)
    outer = slots[p]
    margin = to_mpf(GAP_TOLERANCE_REL) * max(outer, mpmath.mpf(1))
    ok = (p == 0 and outer > 0) or (p >= 1 and outer - slots[p - 1] > margin)
    note = "" if ok else GAP_FLAG
    return PoleOrderingCheck(p, moduli, bool(ok), inner, float(outer), note=note)


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: a rim circle plus evenly spaced interior circles.

    All points satisfy |z| <= radius; points within exclusion_radius of a
    pole are dropped (default exclusion: 0.05 * radius).
    """

    radius: float
    rim_points: int = 64
    interior_circles: int = 2
    points_per_circle: int = 16
    exclusion_radius: Optional[float] = None

    def validate(self) -> None:
        if not self.radius > 0:
            raise InputError("grid radius must be positive")
        if self.rim_points < 1 or self.points_per_circle < 1:
            raise InputError("grid needs at least one point per circle")
        if self.interior_circles < 0:
            raise InputError("interior circle count must be nonnegative")
        if self.exclusion_radius is not None and self.exclusion_radius < 0:
            raise InputError("exclusion radius must be nonnegative")

    @property
    def exclusion(self) -> float:
        if self.exclusion_radius is not None:
            return self.exclusion_radius
        return DEFAULT_EXCLUSION_FACTOR * self.radius

    def points(self, excluded_centers=()) -> list[mpmath.mpc]:
        """Deterministic point list: rim first, then circles outward."""
        return list(self.iter_points(excluded_centers))

    def iter_points(self, excluded_centers=()):
        """The points of points(), one at a time."""
        self.validate()
        r = to_mpf(self.radius)
        delta = to_mpf(self.exclusion)
        centers = [(c, abs(c)) for c in map(to_mpc, excluded_centers)]
        # Rounding slack of |z - c| against | |c| - rho |, with room to spare
        slack = mpmath.ldexp(1, 8 - get_precision())
        circles = [(r, self.rim_points)] + [
            (r * j / (self.interior_circles + 1), self.points_per_circle)
            for j in range(1, self.interior_circles + 1)
        ]
        two_pi = 2 * mpmath.pi
        for rho, count in circles:
            # |z - c| >= | |c| - rho | on the circle: a center farther than
            # delta from it, by more than the slack, excludes no point
            near = [c for c, m in centers if not abs(m - rho) - delta > slack * (rho + m)]
            for k in range(count):
                cos, sin = mpmath.cos_sin(two_pi * k / count)
                z = rho * mpmath.mpc(cos, sin)
                if any(abs(z - c) < delta for c in near):
                    continue
                yield z


# ---------------------------------------------------------------------------
# Root-to-pole matching


@dataclass(frozen=True)
class PoleMatch:
    slot: int
    pole_index: int
    pole: mpmath.mpc
    root: mpmath.mpc
    distance: mpmath.mpf


@dataclass(frozen=True)
class MatchResult:
    matches: tuple[PoleMatch, ...]
    spurious: tuple[mpmath.mpc, ...]
    unmatched_slots: tuple[int, ...]


def pole_match(roots, pole_slots) -> MatchResult:
    """Greedy nearest pairing of denominator roots to expected pole slots.

    pole_slots is a list of (pole_index, location), one slot per unit of
    multiplicity. Repeatedly takes the globally nearest (root, slot) pair;
    exact ties resolve by lower root index, then lower slot index, so the
    matching is deterministic. Leftover roots are spurious; leftover slots
    are unmatched.
    """
    roots = [to_mpc(r) for r in roots]
    slots = [(int(i), to_mpc(loc)) for i, loc in pole_slots]
    free_roots = set(range(len(roots)))
    free_slots = set(range(len(slots)))
    matches = []
    while free_roots and free_slots:
        best = None
        for ri in sorted(free_roots):
            for si in sorted(free_slots):
                d = abs(roots[ri] - slots[si][1])
                key = (d, ri, si)
                if best is None or key < best:
                    best = key
        d, ri, si = best
        matches.append(PoleMatch(si, slots[si][0], slots[si][1], roots[ri], d))
        free_roots.discard(ri)
        free_slots.discard(si)
    matches.sort(key=lambda m: m.slot)
    spurious = tuple(roots[i] for i in sorted(free_roots))
    return MatchResult(tuple(matches), spurious, tuple(sorted(free_slots)))


# ---------------------------------------------------------------------------
# The experiment


@dataclass(frozen=True)
class RowRecord:
    n: int
    block: bool
    exact: bool
    roots: tuple
    matches: tuple
    spurious: tuple
    unmatched_slots: tuple
    sup_error: Optional[mpmath.mpf]
    skipped_points: int
    flags: tuple


@dataclass(frozen=True)
class ConvergenceReport:
    p: int
    n_min: int
    n_max: int
    poles: tuple
    expected_slots: tuple
    gap_ok: bool
    gap_inner: Optional[float]
    gap_outer: Optional[float]
    flags: tuple
    grid: GridSpec
    grid_point_count: int
    precision: int
    records: tuple
    rates: dict
    function_document: Optional[dict] = None


def _log_fit(points: list[tuple[int, mpmath.mpf]]) -> Optional[dict]:
    """Least squares slope of log(value) against n; None under 2 points."""
    usable = [(n, v) for n, v in points if v is not None and v > 0]
    if len(usable) < 2:
        return None
    xs = [mpmath.mpf(n) for n, _ in usable]
    ys = [mpmath.log(v) for _, v in usable]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        return None
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    return {
        "log_slope": float(slope),
        "ratio": float(mpmath.exp(slope)),
        "points": len(usable),
    }


def _grid_error(spec: MeromorphicSpec, f_prepared, prepared, z):
    """|f(z) - r(z)| from prepare_rf forms of f's rational part and of r.

    At DOUBLE_BITS z is a Python complex. When both forms are double forms
    the value is taken in IEEE doubles, and a point where a double
    overflows, which the integer form cannot, is measured on the integer
    forms of the same values at fixed_point(z).

    Otherwise z is a fixed_point result, integers over 2^F with F = prec +
    g (g = GUARD_BITS; more bits when |z| < 1/2), and the value is
    error_modulus's: every coefficient keeps at least prec + g bits, the
    work runs on integers, and the one rounding to prec bits is applied to
    a value within B_f + B_r + 2^(3-prec-g)*T of the exact one at the
    dyadic point, the terms as error_modulus states them.
    """
    if type(z) is complex:
        if isinstance(f_prepared[2], float) and isinstance(prepared[2], float):
            try:
                f, r = spec.evaluate(z, f_prepared), eval_prepared_rf(prepared, z)
                # a value that fell back to the integer form is an mpc
                if type(f) is complex and type(r) is complex:
                    err = abs(f - r)
                    if err < math.inf:  # neither infinite nor nan
                        return err
            except OverflowError:
                pass
        f_prepared, prepared, z = int_form(f_prepared), int_form(prepared), fixed_point(z)
    return error_modulus(f_prepared, spec.exp_count, prepared, z)


def run_row_experiment(
    spec: MeromorphicSpec,
    p: int,
    n_min: int,
    n_max: int,
    grid: GridSpec,
) -> ConvergenceReport:
    """Walk the row [n/p] for n = n_min .. n_max and measure convergence.

    Per n: the entry is computed exactly; its denominator roots are matched
    to the p nearest pole slots; the sup of |f - [n/p]| is taken over the
    grid. Exact recovery (the function is rational and the entry equals it
    as a function) short-circuits the floating comparison and reports exact
    zeros. Blocks are recorded and skipped, not fatal. The modulus gap
    check runs first and its failure is flagged on the report and every
    record, while the walk still runs for observation.
    """
    if n_min < 0 or n_min > n_max:
        raise InputError("row range needs 0 <= n_min <= n_max")
    grid.validate()
    check = pole_ordering_check(spec, p)
    poles = spec.poles()

    slots = []
    for idx, info in enumerate(poles):
        slots.extend([(idx, info.location)] * info.multiplicity)
    slots.sort(key=lambda s: (abs(s[1]), s[1].real, s[1].imag))
    expected = slots[:p]

    if len(slots) > p:
        boundary = abs(slots[p][1])
        if not to_mpf(grid.radius) < boundary:
            raise InputError(
                f"grid radius {grid.radius} is not strictly inside the first "
                f"excluded pole modulus {mpmath.nstr(boundary, 8)}"
            )

    report_flags = [] if check.gap_ok else [GAP_FLAG]
    points = grid.iter_points([info.location for info in poles])
    # The grid is converted once. At DOUBLE_BITS it is held as Python complex
    # values, the exact conversion of the mpc points, for the double forms of
    # prepare_rf; otherwise as integers over 2^F for the integer forms.
    if get_precision() == DOUBLE_BITS:
        points = [complex(z) for z in points]
    else:
        points = [fixed_point(z) for z in points]

    series = spec.taylor(n_max + p)
    # f's rational part, converted at the first entry that needs the grid
    f_prepared = None
    # the roots of the last denominator found; an entry whose denominator
    # equals it, as every exact-recovery entry of a rational row does,
    # reuses them
    den, roots = None, None
    records = []
    for n in range(n_min, n_max + 1):
        entry = pade_approximant(series, n, p)
        flags = list(report_flags)
        if entry.is_block:
            records.append(
                RowRecord(n, True, False, (), (), (), tuple(range(len(expected))),
                          None, 0, tuple(flags + ["block entry"]))
            )
            continue
        fraction = entry.fraction
        del entry  # its fraction, built once, is all the grid reads
        exact = spec.is_exactly_rational and fraction.equivalent_to(spec.rational)
        if fraction.den != den:
            den = fraction.den
            roots = find_poly_roots(den)
        matching = pole_match(roots, expected)
        matches = matching.matches
        if exact:
            zero = mpmath.mpf(0)
            matches = tuple(PoleMatch(m.slot, m.pole_index, m.pole, m.root, zero) for m in matches)
            sup = mpmath.mpf(0)
            skipped = 0
            flags.append("exact recovery")
        else:
            if f_prepared is None:
                f_prepared = prepare_rf(spec.rational)
            prepared = prepare_rf(fraction)
            # The grid needs only the converted coefficients. Dropping the
            # exact fraction here, and the conversion after the grid, keeps
            # the two from being alive together at the row's peak memory.
            del fraction
            sup = None
            skipped = 0
            for z in points:
                try:
                    err = _grid_error(spec, f_prepared, prepared, z)
                except (NearPoleError, DomainError):
                    skipped += 1
                    continue
                if sup is None or err > sup:
                    sup = err
            del prepared
            if sup is None:
                flags.append("all grid points skipped")
            else:
                sup = mpmath.mpf(sup)
        records.append(
            RowRecord(
                n, False, exact, tuple(roots), matches, matching.spurious,
                matching.unmatched_slots, sup, skipped, tuple(flags),
            )
        )

    half_start = n_min + (n_max - n_min) // 2
    tail = [r for r in records if r.n >= half_start]
    sup_fit = _log_fit([(r.n, r.sup_error) for r in tail if not r.block])
    distance_fits = []
    for slot in range(len(expected)):
        pts = []
        for r in tail:
            for m in r.matches:
                if m.slot == slot:
                    pts.append((r.n, m.distance))
        fit = _log_fit(pts)
        if fit is not None:
            fit = dict(fit, slot=slot, pole=expected[slot][0])
        distance_fits.append(fit)
    modulus_ratio = None
    if check.inner is not None and check.outer is not None and check.outer > 0:
        modulus_ratio = check.inner / check.outer
    rates = {
        "sup_error": sup_fit,
        "pole_distance": distance_fits,
        "modulus_ratio": modulus_ratio,
    }

    return ConvergenceReport(
        p, n_min, n_max, poles, tuple(idx for idx, _ in expected),
        check.gap_ok, check.inner, check.outer,
        tuple(report_flags), grid, len(points), get_precision(), tuple(records),
        rates, spec.document,
    )


def telescoped_row_series(series: PowerSeries, p: int, n_min: int, n_max: int, z):
    """Partial sums of the telescoped row at a point.

    Writing the row entries as R_n, the telescoped series starts at
    R_{n_min} and adds the differences R_{n+1} - R_n. Its partial sums are
    exactly the entries again; with an exact rational z this function
    returns Fractions whose telescoping identity holds bit for bit, and
    with any other z it evaluates in floating arithmetic. A row that is not
    normal over the range, as row_to_cf judges it, is rejected before any
    entry is evaluated.
    """
    entries = [_rational_function(pair) for pair in _row_pairs(series, p, n_min, n_max)]
    exact_point = isinstance(z, (int, Fraction)) and not isinstance(z, bool)
    if exact_point:
        values = [e(Fraction(z)) for e in entries]
    else:
        values = [eval_rf_complex(e, z) for e in entries]
    sums = []
    total = None
    for i, v in enumerate(values):
        term = v if i == 0 else v - values[i - 1]
        total = term if total is None else total + term
        sums.append(total)
    return sums


# ---------------------------------------------------------------------------
# Report serialization


def _cnum(z) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def report_to_document(report: ConvergenceReport) -> dict:
    """JSON-ready form of a convergence report."""
    doc = {
        "p": report.p,
        "n_min": report.n_min,
        "n_max": report.n_max,
        "gap_ok": report.gap_ok,
        "flags": list(report.flags),
        "gap": {
            "inner_modulus": report.gap_inner,
            "outer_modulus": report.gap_outer,
            "modulus_ratio": report.rates.get("modulus_ratio"),
        },
        "poles": [
            dict(_cnum(p.location), multiplicity=p.multiplicity,
                 modulus=float(p.modulus))
            for p in report.poles
        ],
        "expected_slots": list(report.expected_slots),
        "grid": {
            "radius": report.grid.radius,
            "rim_points": report.grid.rim_points,
            "interior_circles": report.grid.interior_circles,
            "points_per_circle": report.grid.points_per_circle,
            "exclusion_radius": report.grid.exclusion,
            "point_count": report.grid_point_count,
        },
        "precision": report.precision,
        "records": [],
        "rates": report.rates,
    }
    if report.function_document is not None:
        doc["function"] = report.function_document
    for r in report.records:
        doc["records"].append(
            {
                "n": r.n,
                "block": r.block,
                "exact": r.exact,
                "sup_error": None if r.sup_error is None else float(r.sup_error),
                "skipped_points": r.skipped_points,
                "roots": [_cnum(z) for z in r.roots],
                "matches": [
                    {
                        "slot": m.slot,
                        "pole": m.pole_index,
                        "root": _cnum(m.root),
                        "distance": float(m.distance),
                    }
                    for m in r.matches
                ],
                "spurious_roots": [_cnum(z) for z in r.spurious],
                "unmatched_slots": list(r.unmatched_slots),
                "flags": list(r.flags),
            }
        )
    return doc


def report_to_csv_rows(report: ConvergenceReport) -> list[list]:
    """Flat rows: n, root_re, root_im, matched_pole, distance, sup_error, flag.

    One row per matched root, then per spurious root, then per unmatched
    slot; a record with none of those still contributes one row so every n
    appears.
    """
    rows: list[list] = [
        ["n", "root_re", "root_im", "matched_pole", "distance", "sup_error", "flag"]
    ]
    for r in report.records:
        sup = "" if r.sup_error is None else float(r.sup_error)
        flag = ";".join(r.flags)
        emitted = False
        for m in r.matches:
            rows.append(
                [r.n, float(m.root.real), float(m.root.imag), m.pole_index,
                 float(m.distance), sup, flag]
            )
            emitted = True
        for z in r.spurious:
            rows.append([r.n, float(z.real), float(z.imag), "", "", sup, flag])
            emitted = True
        for slot in r.unmatched_slots:
            pole = report.expected_slots[slot] if slot < len(report.expected_slots) else ""
            rows.append([r.n, "", "", pole, "", sup, flag])
            emitted = True
        if not emitted:
            rows.append([r.n, "", "", "", "", sup, flag])
    return rows


# ---------------------------------------------------------------------------
# Experiment documents


@dataclass(frozen=True)
class ExperimentConfig:
    spec: MeromorphicSpec
    p: int
    n_min: int
    n_max: int
    grid: GridSpec
    precision: Optional[int] = None


def _require_int(doc: dict, key: str, path: str, minimum: Optional[int] = None) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"integer required for {key}", f"{path}.{key}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{key} must be at least {minimum}", f"{path}.{key}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("number required", path)
    return float(value)


def parse_experiment_document(doc, path: str = "$") -> ExperimentConfig:
    """Validate a full experiment configuration document."""
    if not isinstance(doc, dict):
        raise SchemaError("experiment document must be a JSON object", path)
    if "function" not in doc:
        raise SchemaError("missing function", f"{path}.function")
    p = _require_int(doc, "p", path, 0)
    n_min = _require_int(doc, "n_min", path, 0)
    n_max = _require_int(doc, "n_max", path, 0)
    if n_max < n_min:
        raise SchemaError("n_max must be at least n_min", f"{path}.n_max")
    grid_doc = doc.get("grid")
    if not isinstance(grid_doc, dict) or "radius" not in grid_doc:
        raise SchemaError("grid with a radius is required", f"{path}.grid")
    fields = {"radius": _number(grid_doc["radius"], f"{path}.grid.radius")}
    for name, minimum in (("rim_points", 1), ("interior_circles", 0), ("points_per_circle", 1)):
        if name in grid_doc:
            fields[name] = _require_int(grid_doc, name, f"{path}.grid", minimum)
    if "exclusion_radius" in grid_doc:
        fields["exclusion_radius"] = _number(
            grid_doc["exclusion_radius"], f"{path}.grid.exclusion_radius"
        )
    grid = GridSpec(**fields)
    try:
        grid.validate()
    except InputError as exc:
        raise SchemaError(str(exc), f"{path}.grid") from exc
    precision = None
    if "precision" in doc:
        precision = _require_int(doc, "precision", path, 8)
    declared = None
    if "declared_poles" in doc:
        raw = doc["declared_poles"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("declared_poles must be a nonempty array",
                              f"{path}.declared_poles")
        declared = []
        for i, item in enumerate(raw):
            where = f"{path}.declared_poles[{i}]"
            if not isinstance(item, dict):
                raise SchemaError("pole must be an object", where)
            re = _number(item.get("re", 0.0), f"{where}.re")
            im = _number(item.get("im", 0.0), f"{where}.im")
            mult = item.get("multiplicity", 1)
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise SchemaError("multiplicity must be a positive integer",
                                  f"{where}.multiplicity")
            declared.append((mpmath.mpc(re, im), mult))
    spec = MeromorphicSpec.from_document(doc["function"], declared_poles=declared)
    return ExperimentConfig(spec, p, n_min, n_max, grid, precision)
