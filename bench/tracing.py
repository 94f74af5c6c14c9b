"""Spans and counters around padelab's layers, installed from outside.

Tracer.install replaces each traced padelab function with a wrapper at
every module attribute and class attribute it is reached through (for
example montessus imports eval_rf_complex by name, so both
padelab.core.floats.eval_rf_complex and padelab.montessus.eval_rf_complex
are replaced). Each wrapper records a span (name, start, end, parent)
and, for the counters, a reference to its arguments and result. The
counters are computed only in summary(), after the timed job, so the
spans measure padelab and little else.

A span's self time is its duration minus the durations of its direct
child spans. A recursive call to the same function does not open a new
span, so the recursive JSON writer counts as one serialization.

A Tracer is installed only in the forked child that runs a traced job,
after touch_layers, which every child runs; layer_metrics runs in run.py
on the children's summaries.
"""

from __future__ import annotations

import sys
import time

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
LAYER_METRICS = (
    ("pade.exact_det.calls", "count"),
    ("pade.exact_det.self_s", "s"),
    ("pade.exact_det.bits_max", "bits"),
    ("pade.exact_det.distinct_frac", "fraction"),
    ("pade.exact_solve.calls", "count"),
    ("pade.exact_solve.self_s", "s"),
    ("pade.exact_solve.singular_frac", "fraction"),
    ("pade.approximant.calls", "count"),
    ("pade.approximant.self_s", "s"),
    ("pade.approximant.bits_max", "bits"),
    ("pade.approximant.block_frac", "fraction"),
    ("pade.table.self_s", "s"),
    ("pade.hadamard.calls", "count"),
    ("pade.hadamard.self_s", "s"),
    ("floats.eval_rf.calls", "count"),
    ("floats.eval_rf.self_s", "s"),
    ("floats.roots.calls", "count"),
    ("floats.roots.self_s", "s"),
    ("floats.polyroots.retries", "count"),
    ("montessus.f_eval.calls", "count"),
    ("montessus.f_eval.self_s", "s"),
    ("montessus.f_eval.distinct_frac", "fraction"),
    ("montessus.grid_points", "count"),
    ("montessus.skipped_points", "count"),
    ("montessus.row.self_s", "s"),
    ("montessus.report.self_s", "s"),
    ("contfrac.from_convergents.calls", "count"),
    ("contfrac.from_convergents.self_s", "s"),
    ("contfrac.convergents.self_s", "s"),
    ("contfrac.term_bits_max", "bits"),
    ("poly.arith.self_s", "s"),
    ("poly.gcd.calls", "count"),
    ("series.generate.self_s", "s"),
    ("series.coeff_bits_max", "bits"),
    ("cli.serialize.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("trace.untraced_jobs_s", "s"),
    ("trace.traced_jobs_s", "s"),
)

# Span names whose self times add up to each *.self_s metric.
SELF_TIME_SPANS = {
    "pade.exact_det.self_s": ("pade.exact_det",),
    "pade.exact_solve.self_s": ("pade.exact_solve",),
    "pade.approximant.self_s": ("pade.approximant",),
    "pade.table.self_s": ("pade.table",),
    "pade.hadamard.self_s": ("pade.hadamard",),
    "floats.eval_rf.self_s": ("floats.eval_rf",),
    "floats.roots.self_s": ("floats.roots",),
    "montessus.f_eval.self_s": ("montessus.f_eval",),
    "montessus.row.self_s": ("montessus.row",),
    "montessus.report.self_s": ("montessus.report",),
    "contfrac.from_convergents.self_s": ("contfrac.from_convergents",),
    "contfrac.convergents.self_s": ("contfrac.convergents",),
    "poly.arith.self_s": ("poly.mul", "poly.exact_div", "poly.gcd"),
    "series.generate.self_s": ("series.generate",),
    "cli.serialize.self_s": ("cli.serialize",),
}


def bits(x) -> int:
    """Bit height of a Fraction: the longer of numerator and denominator."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _poly_bits(*polys) -> int:
    return max((bits(c) for p in polys for c in p.coeffs), default=0)


def _padelab_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "padelab" or n.startswith("padelab."))]


def _methods() -> tuple:
    """(span name, class, attributes, noted) of the traced methods."""
    from padelab import contfrac, montessus
    from padelab.core import poly, series

    return (
        ("poly.mul", poly.Polynomial, ("__mul__", "__rmul__"), False),
        ("poly.exact_div", poly.Polynomial, ("exact_div",), False),
        ("montessus.f_eval", montessus.MeromorphicSpec, ("evaluate",), True),
        ("series.generate", montessus.MeromorphicSpec, ("taylor",), True),
        ("series.generate", series.SeriesSource, ("series",), True),
        ("contfrac.convergents", contfrac.ContinuedFraction, ("convergent_pairs",), False),
        ("poly.gcd", poly.Polynomial, ("gcd",), False),
    )


def touch_layers() -> None:
    """Set every attribute that Tracer.install may replace to itself.

    Every job's child calls this before its timer starts, traced or not,
    so both kinds take the same copy-on-write faults on the module and
    class pages they share with the fork server outside the timed region,
    and the difference between traced and untraced job time is the
    tracing alone.
    """
    import mpmath

    for module in _padelab_modules() + [mpmath]:
        for attr, value in list(vars(module).items()):
            setattr(module, attr, value)
    for _, cls, attrs, _ in _methods():
        for attr in attrs:
            setattr(cls, attr, vars(cls)[attr])


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start_ns, end_ns, parent index]
        self.notes: list = []  # (span name, args, result) for the counters
        self.polyroots_calls = 0
        self._stack: list = []

    def wrap(self, name: str, fn, noted: bool = False):
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0, 0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if noted:
                notes.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        import mpmath

        from padelab import cli, contfrac, montessus, pade
        from padelab.core import floats

        functions = (
            ("pade.exact_det", pade.exact_det, True),
            ("pade.exact_solve", pade.exact_solve, True),
            ("pade.approximant", pade.pade_approximant, True),
            ("pade.table", pade.pade_table, False),
            ("pade.hadamard", pade.hadamard_polynomial, False),
            ("floats.eval_rf", floats.eval_rf_complex, False),
            ("floats.roots", floats.find_poly_roots, True),
            ("montessus.row", montessus.run_row_experiment, True),
            ("montessus.report", montessus.report_to_document, False),
            ("montessus.report", montessus.report_to_csv_rows, False),
            ("contfrac.from_convergents", contfrac.cf_from_convergents, True),
            ("cli.serialize", cli.dump_json, False),
            ("cli.serialize", cli.dump_csv, False),
        )
        modules = _padelab_modules()
        for name, fn, noted in functions:
            wrapper = self.wrap(name, fn, noted)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

        for name, cls, attrs, noted in _methods():
            wrapper = self.wrap(name, getattr(cls, attrs[0]), noted)
            if isinstance(vars(cls)[attrs[0]], staticmethod):
                wrapper = staticmethod(wrapper)
            for attr in attrs:
                setattr(cls, attr, wrapper)

        polyroots = mpmath.polyroots

        def counted_polyroots(*args, **kwargs):
            self.polyroots_calls += 1
            return polyroots(*args, **kwargs)

        mpmath.polyroots = counted_polyroots

    def summary(self) -> dict:
        """Per-job counters and self times, keyed by metric-building names."""
        calls: dict = {}
        self_ns: dict = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - inner)

        out = {"calls": calls, "self_ns": self_ns, "polyroots": self.polyroots_calls}
        maxes = {"det_bits": 0, "approx_bits": 0, "term_bits": 0, "coeff_bits": 0}
        counts = {"det_distinct": set(), "singular": 0, "blocks": 0, "roots_nonconst": 0,
                  "z_distinct": set(), "grid_points": 0, "skipped_points": 0}
        for name, args, result in self.notes:
            if name == "pade.exact_det":
                counts["det_distinct"].add(tuple(tuple(row) for row in args[0]))
                maxes["det_bits"] = max(maxes["det_bits"], bits(result))
            elif name == "pade.exact_solve":
                counts["singular"] += result is None
            elif name == "pade.approximant":
                if result.is_block:
                    counts["blocks"] += 1
                else:
                    maxes["approx_bits"] = max(
                        maxes["approx_bits"], _poly_bits(result.fraction.num, result.fraction.den))
            elif name == "floats.roots":
                counts["roots_nonconst"] += args[0].degree >= 1
            elif name == "montessus.f_eval":
                counts["z_distinct"].add(args[1])
            elif name == "montessus.row":
                for record in result.records:
                    if not record.block and not record.exact:
                        counts["grid_points"] += result.grid_point_count
                    counts["skipped_points"] += record.skipped_points
            elif name == "contfrac.from_convergents":
                terms = [result.q0] + [t for k in range(1, result.length + 1)
                                       for t in result.partial(k)]
                maxes["term_bits"] = max(
                    [maxes["term_bits"]]
                    + [_poly_bits(t) if hasattr(t, "coeffs") else bits(t) for t in terms])
            elif name == "series.generate":
                maxes["coeff_bits"] = max([maxes["coeff_bits"]] + [bits(c) for c in result.coeffs])
        counts["det_distinct"] = len(counts["det_distinct"])
        counts["z_distinct"] = len(counts["z_distinct"])
        out.update(maxes)
        out.update(counts)
        return out


def layer_metrics(summaries: list, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of a run from the per-job summaries."""
    calls: dict = {}
    self_ns: dict = {}
    total: dict = {}
    for s in summaries:
        for name, n in s["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, ns in s["self_ns"].items():
            self_ns[name] = self_ns.get(name, 0) + ns
        for key, value in s.items():
            if isinstance(value, int):
                if key.endswith("_bits"):
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value

    def frac(part, whole):
        return part / whole if whole else 0.0

    values = {
        "pade.exact_det.calls": calls.get("pade.exact_det", 0),
        "pade.exact_det.bits_max": total.get("det_bits", 0),
        "pade.exact_det.distinct_frac": frac(total.get("det_distinct", 0),
                                             calls.get("pade.exact_det", 0)),
        "pade.exact_solve.calls": calls.get("pade.exact_solve", 0),
        "pade.exact_solve.singular_frac": frac(total.get("singular", 0),
                                               calls.get("pade.exact_solve", 0)),
        "pade.approximant.calls": calls.get("pade.approximant", 0),
        "pade.approximant.bits_max": total.get("approx_bits", 0),
        "pade.approximant.block_frac": frac(total.get("blocks", 0),
                                            calls.get("pade.approximant", 0)),
        "pade.hadamard.calls": calls.get("pade.hadamard", 0),
        "floats.eval_rf.calls": calls.get("floats.eval_rf", 0),
        "floats.roots.calls": calls.get("floats.roots", 0),
        "floats.polyroots.retries": total.get("polyroots", 0) - total.get("roots_nonconst", 0),
        "montessus.f_eval.calls": calls.get("montessus.f_eval", 0),
        "montessus.f_eval.distinct_frac": frac(total.get("z_distinct", 0),
                                               calls.get("montessus.f_eval", 0)),
        "montessus.grid_points": total.get("grid_points", 0),
        "montessus.skipped_points": total.get("skipped_points", 0),
        "contfrac.from_convergents.calls": calls.get("contfrac.from_convergents", 0),
        "contfrac.term_bits_max": total.get("term_bits", 0),
        "poly.gcd.calls": calls.get("poly.gcd", 0),
        "series.coeff_bits_max": total.get("coeff_bits", 0),
        "cli.out_bytes": total.get("out_bytes", 0),
        "trace.untraced_jobs_s": untraced_s,
        "trace.traced_jobs_s": traced_s,
    }
    for metric, names in SELF_TIME_SPANS.items():
        values[metric] = sum(self_ns.get(n, 0) for n in names) / 1e9
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
