"""Command line front end.

Subcommands map one-to-one onto the library operations: pade, table,
hankel, cf, row-cf, montessus, moments. Output goes to stdout as JSON
(default) or CSV where a flat layout makes sense; exit code 0 on success,
1 when the mathematics degenerates (blocked entry, non-normal window,
near-pole evaluation), 2 when the input is malformed. Given the same
inputs and precision the output bytes are identical run to run: keys are
sorted, floats are printed with 17 significant digits, and nothing
depends on iteration order of sets or dicts.

Every subcommand accepts --emit-schema to print a description of its
inputs and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath

from .contfrac import (
    builtin_algebraic_cf,
    cf_from_convergents,
    cf_to_document,
    euclid_cf,
    evaluate_cf,
    parse_cf_document,
    partial_documents,
    sqrt_cf,
)
from .core.floats import get_precision, set_precision
from .core.poly import Polynomial
from .core.scalars import format_quotient, format_rational, parse_rational
from .core.series import (
    BuiltinSource,
    SeriesSource,
    parse_series_document,
    series_from_moments,
)
from .errors import DomainError, InputError, PadelabError
from .montessus import (
    DEFAULT_EXCLUSION_FACTOR,
    GridSpec,
    parse_experiment_document,
    report_to_csv_rows,
    report_to_document,
    run_row_experiment,
)
from .pade import hankel_det, hankel_grid, pade_approximant, pade_table, row_to_cf

# ---------------------------------------------------------------------------
# Deterministic writers


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise DomainError("non-finite value reached the output layer")
    return format(x, ".17g")


class _Rendered:
    """Text that dump_json already made for a value at its place in a document.

    dump_json passes the text through verbatim, so a handler can drop each
    part of its result as soon as that part is rendered. A wrapper, not a
    str subclass, so that the text is never copied.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _join_lines("{", ((json.dumps(str(k)) + ": ", obj[k]) for k in sorted(obj)),
                           "}", indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _join_lines("[", (("", v) for v in obj), "]", indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, mpmath.mpf):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(format_rational(obj))
    if isinstance(obj, _Rendered):
        return obj.text
    raise InputError(f"cannot serialize {type(obj).__name__} to JSON")


def _join_lines(opener: str, items, closer: str, indent: int) -> str:
    """A container, one (label, value) item a line, from a single join.

    Each value's text is copied once, into the container's.
    """
    newline = "\n" + "  " * (indent + 1)
    parts = [opener]
    for label, value in items:
        parts += (newline, label, dump_json(value, indent + 1), ",")
    parts[-1] = "\n" + "  " * indent + closer
    return "".join(parts)


def dump_csv(rows: list[list]) -> str:
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_format_float(cell))
            elif isinstance(cell, mpmath.mpf):
                cells.append(_format_float(float(cell)))
            elif isinstance(cell, Fraction):
                cells.append(format_rational(cell))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    out.append("")  # the trailing newline
    return "\n".join(out)


def _render(doc, fmt: str, csv_rows) -> str:
    """The whole output text: CSV rows, or the JSON document less its final newline."""
    if fmt == "csv":
        if csv_rows is None:
            raise InputError("csv output is not supported for this subcommand")
        return dump_csv(csv_rows)
    return dump_json(doc)


# ---------------------------------------------------------------------------
# Argument helpers


def _load_json_arg(text: str, what: str):
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {what} file {text[1:]!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for {what}: {exc}") from exc


def _series_arg(text: str) -> SeriesSource:
    """Series from shorthand ('exp', 'geometric:2') or a JSON document."""
    stripped = text.strip()
    if stripped == "exp":
        return BuiltinSource("exp")
    if stripped == "geometric":
        return BuiltinSource("geometric", None)
    if stripped.startswith("geometric:"):
        return BuiltinSource("geometric", parse_rational(stripped.split(":", 1)[1]))
    if stripped.startswith("{") or stripped.startswith("@"):
        return parse_series_document(_load_json_arg(stripped, "series"))
    raise InputError(
        f"series must be 'exp', 'geometric[:ratio]', inline JSON, or @file; got {text!r}"
    )


def _series_for(source: SeriesSource, preferred: int, minimum: int):
    """Series at the preferred order, backing off to what exists (>= minimum)."""
    bound = source.available_order()
    order = preferred if bound is None else min(preferred, bound)
    if order < minimum:
        raise InputError(
            f"series provides coefficients through {bound}, "
            f"at least {minimum} are required"
        )
    return source.series(order)


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise InputError("missing required option(s): " + ", ".join(f"--{n}" for n in missing))


def _entry_document(entry) -> dict:
    if entry.is_block:
        return {
            "L": entry.L,
            "M": entry.M,
            "block": {"singular_system": list(entry.singular_system)},
        }
    a, b, s = entry.pair
    return {
        "L": entry.L,
        "M": entry.M,
        "num": [format_quotient(x, s) for x in a],
        "den": [format_quotient(x, s) for x in b],
    }


def _poly_array(p: Polynomial) -> list[str]:
    return [format_rational(c) for c in p.coeffs]


# ---------------------------------------------------------------------------
# Schemas

_SERIES_SCHEMA = {
    "oneOf": [
        {"kind": "explicit", "coeffs": ["rational literal, ascending"]},
        {"kind": "builtin", "name": "exp | geometric", "ratio": "rational (geometric only)"},
        {"kind": "rational", "num": ["rational literal"], "den": ["rational literal"]},
        {"kind": "sum", "parts": ["series document"]},
    ],
    "shorthand": "exp | geometric[:ratio] | @file.json",
}

_GRID_SCHEMA = {
    "radius": "number > 0 (required)",
    "rim_points": f"int >= 1 (default {GridSpec.rim_points})",
    "interior_circles": f"int >= 0 (default {GridSpec.interior_circles})",
    "points_per_circle": f"int >= 1 (default {GridSpec.points_per_circle})",
    "exclusion_radius": f"number >= 0 (default {DEFAULT_EXCLUSION_FACTOR} * radius)",
}

_INT = {"type": int}

# subcommand -> (help line, output description, options). Each option is
# (flag, schema description, argparse keywords); argparse derives the dest
# from the flag, so --L-max arrives as args.L_max. The parser and the
# --emit-schema documents are both built from this table.
_COMMANDS = {
    "pade": (
        "one approximant [L/M] of a series",
        "entry document {L, M, num, den} or {L, M, block}; block exits 1",
        (
            ("series", _SERIES_SCHEMA,
             {"help": "series document, 'exp', 'geometric[:r]', or @file"}),
            ("L", "int >= 0", _INT),
            ("M", "int >= 0", _INT),
        ),
    ),
    "table": (
        "rectangular table with blocks and normality",
        "table document keyed 'L,M' with normality flags and block squares",
        (
            ("series", _SERIES_SCHEMA, {}),
            ("L-max", "int >= 0", _INT),
            ("M-max", "int >= 0", _INT),
        ),
    ),
    "hankel": (
        "Hankel determinant or determinant grid",
        "single {m, p, value} or grid rows m = 0..m_max, columns p = 1..p_max",
        (
            ("series", _SERIES_SCHEMA, {}),
            ("m", "int >= 0 (single value mode)", _INT),
            ("p", "int >= 0 (single value mode)", _INT),
            ("m-max", "int >= 0 (grid mode)", _INT),
            ("p-max", "int >= 1 (grid mode)", _INT),
        ),
    ),
    "cf": (
        "continued fractions: build, invert, evaluate",
        "fraction document {q0, terms|partials}, convergent pair, or value",
        (
            ("euclid", "rational literal", {"metavar": "RATIONAL"}),
            ("sqrt", "nonnegative int (with --terms)", {"type": int, "metavar": "N"}),
            ("builtin", "tan | exp (with --terms for the document)",
             {"choices": ("tan", "exp")}),
            ("input", "continued fraction document or @file", {"metavar": "DOC"}),
            ("from-convergents", "JSON array of [A, B] pairs (rationals or coeff arrays)",
             {"metavar": "PAIRS"}),
            ("terms", "int >= 1", _INT),
            ("convergent", "int k >= 0: emit pair (A_k, B_k) and the reduced value",
             {"type": int, "metavar": "K"}),
            ("eval", "complex point 're' or 're,im' (with --k, optional --method)",
             {"metavar": "POINT"}),
            ("k", "truncation level for --eval", _INT),
            ("method", "backward | forward",
             {"choices": ("backward", "forward"), "default": "backward"}),
        ),
    ),
    "row-cf": (
        "continued fraction generating a table row",
        "algebraic fraction document whose convergents are the row entries",
        (
            ("series", _SERIES_SCHEMA, {}),
            ("p", "int >= 0", _INT),
            ("n-min", "int >= 0", _INT),
            ("n-max", "int >= n_min", _INT),
        ),
    ),
    "montessus": (
        "row convergence experiment",
        "convergence report (JSON) or rows n, root_re, root_im, matched_pole, distance, "
        "sup_error, flag (CSV)",
        (
            ("config", {
                "function": _SERIES_SCHEMA,
                "p": "int >= 0",
                "n_min": "int >= 0",
                "n_max": "int >= n_min",
                "grid": _GRID_SCHEMA,
                "precision": "int >= 8 (bits, optional)",
                "declared_poles": [{"re": "number", "im": "number", "multiplicity": "int >= 1"}],
            }, {"metavar": "DOC", "help": "experiment document or @file"}),
        ),
    ),
    "moments": (
        "alternating series from a moment list",
        "{coeffs, variable: '1/z'} with signs alternating",
        (("moments", "comma separated rational literals, or JSON array", {"metavar": "LIST"}),),
    ),
}

# Options every subcommand takes; they are not part of its schema.
_COMMON_OPTIONS = (
    ("format", {"choices": ("json", "csv"), "default": "json",
                "help": "output format (default json)"}),
    ("precision", {"type": int, "metavar": "BITS",
                   "help": "working precision for floating diagnostics"}),
    ("seed", {"type": int,
              "help": "seed for randomized utilities (current subcommands are deterministic)"}),
    ("emit-schema", {"action": "store_true",
                     "help": "print this subcommand's input schema and exit"}),
)


def _schema(command: str) -> dict:
    _, output, options = _COMMANDS[command]
    return {
        "subcommand": command,
        "options": {flag: description for flag, description, _ in options},
        "output": output,
    }


# ---------------------------------------------------------------------------
# Handlers: each returns its JSON document, its CSV rows (None where CSV is
# not supported or not asked for) and its exit code, for main to emit. A
# handler may leave out the document that its output format does not use.


def _cmd_pade(args) -> tuple:
    _require(args, ["series", "L", "M"])
    source = _series_arg(args.series)
    series = _series_for(source, args.L + args.M + 1, args.L + args.M)
    entry = pade_approximant(series, args.L, args.M)
    return _entry_document(entry), None, 1 if entry.is_block else 0


def _cmd_table(args) -> tuple:
    _require(args, ["series", "L-max", "M-max"])
    source = _series_arg(args.series)
    lm = args.L_max + args.M_max
    series = _series_for(source, lm + 1, lm)
    table = pade_table(series, args.L_max, args.M_max)
    # each entry leaves the table as it is converted
    entries, blocks, block_of = table.entries, table.blocks, table.block_of
    if args.format == "csv":
        rows = [["L\\M"] + list(range(table.Mmax + 1))]
        for L in range(table.Lmax + 1):
            row = [L]
            for M in range(table.Mmax + 1):
                entry = entries.pop((L, M))
                if entry.is_block:
                    b = blocks[block_of[(L, M)]]
                    row.append(f"block({b.corner[0]};{b.corner[1]};{b.size})")
                else:
                    f = entry.fraction
                    row.append(f"({f.num.pretty()}) / ({f.den.pretty()})")
            rows.append(row)
        return None, rows, 0
    texts = {}
    while entries:
        (L, M), entry = entries.popitem()
        doc = _entry_document(entry)
        doc.pop("L"), doc.pop("M")
        if entry.is_block:
            block = blocks[block_of[(L, M)]]
            doc["block"] = [block.corner[0], block.corner[1], block.size]
        doc["normal"] = entry.normal
        # the entry sits at depth 2: document, "entries", entry
        texts[f"{L},{M}"] = _Rendered(dump_json(doc, 2))
    texts = _Rendered(dump_json(texts, 1))
    block_docs = []
    for b in blocks:
        fraction = None
        if b.fraction is not None:
            fraction = {"num": _poly_array(b.fraction.num), "den": _poly_array(b.fraction.den)}
        block_docs.append(
            {"corner": list(b.corner), "size": b.size, "clipped": b.clipped,
             "fraction": fraction}
        )
    doc = {"L_max": table.Lmax, "M_max": table.Mmax, "entries": texts, "blocks": block_docs}
    return doc, None, 0


def _cmd_hankel(args) -> tuple:
    _require(args, ["series"])
    source = _series_arg(args.series)
    single = args.m is not None or args.p is not None
    grid_mode = args.m_max is not None or args.p_max is not None
    if single == grid_mode:
        raise InputError("use exactly one of (--m, --p) or (--m-max, --p-max)")
    if single:
        _require(args, ["m", "p"])
        top = args.m + 2 * args.p - 2
        series = _series_for(source, max(top, 0), max(top, 0))
        value = hankel_det(series, args.m, args.p)
        return {"m": args.m, "p": args.p, "value": format_rational(value)}, None, 0
    _require(args, ["m-max", "p-max"])
    top = args.m_max + 2 * args.p_max - 2
    series = _series_for(source, max(top, 0), max(top, 0))
    grid = hankel_grid(series, args.m_max, args.p_max)
    if args.format == "csv":
        rows = [["m\\p"] + list(range(1, args.p_max + 1))]
        for m, row in enumerate(grid):
            rows.append([m] + [format_rational(v) for v in row])
        return None, rows, 0
    # each grid row is dropped as it is rendered, at depth 2: document, "rows", row
    grid.reverse()
    texts = []
    while grid:
        texts.append(_Rendered(dump_json([format_rational(v) for v in grid.pop()], 2)))
    texts = _Rendered(dump_json(texts, 1))
    return {"m_max": args.m_max, "p_max": args.p_max, "rows": texts}, None, 0


def _cf_source(args):
    chosen = [
        name
        for name, value in (
            ("euclid", args.euclid),
            ("sqrt", args.sqrt),
            ("builtin", args.builtin),
            ("input", args.input),
            ("from-convergents", args.from_convergents),
        )
        if value is not None
    ]
    if len(chosen) != 1:
        raise InputError(
            "choose exactly one of --euclid, --sqrt, --builtin, --input, "
            "--from-convergents"
        )
    kind = chosen[0]
    if kind == "euclid":
        return euclid_cf(parse_rational(args.euclid))
    if kind == "sqrt":
        _require(args, ["terms"])
        return sqrt_cf(args.sqrt, args.terms)
    if kind == "builtin":
        return builtin_algebraic_cf(args.builtin)
    if kind == "input":
        return parse_cf_document(_load_json_arg(args.input, "continued fraction"))
    payload = _load_json_arg(args.from_convergents, "convergent pairs")
    if not isinstance(payload, list) or not payload:
        raise InputError("--from-convergents needs a nonempty JSON array of [A, B] pairs")
    pairs = []
    for i, item in enumerate(payload):
        if not isinstance(item, list) or len(item) != 2:
            raise InputError(f"pair {i} must be a two-element array")
        a, b = item
        if isinstance(a, list) or isinstance(b, list):
            pairs.append(
                (
                    Polynomial([parse_rational(c) for c in (a if isinstance(a, list) else [a])]),
                    Polynomial([parse_rational(c) for c in (b if isinstance(b, list) else [b])]),
                )
            )
        else:
            pairs.append((parse_rational(a), parse_rational(b)))
    return cf_from_convergents(pairs)


def _cmd_cf(args) -> tuple:
    cf = _cf_source(args)
    if args.eval is not None:
        _require(args, ["k"])
        parts = args.eval.split(",")
        if len(parts) not in (1, 2):
            raise InputError("--eval expects 're' or 're,im'")
        try:
            re = float(parts[0])
            im = float(parts[1]) if len(parts) == 2 else 0.0
        except ValueError as exc:
            raise InputError(f"invalid evaluation point {args.eval!r}") from exc
        value = evaluate_cf(cf, mpmath.mpc(re, im), args.k, method=args.method)
        doc = {
            "k": args.k,
            "method": args.method,
            "point": {"re": re, "im": im},
            "value": {"re": float(value.real), "im": float(value.imag)},
        }
        return doc, None, 0
    if args.convergent is not None:
        pair = cf.convergent(args.convergent)
        if cf.algebraic:
            reduced = pair.reduced()
            doc = {
                "k": args.convergent,
                "A": _poly_array(pair.numerator),
                "B": _poly_array(pair.denominator),
                "reduced": {
                    "num": _poly_array(reduced.num),
                    "den": _poly_array(reduced.den),
                },
            }
        else:
            doc = {
                "k": args.convergent,
                "A": format_rational(pair.numerator),
                "B": format_rational(pair.denominator),
                "reduced": format_rational(pair.reduced()),
            }
        return doc, None, 0
    if cf.length is None:
        _require(args, ["terms"])
        cf = cf.prefix(args.terms)
    elif args.terms is not None and args.terms < cf.length:
        cf = cf.prefix(args.terms)
    return cf_to_document(cf), None, 0


def _cmd_row_cf(args) -> tuple:
    _require(args, ["series", "p", "n-min", "n-max"])
    source = _series_arg(args.series)
    need = args.n_max + args.p
    series = _series_for(source, need, need)
    cf = row_to_cf(series, args.p, args.n_min, args.n_max)
    # A row's fraction is algebraic, so its document takes the "partials"
    # form. Each partial is rendered as it is converted, at depth 2:
    # document, "partials", partial, and the fraction is dropped before the
    # rendered partials are joined.
    doc = cf_to_document(cf.prefix(0))
    texts = [_Rendered(dump_json(entry, 2)) for entry in partial_documents(cf)]
    del cf
    doc["partials"] = _Rendered(dump_json(texts, 1))
    doc["p"] = args.p
    doc["n_min"] = args.n_min
    doc["n_max"] = args.n_max
    return doc, None, 0


def _cmd_montessus(args) -> tuple:
    _require(args, ["config"])
    config = parse_experiment_document(_load_json_arg(args.config, "experiment config"))
    if config.precision is not None:
        set_precision(config.precision)
    report = run_row_experiment(
        config.spec, config.p, config.n_min, config.n_max, config.grid
    )
    if args.format == "csv":
        return None, report_to_csv_rows(report), 0
    return report_to_document(report), None, 0


def _cmd_moments(args) -> tuple:
    _require(args, ["moments"])
    text = args.moments.strip()
    if text.startswith("[") or text.startswith("@"):
        raw = _load_json_arg(text, "moments")
        if not isinstance(raw, list):
            raise InputError("moments JSON must be an array")
        values = [parse_rational(m) for m in raw]
    else:
        values = [parse_rational(m) for m in text.split(",") if m.strip()]
    series = series_from_moments(values)
    return {"coeffs": [format_rational(c) for c in series.coeffs],
            "variable": series.variable}, None, 0


_HANDLERS = {
    "pade": _cmd_pade,
    "table": _cmd_table,
    "hankel": _cmd_hankel,
    "cf": _cmd_cf,
    "row-cf": _cmd_row_cf,
    "montessus": _cmd_montessus,
    "moments": _cmd_moments,
}


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padelab",
        description="Exact Pade tables, continued fractions, and pole convergence runs.",
    )
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for command, (help_line, _, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_line)
        for flag, _, keywords in options:
            sub.add_argument("--" + flag, **keywords)
        for flag, keywords in _COMMON_OPTIONS:
            sub.add_argument("--" + flag, **keywords)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command is None:
        _PARSER.print_help()
        return 2
    saved_precision = get_precision()
    try:
        if args.emit_schema:
            doc, rows, code = _schema(args.command), None, 0
            fmt = "json"
        else:
            if args.precision is not None:
                set_precision(args.precision)
            doc, rows, code = _HANDLERS[args.command](args)
            fmt = args.format
        # The handler's exact objects are gone by now. What serialization
        # sees is the document or the CSV rows, in which the table entries
        # and the Hankel grid rows are already text. Only the output text
        # is left at the write: the whole of it at once, then JSON's newline.
        text = _render(doc, fmt, rows)
        del doc, rows
        sys.stdout.write(text)
        if fmt == "json":
            sys.stdout.write("\n")
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PadelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_precision(saved_precision)


if __name__ == "__main__":
    sys.exit(main())
