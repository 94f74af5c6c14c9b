"""Command line behavior: documents, formats, exit codes, determinism."""

import json
import math

import pytest

from padelab import builtin_series, cli, errors, row_to_cf
from padelab.cli import main
from padelab.core.floats import DEFAULT_PRECISION, get_precision
from padelab.core.scalars import format_rational

TWO_POLE = '{"kind": "rational", "num": ["1", "2"], "den": ["1", "-5", "6"]}'
EVEN_PAIR = '{"kind": "rational", "num": ["1"], "den": ["1", "0", "-1"]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestPade:
    def test_exp_three_four(self, capsys):
        code, doc = run_json(capsys, "pade", "--series", "exp", "--L", "3", "--M", "4")
        assert code == 0
        assert doc["num"] == ["1", "3/7", "1/14", "1/210"]
        assert doc["den"] == ["1", "-4/7", "1/7", "-2/105", "1/840"]

    def test_block_exits_one(self, capsys):
        code, doc = run_json(capsys, "pade", "--series", EVEN_PAIR, "--L", "1", "--M", "1")
        assert code == 1
        assert doc["block"] == {"singular_system": [1, 1]}

    def test_missing_option(self, capsys):
        code, _ = run(capsys, "pade", "--series", "exp", "--L", "3")
        assert code == 2

    def test_bad_series(self, capsys):
        code, _ = run(capsys, "pade", "--series", "nope", "--L", "1", "--M", "1")
        assert code == 2

    def test_csv_unsupported(self, capsys):
        code, _ = run(capsys, "pade", "--series", "exp", "--L", "1", "--M", "1",
                      "--format", "csv")
        assert code == 2


class TestTable:
    def test_exp_json(self, capsys):
        code, doc = run_json(capsys, "table", "--series", "exp",
                             "--L-max", "2", "--M-max", "2")
        assert code == 0
        assert doc["blocks"] == []
        assert set(doc["entries"]) == {f"{L},{M}" for L in range(3) for M in range(3)}
        assert doc["entries"]["0,0"] == {"num": ["1"], "den": ["1"], "normal": True}

    def test_block_structure_json(self, capsys):
        code, doc = run_json(capsys, "table", "--series", EVEN_PAIR,
                             "--L-max", "2", "--M-max", "2")
        assert code == 0
        assert doc["entries"]["1,1"]["block"] == [1, 1, 1]
        [block] = doc["blocks"]
        assert block["corner"] == [1, 1]
        assert block["size"] == 1
        assert block["clipped"] is False
        assert block["fraction"] == {"num": ["1"], "den": ["1"]}

    def test_block_csv(self, capsys):
        code, out = run(capsys, "table", "--series", EVEN_PAIR,
                        "--L-max", "2", "--M-max", "2", "--format", "csv")
        assert code == 0
        assert "block(1;1;1)" in out
        assert out.splitlines()[0] == "L\\M,0,1,2"


class TestHankel:
    def test_single_value(self, capsys):
        code, doc = run_json(capsys, "hankel", "--series", "exp", "--m", "0", "--p", "2")
        assert code == 0
        assert doc == {"m": 0, "p": 2, "value": "-1/2"}

    def test_grid_csv(self, capsys):
        code, out = run(capsys, "hankel", "--series", "exp",
                        "--m-max", "2", "--p-max", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m\\p,1,2"
        assert lines[1] == "0,1,-1/2"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_grid_formats_each_value_once(self, capsys, monkeypatch, fmt):
        calls = []

        def counted(x):
            calls.append(x)
            return format_rational(x)

        monkeypatch.setattr(cli, "format_rational", counted)
        code, _ = run(capsys, "hankel", "--series", "exp",
                      "--m-max", "3", "--p-max", "2", "--format", fmt)
        assert code == 0
        assert len(calls) == 4 * 2

    def test_modes_are_exclusive(self, capsys):
        code, _ = run(capsys, "hankel", "--series", "exp", "--m", "0", "--p", "1",
                      "--m-max", "1", "--p-max", "1")
        assert code == 2
        code, _ = run(capsys, "hankel", "--series", "exp")
        assert code == 2


class TestCf:
    def test_euclid_document(self, capsys):
        code, doc = run_json(capsys, "cf", "--euclid", "105/24")
        assert code == 0
        assert doc == {"q0": "4", "terms": ["2", "1", "2"]}

    def test_sqrt_document(self, capsys):
        code, doc = run_json(capsys, "cf", "--sqrt", "3", "--terms", "7")
        assert code == 0
        assert doc == {"q0": "1", "terms": ["1", "2", "1", "2", "1", "2"]}

    def test_sqrt_needs_terms(self, capsys):
        code, _ = run(capsys, "cf", "--sqrt", "3")
        assert code == 2

    def test_numeric_convergent(self, capsys):
        code, doc = run_json(capsys, "cf", "--euclid", "105/24", "--convergent", "3")
        assert code == 0
        assert doc == {"k": 3, "A": "35", "B": "8", "reduced": "35/8"}

    def test_builtin_document(self, capsys):
        code, doc = run_json(capsys, "cf", "--builtin", "tan", "--terms", "2")
        assert code == 0
        assert doc["q0"] == ["0"]
        assert doc["partials"] == [[["0", "1"], ["1"]], [["0", "0", "-1"], ["3"]]]

    def test_builtin_needs_terms_for_document(self, capsys):
        code, _ = run(capsys, "cf", "--builtin", "exp")
        assert code == 2

    def test_algebraic_convergent(self, capsys):
        code, doc = run_json(capsys, "cf", "--builtin", "exp", "--convergent", "2")
        assert code == 0
        assert doc["A"] == ["-2", "-1"]
        assert doc["B"] == ["-2", "1"]
        assert doc["reduced"]["den"] == ["1", "-1/2"]

    def test_eval_exp(self, capsys):
        code, doc = run_json(capsys, "cf", "--builtin", "exp", "--eval", "1", "--k", "10")
        assert code == 0
        assert doc["value"]["re"] == pytest.approx(math.e, abs=1e-9)
        assert doc["value"]["im"] == 0.0

    def test_eval_forward_matches_backward(self, capsys):
        _, back = run_json(capsys, "cf", "--builtin", "tan", "--eval", "0.3,0.1",
                           "--k", "8")
        _, fwd = run_json(capsys, "cf", "--builtin", "tan", "--eval", "0.3,0.1",
                          "--k", "8", "--method", "forward")
        assert back["value"]["re"] == pytest.approx(fwd["value"]["re"], abs=1e-12)
        assert back["value"]["im"] == pytest.approx(fwd["value"]["im"], abs=1e-12)

    def test_eval_bad_point(self, capsys):
        code, _ = run(capsys, "cf", "--builtin", "exp", "--eval", "zap", "--k", "3")
        assert code == 2

    def test_from_convergents_offset(self, capsys):
        code, doc = run_json(capsys, "cf", "--from-convergents",
                             '[["1","2"],["3","4"]]')
        assert code == 0
        assert doc == {"q0": "0", "offset": 1,
                       "partials": [["1", "2"], ["-2", "3"]]}

    def test_from_convergents_degenerate_exits_one(self, capsys):
        code, _ = run(capsys, "cf", "--from-convergents", '[["1","1"],["2","2"]]')
        assert code == 1

    def test_input_round_trip(self, capsys):
        doc = '{"q0": "4", "terms": ["2", "1", "2"]}'
        code, got = run_json(capsys, "cf", "--input", doc, "--convergent", "3")
        assert code == 0
        assert got["reduced"] == "35/8"

    def test_input_keeps_row_cf_offset(self, capsys):
        argv = ["row-cf", "--series", "exp", "--p", "1", "--n-min", "0", "--n-max", "2"]
        _, row = run_json(capsys, *argv)
        code, doc = run_json(capsys, "cf", "--input", json.dumps(row))
        assert code == 0
        assert doc["offset"] == 1
        assert doc == {key: row[key] for key in ("q0", "partials", "offset")}
        original = row_to_cf(builtin_series("exp", 3), 1, 0, 2)
        for k in range(4):
            code, got = run_json(capsys, "cf", "--input", json.dumps(row),
                                 "--convergent", str(k))
            assert code == 0
            assert [got["A"], got["B"]] == [
                [format_rational(c) for c in term.coeffs] for term in original.convergent(k)
            ]

    @pytest.mark.parametrize("q0, offset", [("0", -1), ("0", True), ("0", "1"), ("0", 2), ("3", 1)])
    def test_input_rejects_bad_offset(self, capsys, q0, offset):
        doc = json.dumps({"q0": q0, "partials": [["1", "2"]], "offset": offset})
        assert main(["cf", "--input", doc]) == 2
        assert "(at $.offset)" in capsys.readouterr().err

    def test_sources_are_exclusive(self, capsys):
        code, _ = run(capsys, "cf", "--euclid", "1/2", "--sqrt", "2", "--terms", "3")
        assert code == 2
        code, _ = run(capsys, "cf")
        assert code == 2


class TestRowCf:
    def test_exp_row_one(self, capsys):
        code, doc = run_json(capsys, "row-cf", "--series", "exp",
                             "--p", "1", "--n-min", "0", "--n-max", "2")
        assert code == 0
        assert doc["offset"] == 1
        assert doc["q0"] == ["0"]
        assert doc["partials"] == [
            [["1"], ["1", "-1"]],
            [["0", "0", "1/2"], ["1", "1/2"]],
            [["0", "-1/6"], ["1", "1/3"]],
        ]

    def test_blocked_row_exits_one(self, capsys):
        code, _ = run(capsys, "row-cf", "--series", EVEN_PAIR,
                      "--p", "1", "--n-min", "0", "--n-max", "2")
        assert code == 1


class TestMoments:
    def test_comma_list(self, capsys):
        code, doc = run_json(capsys, "moments", "--moments", "1,1,2,6")
        assert code == 0
        assert doc == {"coeffs": ["1", "-1", "2", "-6"], "variable": "1/z"}

    def test_json_array(self, capsys):
        code, doc = run_json(capsys, "moments", "--moments", '["1/2", "3"]')
        assert code == 0
        assert doc["coeffs"] == ["1/2", "-3"]

    def test_bad_literal(self, capsys):
        code, _ = run(capsys, "moments", "--moments", "1,x")
        assert code == 2


class TestMontessus:
    CONFIG = json.dumps(
        {
            "function": json.loads(TWO_POLE),
            "p": 2,
            "n_min": 1,
            "n_max": 3,
            "grid": {"radius": 0.2, "rim_points": 8, "interior_circles": 1,
                     "points_per_circle": 4},
        }
    )

    def test_exact_recovery_report(self, capsys):
        code, doc = run_json(capsys, "montessus", "--config", self.CONFIG)
        assert code == 0
        assert doc["gap_ok"] is True
        assert doc["function"] == json.loads(TWO_POLE)
        assert [r["n"] for r in doc["records"]] == [1, 2, 3]
        for record in doc["records"]:
            assert record["exact"] is True
            assert record["sup_error"] == 0.0
            assert all(m["distance"] == 0.0 for m in record["matches"])

    def test_csv_output(self, capsys):
        code, out = run(capsys, "montessus", "--config", self.CONFIG,
                        "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,root_re,root_im,matched_pole,distance,sup_error,flag"
        assert len(lines) == 7  # two matched roots per n

    def test_json_output_builds_no_csv_rows(self, capsys, monkeypatch):
        def refuse(report):
            raise AssertionError("CSV rows built for JSON output")

        monkeypatch.setattr(cli, "report_to_csv_rows", refuse)
        code, doc = run_json(capsys, "montessus", "--config", self.CONFIG)
        assert code == 0
        assert [r["n"] for r in doc["records"]] == [1, 2, 3]

    def test_byte_determinism(self, capsys):
        _, first = run(capsys, "montessus", "--config", self.CONFIG)
        _, second = run(capsys, "montessus", "--config", self.CONFIG)
        assert first == second

    def test_config_precision_lands_in_report(self, capsys):
        config = json.loads(self.CONFIG)
        config["precision"] = 100
        code, doc = run_json(capsys, "montessus", "--config", json.dumps(config))
        assert code == 0
        assert doc["precision"] == 100

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(self.CONFIG, encoding="utf-8")
        code, doc = run_json(capsys, "montessus", "--config", f"@{path}")
        assert code == 0
        assert doc["p"] == 2

    def test_schema_violation_exits_two(self, capsys):
        config = json.loads(self.CONFIG)
        del config["grid"]
        code, _ = run(capsys, "montessus", "--config", json.dumps(config))
        assert code == 2

    def test_gap_violation_flagged_but_exits_zero(self, capsys):
        config = {
            "function": json.loads(EVEN_PAIR),
            "p": 1,
            "n_min": 1,
            "n_max": 4,
            "grid": {"radius": 0.5, "rim_points": 8},
        }
        code, doc = run_json(capsys, "montessus", "--config", json.dumps(config))
        assert code == 0
        assert doc["gap_ok"] is False
        assert "pole modulus gap hypothesis violated" in doc["flags"]


class TestHarness:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command", ["pade", "table", "hankel", "cf", "row-cf", "montessus", "moments"]
    )
    def test_emit_schema(self, capsys, command):
        code, doc = run_json(capsys, command, "--emit-schema")
        assert code == 0
        assert doc["subcommand"] == command

    def test_seed_flag_accepted(self, capsys):
        code, _ = run_json(capsys, "pade", "--series", "exp", "--L", "1", "--M", "1",
                           "--seed", "7")
        assert code == 0

    def test_series_file_argument(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(EVEN_PAIR, encoding="utf-8")
        code, doc = run_json(capsys, "pade", "--series", f"@{path}",
                             "--L", "0", "--M", "2")
        assert code == 0
        assert doc["den"] == ["1", "0", "-1"]

    @pytest.mark.parametrize("exc, code", [
        (errors.SchemaError("bad", "$.x"), 2),
        (errors.InputError("bad"), 2),
        (errors.NonNormalWindowError("bad"), 1),
        (errors.DomainError("bad"), 1),
        (errors.PadelabError("bad"), 1),
    ])
    def test_error_family_sets_exit_code(self, capsys, monkeypatch, exc, code):
        def handler(args):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "pade", handler)
        assert main(["pade"]) == code
        assert capsys.readouterr().err == f"error: {exc}\n"

    @pytest.mark.parametrize("argv, message", [
        (["table", "--series", "exp"], "--L-max, --M-max"),
        (["row-cf", "--series", "exp", "--p", "1"], "--n-min, --n-max"),
        (["hankel", "--series", "exp", "--m-max", "2"], "--p-max"),
    ], ids=["table", "row-cf", "hankel"])
    def test_missing_option_names_the_flag(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: missing required option(s): {message}\n"

    def test_precision_restored_after_call(self, capsys):
        config = json.loads(TestMontessus.CONFIG)
        config["precision"] = 113
        assert main(["montessus", "--config", json.dumps(config)]) == 0
        assert get_precision() == DEFAULT_PRECISION
        assert main(["pade", "--series", "exp", "--L", "1", "--M", "1",
                     "--precision", "90"]) == 0
        assert get_precision() == DEFAULT_PRECISION
        capsys.readouterr()

    def test_entry_point_wiring(self):
        from padelab import cli

        assert cli.main is main
