"""Byte identity of CLI output against pinned golden files.

The table and Hankel files hold the stdout of these commands as produced
by the Fraction-valued Bareiss implementation that preceded the integer
kernel and the Hankel store; the exact outputs must not move by a byte.
The schema and help files hold the descriptive output of every subcommand
as produced by the parser that declared each option twice (once for
argparse, once for --emit-schema); declaring it once must not move it.
The montessus files hold row experiment reports as produced by the grid
evaluator that converted every exact coefficient to mpf at every grid
point; converting each rational function once per run must not move them.
"""

import argparse
import json
from pathlib import Path

import pytest

from padelab.cli import main

GOLDEN = Path(__file__).parent / "golden"
EVEN_PAIR = '{"kind":"rational","num":["1"],"den":["1","0","-1"]}'
COMMANDS = ["pade", "table", "hankel", "cf", "row-cf", "montessus", "moments"]

# The experiment document of the README: exp + 1/(1-z), row p = 1.
README_CONFIG = {
    "function": {"kind": "sum", "parts": [
        {"kind": "builtin", "name": "exp"},
        {"kind": "rational", "num": ["1"], "den": ["1", "-1"]},
    ]},
    "p": 1, "n_min": 2, "n_max": 15, "grid": {"radius": 0.5}, "precision": 53,
}
# exp + 1/(1-z^2/4): poles at +2 and -2 share a modulus, so row 1 has no gap.
GAP_CONFIG = {
    "function": {"kind": "sum", "parts": [
        {"kind": "builtin", "name": "exp"},
        {"kind": "rational", "num": ["1"], "den": ["1", "0", "-1/4"]},
    ]},
    "p": 1, "n_min": 2, "n_max": 12, "grid": {"radius": 1},
}


def _montessus(config: dict, *extra: str) -> list:
    return ["montessus", "--config", json.dumps(config, separators=(",", ":")), *extra]


CASES = {
    "table_exp_8x8.json": ["table", "--series", "exp", "--L-max", "8", "--M-max", "8"],
    "hankel_exp_10x8.json": ["hankel", "--series", "exp", "--m-max", "10", "--p-max", "8"],
    # 1/(1-z^2): most of the table is block markers
    "table_even_6x6.json": ["table", "--series", EVEN_PAIR, "--L-max", "6", "--M-max", "6"],
}
CASES.update({
    "montessus_readme.json": _montessus(README_CONFIG),
    "montessus_readme.csv": _montessus(README_CONFIG, "--format", "csv"),
    "montessus_precision_113.json": _montessus(dict(README_CONFIG, precision=113)),
    "montessus_gap_violated.json": _montessus(GAP_CONFIG),
})
CASES.update({f"schema_{cmd}.json": [cmd, "--emit-schema"] for cmd in COMMANDS})

HELP = {"help.txt": ["--help"]}
HELP.update({f"help_{cmd}.txt": [cmd, "--help"] for cmd in COMMANDS})


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_unchanged(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_bytes_unchanged(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(HELP[name])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_main_builds_no_parser(capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("main() constructed an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main(["pade", "--series", "exp", "--L", "1", "--M", "1"]) == 0
    assert main(["cf", "--emit-schema"]) == 0
    capsys.readouterr()
