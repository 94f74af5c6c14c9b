"""Byte identity of table and Hankel output against pinned golden files.

The files under tests/golden hold the stdout of these commands as produced
by the Fraction-valued Bareiss implementation that preceded the integer
kernel and the Hankel store; the exact outputs must not move by a byte.
"""

from pathlib import Path

import pytest

from padelab.cli import main

GOLDEN = Path(__file__).parent / "golden"
EVEN_PAIR = '{"kind":"rational","num":["1"],"den":["1","0","-1"]}'

CASES = {
    "table_exp_8x8.json": ["table", "--series", "exp", "--L-max", "8", "--M-max", "8"],
    "hankel_exp_10x8.json": ["hankel", "--series", "exp", "--m-max", "10", "--p-max", "8"],
    # 1/(1-z^2): most of the table is block markers
    "table_even_6x6.json": ["table", "--series", EVEN_PAIR, "--L-max", "6", "--M-max", "6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_unchanged(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
