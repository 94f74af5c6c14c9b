"""Peak traced memory of a long row fraction, of a row-cf job and of a table job.

row_to_cf streams the row into the recovery on integers and keeps only the
pairs of the current step, the row-cf command renders each partial as it
is converted, and the table command renders each entry as it leaves the
table. Each bound sits between the peak measured with that
design and the peak measured without it (CPython 3.11.7, tracemalloc), so
the old design coming back fails it. The bounds count Python allocations
only, and a warm-up call keeps one-time costs out of the measured call.
"""

import contextlib
import io
import tracemalloc

from padelab import builtin_series, cli, row_to_cf


def traced_peak(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_row_fraction_peak():
    # measured 52 KB streamed; 232-237 KB with the whole row held as Fraction entries
    series = builtin_series("exp", 61)
    assert traced_peak(lambda: row_to_cf(series, 1, 0, 60)) < 117 * 1024


def test_row_cf_command_peak():
    # measured 99 KB rendering each partial as it is converted and dropping
    # the fraction before the join, which leaves row_to_cf's own peak as the
    # job's; 110 KB building the whole fraction document
    series = '{"kind":"sum","parts":[{"kind":"builtin","name":"exp"},' \
             '{"kind":"rational","num":["2"],"den":["1","-1/6","-1/6"]}]}'

    def row_cf():
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["row-cf", "--series", series, "--p", "1", "--n-min", "0", "--n-max", "60"]
            assert cli.main(argv) == 0

    assert traced_peak(row_cf) < 105 * 1024


def test_table_command_peak():
    # measured 100 KB rendering entries as they leave the table; 182-186 KB
    # building the whole document beside the whole table
    def table():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["table", "--series", "exp", "--L-max", "9", "--M-max", "9"]) == 0

    assert traced_peak(table) < 158 * 1024
