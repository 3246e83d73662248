"""`render_table` states the tables' parameter rule: which table reads m and
n, the goldens' defaults, and the refusals, in that order.  A table outside
1..7 is a usage error in the library too."""

import pytest

from superdual.tables import render_table, tensor_table_rows

TABLE6_M3_N2 = """\
# Table 6: P=1 supermultiplets tensored with (a+)^m Delta_f+|0>_2  (m=3, n=2, m>=n)
|0>_1                  -> [0,000,3;1,1]
f+_a|0>_1              -> [0,100,3;0,1]
f+_a f+_b|0>_1         -> [0,110,3;0,1]
f+_a f+_b f+_c|0>_1    -> [0,111,3;0,1]
(a+)^n Delta_f+|0>_1   -> [0,000,1;0,4] (+) [0,000,3;0,3] (+) [0,000,5;0,2]
(b+)^n|0>_1            -> [2,000,3;1,1]
"""


@pytest.mark.parametrize("table, kw, what", [
    (2, {"m": -1}, "table 2 does not read m = -1"),
    (5, {"m": 2}, "table 5 does not read m = 2"),
    (1, {"m": 9, "n": 0}, "table 1 does not read m = 9"),
    (1, {"n": 5}, "table 1 does not read n = 5"),
    (1, {"n": -1}, "table 1 does not read n = -1"),
])
def test_a_parameter_the_table_does_not_read_is_refused(table, kw, what):
    """Refused before any range check, and never replaced by a default."""
    with pytest.raises(ValueError, match=what):
        render_table(table, **kw)


def test_table6_reads_m_and_n():
    assert render_table(6, m=3, n=2) == TABLE6_M3_N2


@pytest.mark.parametrize("call, what", [
    (lambda: render_table(0), "table 0 is not one of the tables 1..7"),
    (lambda: render_table(8), "table 8 is not one of the tables 1..7"),
    (lambda: render_table(0, m=1), "table 0 is not one of the tables 1..7"),
    (lambda: tensor_table_rows(1, 2, 1), "table 1 has no tensor rows: of the tables 1..7"),
    (lambda: tensor_table_rows(8, 2, 1), "table 8 has no tensor rows: of the tables 1..7"),
])
def test_an_unknown_table_is_refused(call, what):
    """A usage error in the library, not a bare KeyError from the catalogue."""
    with pytest.raises(ValueError, match=what):
        call()
