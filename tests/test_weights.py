from hypothesis import given
from hypothesis import strategies as st

from superdual.gradings import Grading, parse_grading
from superdual.weights import FundamentalWeight, dynkin_from_fundamental, outer_dual


def test_dynkin_examples():
    w = FundamentalWeight(parse_grading("su(2,|4|2)"), (-1, -1, 1, 0, 0, 0, 0, 0))
    assert dynkin_from_fundamental(w) == (0, 0, 1, 0, 0, 0, 0)
    w0 = FundamentalWeight(parse_grading("su(2)"), (0, 0))
    assert dynkin_from_fundamental(w0) == (0,)
    w2 = FundamentalWeight(parse_grading("su(2)"), (2, 1))
    assert dynkin_from_fundamental(w2) == (1,)


def test_dynkin_linearity():
    g = parse_grading("su(2,|4|2)")
    a = FundamentalWeight(g, (1, 2, 3, 4, 5, 6, 7, 8))
    b = FundamentalWeight(g, (-1, 0, 2, 0, 1, 0, 0, 3))
    s = FundamentalWeight(g, tuple(x + y for x, y in zip(a.values, b.values)))
    da, db, ds = map(dynkin_from_fundamental, (a, b, s))
    assert ds == tuple(x + y for x, y in zip(da, db))


def test_outer_dual_defining_rep():
    g = parse_grading("su(3|2)")
    w = FundamentalWeight(g, (1, 0, 0, 0, 0))
    d = outer_dual(w)
    assert d.values == (-1, 0, 0, 0, 0)
    # p-odd indices flip c
    assert d.grading.blocks() == [(3, 0, 0), (2, 1, 1)]
    assert outer_dual(FundamentalWeight(g, (0,) * 5)).values == (0,) * 5


entry = st.tuples(st.integers(0, 1), st.integers(0, 1))


@given(
    st.lists(entry, min_size=2, max_size=6),
    st.data(),
)
def test_outer_dual_involution(entries, data):
    g = Grading(entries)
    vals = data.draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=len(entries),
            max_size=len(entries),
        )
    )
    w = FundamentalWeight(g, tuple(vals))
    ww = outer_dual(outer_dual(w))
    assert ww.values == w.values and ww.grading == w.grading
