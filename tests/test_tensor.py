from collections import Counter
from fractions import Fraction as F
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdual.ktypes import dimension, k_blocks
from superdual.labels import RepLabel
from superdual.oscillator import tensor
from superdual.oscillator.algebra import generator_action
from superdual.oscillator.module import k_lowering_generators
from superdual.oscillator.states import add_into, combine
from superdual.oscillator.tensor import k_hws_in_span, tensor_decompose
from superdual.tables import doubleton, label_2244, tensor_table_rows


def decomp(f2, f1):
    return sorted(label_2244(l) for l in tensor_decompose(f2, f1))


def test_table2_rows():
    vac = doubleton("vac")
    assert decomp(vac, vac) == ["[0,000,0;2,0]"]
    assert decomp(vac, doubleton("f")) == ["[0,100,0;1,0]"]
    assert decomp(vac, doubleton("ff")) == ["[0,110,0;1,0]"]
    assert decomp(vac, doubleton("fff")) == ["[0,111,0;1,0]"]
    assert decomp(vac, doubleton("am", 2)) == ["[0,000,2;1,1]"]
    assert decomp(vac, doubleton("bn", 2)) == ["[2,000,0;2,0]"]


def test_table3_rows():
    f = doubleton("f")
    assert decomp(f, doubleton("vac")) == ["[0,100,0;1,0]"]
    assert decomp(f, doubleton("f")) == ["[0,110,0;1,0]", "[0,200,0;0,0]"]
    assert decomp(f, doubleton("ff")) == ["[0,111,0;1,0]", "[0,210,0;0,0]"]
    assert decomp(f, doubleton("fff")) == ["[0,000,0;1,1]", "[0,211,0;0,0]"]
    assert decomp(f, doubleton("am", 3)) == ["[0,100,3;0,1]"]
    assert decomp(f, doubleton("bn", 3)) == ["[3,100,0;1,0]"]


def test_table4_and_5_spot_rows():
    ff = doubleton("ff")
    # the (2,1,1) component carries beta_L = P - lambda_1 = 0 (cf. table 3)
    assert decomp(ff, doubleton("ff")) == [
        "[0,000,0;1,1]", "[0,211,0;0,0]", "[0,220,0;0,0]",
    ]
    fff = doubleton("fff")
    # N_f = 4 forces the second component to [0,000,0;1,1] (as in table 3:
    # a [0,110,0;0,1] here would need |lambda| = 6 fermions out of 4)
    assert decomp(fff, doubleton("f")) == ["[0,000,0;1,1]", "[0,211,0;0,0]"]
    assert decomp(fff, doubleton("fff")) == ["[0,110,0;0,1]", "[0,222,0;0,0]"]
    assert decomp(fff, doubleton("ff")) == ["[0,100,0;0,1]", "[0,221,0;0,0]"]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
def test_table6_telescoping(m, n):
    got = decomp(doubleton("am", m), doubleton("am", n))
    want = sorted(f"[0,000,{m + n - 2 * j};0,{2 + j}]" for j in range(n + 1))
    assert got == want
    # the mixed rows
    assert decomp(doubleton("am", m), doubleton("bn", n)) == [f"[{n},000,{m};1,1]"]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
def test_table7_telescoping(m, n):
    got = decomp(doubleton("bn", m), doubleton("bn", n))
    want = sorted(f"[{m + n - 2 * j},000,0;{2 + j},0]" for j in range(n + 1))
    assert got == want


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2)])
def test_tensor_decomposition_is_complete(m, n):
    """Every row of tables 2..7: the K-types of the K-highest vectors that
    `k_hws_in_span` finds fill U_0 (x) U_0, sum dim V_nu = len(basis1) *
    len(basis2)."""
    bases, totals = [], []
    real_basis, real_hws = tensor.u0_k_basis, tensor.k_hws_in_span

    def basis_spy(spec, u0):
        basis = real_basis(spec, u0)
        bases.append(len(basis))
        return basis

    def hws_spy(spec, vectors):
        found = real_hws(spec, vectors)
        blocks = k_blocks(spec.p, spec.m, spec.q)
        totals.append(sum(dimension(blocks, spec.state_charge(next(iter(vec))))
                          for _w, vec in found))
        return found

    with mock.patch.object(tensor, "u0_k_basis", basis_spy), \
            mock.patch.object(tensor, "k_hws_in_span", hws_spy):
        for table in range(2, 8):
            tensor_table_rows(table, m, n)
    assert len(totals) == 36
    assert totals == [x * y for x, y in zip(bases[::2], bases[1::2])]


def test_verify_hws_checks_every_k_highest_vector():
    """`tensor_decompose` reads each label from `verify_hws`, which checks
    every E_ij, i < j, on each K-highest vector that `k_hws_in_span` finds:
    48 + 50 + 50 of them over the rows of tables 2..7 at (m, n) = (2, 1),
    (3, 2) and (2, 2)."""
    found, checked = [], []
    real_hws, real_verify = tensor.k_hws_in_span, tensor.verify_hws

    def hws_spy(spec, vectors):
        got = real_hws(spec, vectors)
        found.extend(vec for _w, vec in got)
        return got

    def verify_spy(spec, v):
        rep = real_verify(spec, v)
        checked.append((v, rep.raised_to_zero))
        return rep

    with mock.patch.object(tensor, "k_hws_in_span", hws_spy), \
            mock.patch.object(tensor, "verify_hws", verify_spy):
        for m, n in ((2, 1), (3, 2), (2, 2)):
            for table in range(2, 8):
                tensor_table_rows(table, m, n)
    assert len(found) == 148
    assert checked == [(vec, True) for vec in found]


def test_deformed_factor_rejected():
    gam = F(-1, 2)
    from superdual.diagrams import realize

    cont = realize(RepLabel(2, 2, 4, (), (), (), 2 + gam, 2 + gam))
    with pytest.raises(ValueError):
        tensor_decompose(cont, doubleton("vac"))


@cache
def _table23_products():
    """(spec, product vectors) that `tensor_decompose` hands to `k_hws_in_span`,
    one entry per row of tables 2 and 3."""
    captured = []
    real = tensor.k_hws_in_span

    def spy(spec, vectors):
        captured.append((spec, list(vectors)))
        return real(spec, vectors)

    with mock.patch.object(tensor, "k_hws_in_span", spy):
        for kind2 in ("vac", "f"):
            for kind1, n in (("vac", 0), ("f", 0), ("ff", 0), ("fff", 0), ("am", 2), ("bn", 2)):
                tensor_decompose(doubleton(kind2), doubleton(kind1, n))
    return captured


def _weight(spec, vec):
    return {spec.state_weight(s) for s in vec}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_k_hws_in_span_ignores_order_duplicates_and_recombinations(data):
    spec, products = data.draw(st.sampled_from(_table23_products()))
    plain = Counter(w for w, _ in k_hws_in_span(spec, products))
    vectors = products + data.draw(st.lists(st.sampled_from(products), max_size=4))
    by_weight = {}
    for v in products:
        by_weight.setdefault(_weight(spec, v).pop(), []).append(v)
    groups = sorted(by_weight.values(), key=len)
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    for group in data.draw(st.lists(st.sampled_from(groups), max_size=4)):
        mix, n = {}, len(group)
        for v, c in zip(group, data.draw(st.lists(coeff, min_size=n, max_size=n))):
            for s, x in v.items():
                add_into(mix, s, c * x)
        vectors.append(mix)  # may cancel to the zero vector
    got = k_hws_in_span(spec, data.draw(st.permutations(vectors)))
    for weight, vec in got:
        assert vec and _weight(spec, vec) == {weight}
        for i, j in k_lowering_generators(spec):
            assert not generator_action(spec, j, i, vec)
    assert Counter(w for w, _ in got) == plain


def test_k_hws_in_span_rejects_mixed_weights():
    spec, products = _table23_products()[1]  # vac x f
    mixed = combine(products[0], products[-1])
    assert len(_weight(spec, mixed)) == 2
    with pytest.raises(AssertionError):
        k_hws_in_span(spec, [mixed])
