import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superdual.gradings import (
    COMPACT_EVEN,
    FERMIONIC_C_EVEN,
    FERMIONIC_C_ODD,
    NON_COMPACT,
    Grading,
    admits_nontrivial_unitary,
    canonical_form,
    extended_diagram,
    parse_grading,
    render_grading,
    signature,
)


def test_parse_examples():
    g = parse_grading("su(2,2|4)")
    assert g.blocks() == [(2, 0, 0), (2, 0, 1), (4, 1, 1)]
    g2 = parse_grading("su(2,|4|2)")
    assert g2.blocks() == [(2, 0, 0), (4, 1, 1), (2, 0, 1)]
    g3 = parse_grading("su(2)")
    assert g3.entries == ((0, 0), (0, 0))


def test_parse_errors():
    for bad in ("su(2,0|4)", "su()", "su(2,,3)", "su(2,", "sl(2|3)", "su(1)"):
        with pytest.raises(ValueError):
            parse_grading(bad)


def test_render_round_trip():
    for text in ("su(2,2|4)", "su(2,|4|2)", "su(2)", "su(1|1,|2,|1)", "su(1,1,1,1)"):
        assert render_grading(parse_grading(text)) == text


def test_signature_examples():
    assert str(signature(parse_grading("su(2,2|4)"))) == "(2,2|4,0)"
    assert str(signature(parse_grading("su(2,|4|2)"))) == "(2,2|4,0)"
    g = Grading.from_blocks([(3, 0, 0)])
    assert str(signature(g)) == "(3,0|0,0)"


def test_signature_permutation_invariance():
    g = parse_grading("su(1|1,|2,|1)")
    base = signature(g)
    for perm in itertools.permutations(range(len(g))):
        gp = Grading([g.entries[i] for i in perm])
        assert signature(gp) == base


def test_node_kinds_examples():
    assert parse_grading("su(2,2|4)").node_kinds() == (
        COMPACT_EVEN, NON_COMPACT, COMPACT_EVEN, FERMIONIC_C_EVEN,
        COMPACT_EVEN, COMPACT_EVEN, COMPACT_EVEN,
    )
    assert parse_grading("su(1|1,|2,|1)").node_kinds() == (
        FERMIONIC_C_EVEN, FERMIONIC_C_ODD, COMPACT_EVEN, FERMIONIC_C_ODD,
    )
    assert parse_grading("su(1,1,1,1)").node_kinds() == (
        NON_COMPACT, NON_COMPACT, NON_COMPACT,
    )


def test_extended_diagram_parities():
    # su(2,2) with c-flips: 4 c-odd nodes in the extension
    ext = extended_diagram(parse_grading("su(1,1,1,1)"))
    assert ext.c_odd_count() == 4 and ext.p_odd_count() == 0
    ext2 = extended_diagram(parse_grading("su(3|2)"))
    assert ext2.p_odd_count() == 2
    ext3 = extended_diagram(parse_grading("su(2)"))
    assert ext3.wrap_kind == COMPACT_EVEN


def test_extended_parity_exhaustive():
    # every length <= 6 grading has even counts of p-odd and c-odd nodes
    for n in (2, 3, 6):
        for combo in itertools.product([(0, 0), (0, 1), (1, 0), (1, 1)], repeat=n):
            ext = extended_diagram(Grading(combo))
            assert ext.p_odd_count() % 2 == 0
            assert ext.c_odd_count() % 2 == 0


def test_canonical_form_examples():
    g, wit = canonical_form(parse_grading("su(1|1,|2,|1)"))
    assert render_grading(g) == "su(2,1|2)"
    g2, _ = canonical_form(parse_grading("su(1,1,1,1)"))
    assert render_grading(g2) == "su(2,2)"
    g3 = parse_grading("su(2,2|4)")
    can, wit3 = canonical_form(g3)
    assert can == g3 and wit3.perm == tuple(range(8)) and (wit3.p_shift, wit3.c_shift) == (0, 0)


def test_canonical_form_idempotent_and_witness():
    for text in ("su(1|1,|2,|1)", "su(2,|4|2)", "su(1,1,1,1)", "su(3|2)"):
        g = parse_grading(text)
        can, wit = canonical_form(g)
        again, _ = canonical_form(can)
        assert again == can
        # witness transports entries correctly
        shifted = [((p + wit.p_shift) % 2, (c + wit.c_shift) % 2) for (p, c) in g.entries]
        assert tuple(shifted[i] for i in wit.perm) == can.entries


def test_admits_nontrivial_unitary():
    assert not admits_nontrivial_unitary("sl(3,R|2,R)")
    assert not admits_nontrivial_unitary("su(1,1|1,1)")
    assert admits_nontrivial_unitary("su(2,2|4,0)")
    assert not admits_nontrivial_unitary("su*(4|2)")
    assert not admits_nontrivial_unitary("psl'(3|3)")
    assert admits_nontrivial_unitary(signature(parse_grading("su(2,2|4)")))


entry = st.tuples(st.integers(0, 1), st.integers(0, 1))


@given(st.lists(entry, min_size=2, max_size=7))
def test_signature_shift_invariance(entries):
    g = Grading(entries)
    for dp in (0, 1):
        for dc in (0, 1):
            g2 = Grading([((p + dp) % 2, (c + dc) % 2) for (p, c) in entries])
            assert signature(g2) == signature(g)


@given(st.lists(entry, min_size=1, max_size=11))
def test_parse_render_round_trip(entries):
    """Every grading that starts at (0, 0) renders to text that parses back to it."""
    g = Grading([(0, 0)] + entries)
    assert parse_grading(render_grading(g)) == g
