from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdual.oscillator import capelli
from superdual.oscillator.algebra import (
    basis_states,
    column_det,
    delta_dagger,
    delta_lower,
    generator_action,
)
from superdual.oscillator.capelli import (
    block_spec,
    capelli_identity_check,
    capelli_norm_factor,
    delta_ladder_norms,
)
from superdual.oscillator.inner import clear_caches, inner_product
from superdual.oscillator.module import minor_powers
from superdual.oscillator.states import combine, scale
from superdual.partitions import Partition


def test_norm_factor_values():
    g = F(1, 2)
    assert capelli_norm_factor(Partition(), g, 0, 2) == (g + 1) * (g + 2)
    assert capelli_norm_factor(Partition(), F(0), 0, 2) == 2
    assert capelli_norm_factor(Partition((1,)), F(1, 2), 0, 3) == F(135, 8)


@pytest.mark.parametrize("P,gamma", [(2, F(0)), (2, F(1, 2)), (3, F(-1, 3))])
def test_capelli_identity(P, gamma):
    assert capelli_identity_check(P, gamma, cutoff=3 if P == 2 else 2)


def test_norm_ladder_matches_factor():
    for P in (2, 3):
        for gamma in (F(0), F(1, 2), F(-1, 3)):
            for mu in [Partition(()), Partition((1,)), Partition((2, 1))]:
                if mu.height >= P:
                    continue
                got = delta_ladder_norms(P, gamma, mu, 2)
                want = [capelli_norm_factor(mu, gamma, n, P) for n in (0, 1)]
                assert got == want


# -- the gamma-free memos against the direct computation ---------------------
#
# References: the basis-state loop run afresh at each gamma on Fractions, and
# the Delta+ ladder rebuilt and paired at each gamma.

def _direct_identity_check(P, gamma, cutoff):
    spec = block_spec(P, gamma)
    for s in basis_states(spec, cutoff, max_s=1):
        lhs = delta_dagger(spec, "a", delta_lower(spec, "a", {s: 1}))
        rhs = capelli._column_det_action(spec, {s: 1})
        if combine(lhs, scale(rhs, -1)):
            return False
    return True


def _direct_ladder_norms(P, gamma, mu, nmax):
    spec = block_spec(P, gamma)
    v = minor_powers(spec, "a", Partition(mu), {spec.vacuum(): 1})
    ratios, prev = [], inner_product(spec, v, v)
    for _ in range(nmax):
        v = delta_dagger(spec, "a", v)
        nxt = inner_product(spec, v, v)
        ratios.append(nxt / prev)
        prev = nxt
    return ratios


# halves, thirds and integers, 0 and negative values among them
gammas = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def identity_cases(draw):
    P = draw(st.integers(1, 3))
    return P, draw(st.integers(0, 1 if P == 3 else 2))


@settings(max_examples=40, deadline=None)
@given(identity_cases(), gammas)
def test_identity_check_matches_direct_loop(case, gamma):
    P, cutoff = case
    assert capelli_identity_check(P, gamma, cutoff) is _direct_identity_check(P, gamma, cutoff) is True


def _shifted_column_det(shift):
    """`_column_det_action` with shift(spec, i) in place of the diagonal
    shift P - 1 - i of 0-based row i (a block spec has p = m = 0)."""

    def action(spec, lc):
        def entry(row, col, term):
            image = generator_action(spec, row, col, term)
            return combine(image, scale(term, shift(spec, row))) if row == col else image

        return column_det(spec.q, entry, lc)

    return action


WRONG_SHIFTS = {
    "off by one": lambda spec, i: spec.q - i,
    # right exactly at gamma = 1/2; gamma_R is the Z[g] indeterminate inside
    # the memo and a Fraction in the reference
    "2 gamma - 1 on the first entry": lambda spec, i: spec.q - 1 - i + (2 * spec.gamma_R - 1 if i == 0 else 0),
}


@settings(max_examples=12, deadline=None)
@given(identity_cases(), st.sampled_from(sorted(WRONG_SHIFTS)), st.lists(gammas, min_size=1, max_size=4))
def test_identity_check_evaluates_a_wrong_operator_at_each_gamma(case, name, gamma_list):
    P, cutoff = case
    clear_caches()
    try:
        with patch.object(capelli, "_column_det_action", _shifted_column_det(WRONG_SHIFTS[name])):
            for gamma in [F(1, 2), *gamma_list]:
                got = capelli_identity_check(P, gamma, cutoff)
                assert got is _direct_identity_check(P, gamma, cutoff), gamma
                if gamma and cutoff:  # the undeformed block or the vacuum alone may not show it
                    assert got is (name != "off by one" and gamma == F(1, 2)), gamma
    finally:
        clear_caches()


@st.composite
def ladder_cases(draw):
    P = draw(st.integers(1, 3))
    parts = draw(st.lists(st.integers(0, 2), max_size=P))
    return P, tuple(sorted(parts, reverse=True)), draw(st.integers(0, 3))


@settings(max_examples=30, deadline=None)
@given(ladder_cases(), gammas)
def test_ladder_norms_match_direct_ladder(case, gamma):
    P, mu, nmax = case
    try:
        want = _direct_ladder_norms(P, gamma, mu, nmax)
    except ZeroDivisionError:  # a null ladder vector at a negative integer gamma
        with pytest.raises(ValueError, match=f"is null at gamma = {gamma}"):
            delta_ladder_norms(P, gamma, mu, nmax)
        return
    got = delta_ladder_norms(P, gamma, mu, nmax)
    assert got == want and all(type(r) is F for r in got)


def test_bad_arguments_are_refused_before_any_memo_lookup():
    def infos():
        return capelli._identity_defect.cache_info(), capelli._ladder.cache_info()

    before = infos()
    with pytest.raises(ValueError, match="partition taller than the colour count"):
        delta_ladder_norms(2, F(1, 2), (1, 1, 1), 2)
    with pytest.raises(ValueError, match="nmax"):
        delta_ladder_norms(2, F(1, 2), (1,), -1)
    with pytest.raises(ValueError, match="cutoff"):
        capelli_identity_check(2, F(1, 2), -1)
    with pytest.raises(ValueError, match="P = -1 is outside"):
        capelli_identity_check(-1, F(1, 2), 1)
    with pytest.raises(ValueError, match="P = 0 is outside"):
        delta_ladder_norms(0, F(1, 2), (), 1)
    assert infos() == before


def test_negative_ladder_index_is_refused():
    # prod_i (mu_i + P - i + gamma + n + 1) at n = -1 would read 5/4 here
    with pytest.raises(ValueError, match="n must be >= 0, not -1"):
        capelli_norm_factor(Partition((1,)), F(1, 2), -1, 2)


@pytest.mark.parametrize("P", [0, -1, 9])
def test_block_size_outside_one_to_max_block_is_refused(P):
    # P = 0 would give the empty product 1, and P = -1 a message about
    # "permutations of 0"
    with pytest.raises(ValueError, match=f"P = {P} is outside the supported block sizes 1..8"):
        capelli_norm_factor(Partition(()), F(1, 2), 0, P)
    with pytest.raises(ValueError, match=f"P = {P} is outside"):
        block_spec(P, F(1, 2))


@pytest.mark.parametrize("gamma,nmax", [(-1, 2), (-2, 3)])
def test_null_ladder_vector_is_refused(gamma, nmax):
    # |v_1|^2 = (gamma + 1)(gamma + 2) = 0, so |v_2|^2 / |v_1|^2 is undefined
    assert delta_ladder_norms(2, gamma, (), 1) == [0]
    with pytest.raises(ValueError, match=rf"v_1 is null at gamma = {gamma}"):
        delta_ladder_norms(2, gamma, (), nmax)
