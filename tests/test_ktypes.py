"""Kostka numbers, Weyl dimensions and the K-type inversion of `ktypes`."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from superdual.ktypes import (
    highest_weight_counts,
    is_dominant,
    k_blocks,
    kostka,
    multiplicity,
    weyl_dimension,
)


def _ssyt_count(lam, mu):
    """The semistandard tableaux of shape lam (a partition) and content mu,
    counted by filling every cell with 1..n: rows weakly increase, columns
    strictly increase, and value i occurs mu_i times."""
    n = len(mu)
    cells = [(r, c) for r, row in enumerate(lam) for c in range(row)]
    count = 0
    for fill in product(range(n), repeat=len(cells)):
        t = dict(zip(cells, fill))
        if any(fill.count(i) != mu[i] for i in range(n)):
            continue
        if all((c == 0 or t[r, c - 1] <= v) and (r == 0 or t[r - 1, c] < v)
               for (r, c), v in t.items()):
            count += 1
    return count


def _compositions(total, n):
    """Every mu of n non-negative entries summing to total."""
    return [mu for mu in product(range(total + 1), repeat=n) if sum(mu) == total]


@st.composite
def shapes(draw, max_size=6):
    """(n, lam) with n <= 4 and lam a partition of at most n rows, |lam| <= max_size."""
    n = draw(st.integers(1, 4))
    parts = draw(st.lists(st.integers(0, max_size), min_size=n, max_size=n))
    lam = tuple(sorted(parts, reverse=True))
    while sum(lam) > max_size:
        lam = tuple(max(x - 1, 0) for x in lam)
    return n, lam


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), data=st.data(), shift=st.integers(-3, 3))
def test_kostka_counts_semistandard_tableaux(shape, data, shift):
    """K_{lam mu} is the tableau count, for any common shift of lam and mu."""
    n, lam = shape
    mu = data.draw(st.sampled_from(_compositions(sum(lam), n)))
    want = _ssyt_count(lam, mu)
    assert kostka(lam, mu) == want
    assert kostka([x + shift for x in lam], [x + shift for x in mu]) == want


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), data=st.data())
def test_kostka_is_symmetric_in_mu(shape, data):
    n, lam = shape
    mu = data.draw(st.sampled_from(_compositions(sum(lam), n)))
    perm = data.draw(st.permutations(mu))
    assert kostka(lam, perm) == kostka(lam, mu)


@settings(max_examples=40, deadline=None)
@given(shape=shapes())
def test_weight_multiplicities_add_up_to_the_weyl_dimension(shape):
    n, lam = shape
    assert sum(kostka(lam, mu) for mu in _compositions(sum(lam), n)) == weyl_dimension(lam)


def test_weyl_dimension_and_kostka_values():
    assert [weyl_dimension(lam) for lam in ((), (1,), (1, 0), (2, 0), (1, 1, 0), (2, 1, 0))] \
        == [1, 1, 2, 3, 3, 8]
    assert weyl_dimension((1, 0, -1)) == 8  # the adjoint of gl(3), shifted
    assert kostka((2, 1, 0), (1, 1, 1)) == 2 and kostka((2, 1, 0), (2, 1, 0)) == 1
    assert kostka((2, 1, 0), (3, 0, 0)) == 0 and kostka((1, 0), (1, 1)) == 0
    assert kostka((), ()) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_k_type_inversion_recovers_the_k_types(data):
    """A random K-character of gl(p) + gl(m) + gl(q) (blocks of size <= 2,
    one of 3), given by its multiplicities on the dominant weights, gives back
    its K-types."""
    p, m, q = data.draw(st.sampled_from(((1, 1, 1), (2, 0, 2), (2, 1, 1), (0, 3, 1), (2, 2, 1))))
    blocks = k_blocks(p, m, q)
    entries = st.integers(-2, 2)
    types = {}
    for _ in range(data.draw(st.integers(1, 4))):
        nu = tuple(data.draw(entries) for _ in range(p + m + q))
        nu = sum((tuple(sorted(nu[blk], reverse=True)) for blk in blocks), ())
        types[nu] = types.get(nu, 0) + data.draw(st.integers(1, 3))
    assert all(is_dominant(blocks, nu) for nu in types)

    def block_weights(nu_b):
        # the integer vectors between nu_b's extremes with its sum: every
        # weight of the gl(n) module, and others of multiplicity 0
        lo = min(nu_b, default=0)
        return [mu for mu in product(range(lo, max(nu_b, default=0) + 1), repeat=len(nu_b))
                if sum(mu) == sum(nu_b)]

    counts = {}
    for nu, h in types.items():
        for w in product(*(block_weights(nu[blk]) for blk in blocks)):
            w = sum(w, ())
            mult = multiplicity(blocks, nu, w)
            if mult and is_dominant(blocks, w):
                counts[w] = counts.get(w, 0) + mult * h
    got = highest_weight_counts(blocks, counts)
    assert {nu: h for nu, h in got.items() if h} == types
