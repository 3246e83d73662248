"""K-types of K = s(u(p) + u(m) + u(q)): dominance, weight multiplicities
(Kostka numbers) and dimensions (Weyl's formula), block by block.

A weight is a tuple of integers in su(p,|m|q) index order, cut into the
blocks of `k_blocks`.  It is K-dominant when it weakly decreases within
every block; it is then the highest weight nu of one irreducible K-module
V_nu, of dimension `dimension(blocks, nu)`, in which a weight w occurs
`multiplicity(blocks, nu, w)` = prod_B K_{nu_B, w_B} times.  The central
condition of s(...) shifts weights without changing either number.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod


def k_blocks(p: int, m: int, q: int) -> tuple:
    """The index ranges of the gl(p), gl(m) and gl(q) blocks, as slices."""
    return slice(0, p), slice(p, p + m), slice(p + m, p + m + q)


def is_dominant(blocks, w) -> bool:
    """w weakly decreases within every block."""
    return all(a >= b for blk in blocks for a, b in zip(w[blk], w[blk][1:]))


def kostka(lam, mu) -> int:
    """K_{lam mu}: the multiplicity of the weight mu in the gl(n) module of
    highest weight lam (integers, lam weakly decreasing).  It counts the
    Gelfand-Tsetlin patterns with top row lam and row sums read off mu, that
    is the semistandard tableaux of shape lam and content mu once both are
    shifted to non-negative entries."""
    lam, mu = tuple(lam), tuple(mu)
    if not lam:
        return 1
    low = lam[-1]
    return _kostka(tuple(x - low for x in lam), tuple(x - low for x in mu))


@lru_cache(maxsize=4096)  # Yang-Mills at depth 5 asks for 536 distinct values
def _kostka(lam, mu):
    """kostka on weights shifted so that lam ends in 0: the patterns whose
    second row rho interlaces lam (lam_i >= rho_i >= lam_(i+1)) with
    |rho| = |lam| - mu_n, each counted with rho's own patterns."""
    if len(lam) == 1:
        return int(lam == mu)
    rest = sum(lam) - mu[-1]
    return sum(
        _kostka(rho, mu[:-1])
        for rho in product(*(range(b, a + 1) for a, b in zip(lam, lam[1:])))
        if sum(rho) == rest
    )


def weyl_dimension(lam) -> int:
    """dim of the gl(n) module of highest weight lam:
    prod_(i<j) (lam_i - lam_j + j - i) / (j - i)."""
    n = len(lam)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return prod(lam[i] - lam[j] + j - i for i, j in pairs) // prod(j - i for i, j in pairs)


def dimension(blocks, nu) -> int:
    """dim V_nu of the K-type of highest weight nu."""
    return prod(weyl_dimension(nu[blk]) for blk in blocks)


def multiplicity(blocks, nu, w) -> int:
    """The multiplicity of the weight w in V_nu: one Kostka number per block."""
    return prod(kostka(nu[blk], w[blk]) for blk in blocks)


def highest_weight_counts(blocks, counts) -> dict:
    """{nu: h(nu)} with counts[w] = sum_nu multiplicity(nu, w) h(nu) for
    every w in counts, given a K-character by its multiplicities on the
    K-dominant weights: the multiplicity of each K-type.

    The weights are solved in descending lexicographic order, a linear
    extension of dominance within blocks, so h(nu) = counts[nu] minus what
    the K-types already found contribute at nu; only K-types with nu's block
    sums can.  A negative h(nu) means that counts is not the character of a
    K-module."""
    h = {}
    found = {}  # block sums -> [(nu, h(nu))] with h(nu) != 0
    for nu in sorted(counts, reverse=True):
        same = found.setdefault(tuple(sum(nu[blk]) for blk in blocks), [])
        h[nu] = counts[nu] - sum(multiplicity(blocks, hi, nu) * n for hi, n in same)
        if h[nu]:
            same.append((nu, h[nu]))
    return h
