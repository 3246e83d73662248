"""Capelli identity and norm ladder on a single deformed block.

On F_gamma with P colours the column-ordered determinant identity

    Delta+ Delta = det(E_ij + (P - i) delta_ij),   det M = eps_{i...} M_{i1 1} ... M_{iP P}

holds exactly; evaluating it on the mu-sector of the t^n subspace gives the
norm recursion |v_{mu,n+1}|^2 = prod_i (mu_i + P - i + gamma + n + 1) |v_{mu,n}|^2.

`capelli_identity_check` tests the identity by brute force on every basis
state of a truncation; it assumes no K-equivariance.  Both determinants are
`algebra.column_det`, a recursion over the subsets of rows used so far:
P 2^(P-1) operator applications instead of P P! (12 instead of 18 at P = 3),
with the terms that cancel merged after each column.
"""

from __future__ import annotations

from fractions import Fraction

from ..partitions import Partition
from ..rationals import rat
from .algebra import (
    OscillatorSpec,
    basis_states,
    column_det,
    delta_dagger,
    delta_lower,
    generator_action,
)
from .inner import inner_product
from .module import minor_powers
from .states import combine, scale


def capelli_norm_factor(mu: Partition, gamma, n: int, P: int) -> Fraction:
    """prod_{i=1}^{P} (mu_i + P - i + gamma + n + 1) with shifted weights."""
    mu, gamma = Partition(mu), rat(gamma)
    if mu.height > P:
        raise ValueError("partition taller than the colour count")
    out = Fraction(1)
    for i in range(1, P + 1):
        out *= mu.part(i) + P - i + gamma + n + 1
    return out


def block_spec(P: int, gamma) -> OscillatorSpec:
    """A single deformed a-block: q = P flavours over P colours."""
    gamma = rat(gamma)
    return OscillatorSpec(
        0, 0, P, P, rat(0), gamma, (), tuple(range(P)), (), ()
    )


def capelli_identity_check(P: int, gamma, cutoff: int) -> bool:
    """Verify Delta+ Delta = colDet(E + rho) as operators on the truncated basis."""
    spec = block_spec(P, gamma)  # at gamma = 0 Delta acts by plain derivatives
    basis = basis_states(spec, cutoff, max_s=1)
    for st in basis:
        lhs = delta_dagger(spec, "a", delta_lower(spec, "a", {st: 1}))
        rhs = _column_det_action(spec, {st: 1})
        if combine(lhs, scale(rhs, -1)):
            return False
    return True


def _column_det_action(spec: OscillatorSpec, lc):
    """colDet(E_ij + (P - i) delta_ij) acting on lc (1-based i in the formula),
    the columns applied right to left."""
    P = spec.q
    base = spec.p + spec.m  # a-block offset in generator indices

    def entry(row, col, term):
        image = generator_action(spec, base + row, base + col, term)
        return combine(image, scale(term, P - (row + 1))) if row == col else image

    return column_det(P, entry, lc)


def delta_ladder_norms(P: int, gamma, mu: Partition, nmax: int):
    """Norm ratios |v_{mu,n+1}|^2 / |v_{mu,n}|^2 via explicit Delta+ powers."""
    spec = block_spec(P, gamma)
    mu = Partition(mu)
    # highest vector of V_mu (x) V_mu: top-left minors
    v = minor_powers(spec, "a", mu, {spec.vacuum(): 1})
    ratios = []
    prev = inner_product(spec, v, v)
    cur = v
    for n in range(nmax):
        cur = delta_dagger(spec, "a", cur)
        nxt = inner_product(spec, cur, cur)
        ratios.append(nxt / prev)
        prev = nxt
    return ratios
