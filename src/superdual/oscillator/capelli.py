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

gamma enters F_gamma only through the annihilator's determinant tail
(gamma - s) d det, so the defect Delta+ Delta - colDet(E + rho) of each
basis state has coefficients in Z[g], g an indeterminate gamma.  The check
runs the basis-state loop once over Z[g] (`_Poly` coefficients, which the
oscillator operators carry unchanged) and evaluates every non-zero defect
coefficient exactly at the caller's gamma; gamma = 0 is the undeformed Fock
block, checked on its own integer coefficients.  Two `lru_cache` memos hold
the gamma-free work, and `inner.clear_caches()` empties both:

- `_identity_defect`, keyed on (P, cutoff, whether the block is deformed):
  the coefficient lists of the defect;
- `_ladder`, keyed on (P, mu, nmax, whether the block is deformed): the
  vectors v, Delta+ v, ..., Delta+^nmax v of `delta_ladder_norms`, prepared
  for `inner_product` with one pair table, which keeps the gamma-free terms
  of each norm, so that a later gamma only evaluates them.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

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
from .inner import inner_product, prepare
from .module import minor_powers
from .states import MAX_BLOCK, combine, scale


def _shape(mu, P: int) -> Partition:
    mu = Partition(mu)
    if mu.height > P:
        raise ValueError("partition taller than the colour count")
    return mu


def _non_negative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, not {value}")


def _block_size(P: int) -> None:
    if not 1 <= P <= MAX_BLOCK:
        raise ValueError(f"P = {P} is outside the supported block sizes 1..{MAX_BLOCK}")


def capelli_norm_factor(mu: Partition, gamma, n: int, P: int) -> Fraction:
    """prod_{i=1}^{P} (mu_i + P - i + gamma + n + 1) with shifted weights:
    the ratio |v_{mu,n+1}|^2 / |v_{mu,n}|^2 for a ladder index n >= 0 on a
    block of 1 <= P <= MAX_BLOCK colours (ValueError otherwise).  With
    gamma = a / b it is prod_i (b (mu_i + P - i + n + 1) + a) / b^P, made
    on integers and returned as one Fraction."""
    _block_size(P)
    _non_negative("n", n)
    mu, gamma = _shape(mu, P), rat(gamma)
    a, b = gamma.numerator, gamma.denominator
    num = 1
    for i, x in enumerate(mu.padded(P), 1):
        num *= b * (x + P - i + n + 1) + a
    return Fraction(num, b ** P)


def block_spec(P: int, gamma) -> OscillatorSpec:
    """A single deformed a-block: q = P flavours over P colours,
    1 <= P <= MAX_BLOCK (ValueError otherwise)."""
    _block_size(P)
    gamma = rat(gamma)
    return OscillatorSpec(
        0, 0, P, P, rat(0), gamma, (), tuple(range(P)), (), ()
    )


# ---------------------------------------------------------------------------
# the identity over Z[g]
# ---------------------------------------------------------------------------

def _coeffs(x) -> tuple:
    """The coefficients of a polynomial or scalar, lowest degree first, with
    no trailing zero."""
    if isinstance(x, _Poly):
        return x.coeffs
    return (x,) if x else ()


class _Poly:
    """A polynomial in g with the arithmetic the oscillator operators apply
    to a coefficient: + and * with scalars and polynomials on either side,
    negation, subtracting from it, and == 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        a = self.coeffs
        if not isinstance(other, _Poly):
            return _Poly([a[0] + other, *a[1:]] if a else [other])
        b = other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        return _Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _Poly([-x for x in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            return _Poly([x * other for x in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs, i):
                out[j] += x * y
        return _Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.coeffs == _coeffs(other)


_G = _Poly([0, 1])  # the indeterminate gamma


@lru_cache(maxsize=None)
def _identity_defect(P: int, cutoff: int, deformed: bool) -> tuple:
    """The coefficient lists (`_coeffs`) of the non-zero terms of
    Delta+ Delta st - colDet(E + rho) st over the basis states st of the
    truncation: over Z[g] on the deformed block, over the integers on the
    undeformed one.  Empty exactly when the identity holds at every gamma."""
    spec = block_spec(P, 0)  # at gamma = 0 Delta acts by plain derivatives
    if deformed:
        spec = replace(spec, gamma_R=_G)
    out = []
    for st in basis_states(spec, cutoff, max_s=1):
        lhs = delta_dagger(spec, "a", delta_lower(spec, "a", {st: 1}))
        rhs = _column_det_action(spec, {st: 1})
        out.extend(map(_coeffs, combine(lhs, scale(rhs, -1)).values()))
    return tuple(out)


def _value(coeffs: tuple, gamma: Fraction):
    out = 0
    for c in reversed(coeffs):
        out = out * gamma + c
    return out


def capelli_identity_check(P: int, gamma, cutoff: int) -> bool:
    """Verify Delta+ Delta = colDet(E + rho) as operators on the truncated basis."""
    gamma = rat(gamma)
    _block_size(P)
    _non_negative("cutoff", cutoff)
    defect = _identity_defect(P, cutoff, gamma != 0)
    return not any(_value(coeffs, gamma) for coeffs in defect)


def _column_det_action(spec: OscillatorSpec, lc):
    """colDet(E_ij + (P - i) delta_ij) acting on lc (1-based i in the formula),
    the columns applied right to left."""
    P = spec.q
    base = spec.p + spec.m  # a-block offset in generator indices

    def entry(row, col, term):
        image = generator_action(spec, base + row, base + col, term)
        return combine(image, scale(term, P - (row + 1))) if row == col else image

    return column_det(P, entry, lc)


# ---------------------------------------------------------------------------
# the norm ladder
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ladder(P: int, mu: tuple, nmax: int, deformed: bool) -> tuple:
    """v, Delta+ v, ..., Delta+^nmax v for v the highest vector of
    V_mu (x) V_mu (the top-left minors), prepared for `inner_product` with
    their chain images, one key table and one pair table, vector k at
    index k.

    Delta+ multiplies t^0 states by det X, so the vectors do not depend on
    gamma; whether the block is deformed decides how `prepare` splits them."""
    spec = block_spec(P, 1 if deformed else 0)
    vec = minor_powers(spec, "a", Partition(mu), {spec.vacuum(): 1})
    canon, pairs = {}, {}
    out = [prepare(spec, vec, canon, pairs)]
    for k in range(1, nmax + 1):
        vec = delta_dagger(spec, "a", vec)
        out.append(prepare(spec, vec, canon, pairs, k))
    return tuple(out)


def delta_ladder_norms(P: int, gamma, mu: Partition, nmax: int):
    """Norm ratios |v_{mu,n+1}|^2 / |v_{mu,n}|^2 via explicit Delta+ powers.

    A null v_{mu,n} (at some negative integers gamma) leaves its ratio
    undefined: ValueError."""
    spec, mu = block_spec(P, gamma), _shape(mu, P)
    _non_negative("nmax", nmax)
    norms = [inner_product(spec, v, v) for v in _ladder(P, mu.parts, nmax, spec.a_deformed)]
    ratios = []
    for n in range(nmax):
        if not norms[n]:
            raise ValueError(
                f"v_{n} is null at gamma = {spec.gamma_R}: "
                f"|v_{n + 1}|^2 / |v_{n}|^2 is undefined"
            )
        ratios.append(norms[n + 1] / norms[n])
    return ratios
