"""Monomial states of the (deformed) Fock modules and exact linear combinations.

A state is a monomial in the bosonic variables x[alpha][A] (a-oscillators),
y[adot][A] (b-oscillators), the fermionic theta bits, and nonnegative powers
sL, sR of the inverse determinant variables of the deformed blocks.  The
deformed block over a square colour set realises F_gamma = C[X] (x) C[t,t^-1]
modulo (det X - t); positive t powers are expanded into determinant
polynomials and the canonical form forbids a full block diagonal alongside a
positive s power, via

    x^diag s^k  =  x^0 s^(k-1) - sum_{sigma != id} sgn(sigma) x^(e_sigma) s^k.

det X - t is the only relation, so this rewriting is a Groebner normal form:
exact, with integer coefficients, and the same for every gamma.  The normal
form of each block (matrix, s power, colours) with a full diagonal and a
positive s power is computed once per process: `_normal_form` is an
`lru_cache` shared by every gamma and emptied by `inner.clear_caches()`.
`reduce_state` returns integer coefficients that the callers multiply into
their coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# Largest n for which PERMS enumerates the n! permutations, and the largest
# determinant that `algebra.column_det` expands (ValueError beyond it).  It
# bounds every determinant the oscillator expands: the deformed-block size,
# the Capelli colour count P and the size of a U_0 minor.
MAX_BLOCK = 8

# Largest colour count P and U_0 degree (the number of oscillators in the
# K-highest vector of U_0: |mu_L| + |tau| + m |F_Delta| + |mu_R|) that
# `OscillatorSpec.from_diagram` accepts.  A state holds P exponents per boson
# flavour, and U_0 applies one creation per unit of degree, so both bound the
# oracle's memory and time before any state is built.
MAX_COLOURS = 32
MAX_U0_DEGREE = 32

# Largest PBW walk that `module.pbw_family` makes: it refuses more monomials
# of length <= cutoff (every weight counted, a closed form taken before any
# vector is built) and stops once it has built more vectors (those of the
# K-dominant charges, their suffixes and the K-basis of U_0).  On su(2,2|4)
# depth 6 walks 87,374 monomials and builds 42,449 vectors; depth 7 has
# 238,710 monomials.
MAX_PBW_FAMILY = 200_000

# Most vectors that the Gram oracle's process-wide table of gamma-free
# modules (`module.fock_module`: u_0 and the prepared K-dominant PBW slices)
# holds at once.  The oldest module goes first, and a module larger than the
# bound is used by its call and not kept.  It also gates a module's pair
# table (`inner`): a module whose Gram entries, 1 + sum d(d + 1)/2 over its
# slices of d vectors, exceed it keeps no pairing terms.
MAX_HELD_VECTORS = 20_000


class _PermTable(dict):
    """n -> [(perm, sign)] over the permutations of range(n), built on first use.

    Lookups after the first are plain dict hits; sizes outside 1..MAX_BLOCK
    raise ValueError instead of enumerating n! permutations.
    """

    def __missing__(self, n):
        if not 1 <= n <= MAX_BLOCK:
            raise ValueError(
                f"permutations of {n} are outside the supported sizes 1..{MAX_BLOCK}"
            )
        table = self[n] = [(p, _perm_sign(p)) for p in permutations(range(n))]
        return table


PERMS = _PermTable()


class State(NamedTuple):
    a: tuple  # q rows x P colours of exponents
    b: tuple  # p rows x P colours
    f: int  # bitmask, bit = flavour * P + colour
    sL: int
    sR: int


_make_state = State._make


def set_field(state: State, field: int, value) -> State:
    """state with its field number `field` set to value (a positional
    `_replace`, without the keyword lookups)."""
    fields = list(state)
    fields[field] = value
    return _make_state(fields)


def zero_state(p: int, m: int, q: int, P: int) -> State:
    return State(
        tuple((0,) * P for _ in range(q)),
        tuple((0,) * P for _ in range(p)),
        0,
        0,
        0,
    )


# LinComb: dict[State, int | Fraction]; a coefficient stays an int until a
# Fraction (a gamma tail, a division) enters it.  All helpers below are
# non-mutating unless named *_into.

def add_into(acc: dict, state: State, coeff: int | Fraction):
    cur = acc.get(state)
    new = coeff if cur is None else cur + coeff
    if new == 0:
        acc.pop(state, None)
    else:
        acc[state] = new


def combine(*terms) -> dict:
    acc = {}
    for t in terms:
        for s, c in t.items():
            add_into(acc, s, c)
    return acc


def scale(lc: dict, factor: int | Fraction) -> dict:
    if factor == 0:
        return {}
    return {s: c * factor for s, c in lc.items()}


def _bump(mat, row, col, delta):
    r = list(mat[row])
    r[col] += delta
    out = list(mat)
    out[row] = tuple(r)
    return tuple(out)


def _perm_bump(mat, cols, perm, skip=None):
    """mat plus one at (i, cols[perm[i]]) for every block row i except skip:
    one term of a determinant over the block's colours."""
    out = list(mat)
    for i, k in enumerate(perm):
        if i != skip:
            row = list(out[i])
            row[cols[k]] += 1
            out[i] = tuple(row)
    return tuple(out)


def _reduce_block(mat, s, cols):
    """Normal form of one deformed block modulo det X - t, as a tuple of
    (mat', s', integer coefficient)."""
    n = len(cols)
    if s == 0 or n == 0 or any(mat[i][cols[i]] == 0 for i in range(n)):
        return ((mat, s, 1),)
    return _normal_form(mat, s, cols)


@lru_cache(maxsize=None)
def _normal_form(mat, s, cols):
    """`_reduce_block` of a block with a full diagonal and s > 0: one
    diagonal stripped by the relation in the module docstring."""
    n = len(cols)
    stripped = mat
    for i in range(n):
        stripped = _bump(stripped, i, cols[i], -1)
    merged = {}
    for mat2, s2, c2 in _reduce_block(stripped, s - 1, cols):
        merged[mat2, s2] = c2
    for perm, sign in PERMS[n][1:]:  # the identity comes first
        for mat2, s2, c2 in _reduce_block(_perm_bump(stripped, cols, perm), s, cols):
            merged[mat2, s2] = merged.get((mat2, s2), 0) - sign * c2
    return tuple((mm, ss, cc) for (mm, ss), cc in merged.items() if cc)


def reduce_state(state: State, a_cols, b_cols) -> dict:
    """Normal form of a monomial given the deformed-block colour tuples:
    {State: int}, which callers fold into their coefficients."""
    return {
        State(amat, bmat, state.f, sL, sR): ca * cb
        for amat, sR, ca in _reduce_block(state.a, state.sR, a_cols)
        for bmat, sL, cb in _reduce_block(state.b, state.sL, b_cols)
    }
