"""Exact Hermitian form on the polynomial (t^0) sector.

The form factorises over the oscillator families.  Plain Fock factors pair
monomials diagonally with factorials; fermions pair canonical monomials with
delta.  On a deformed square block the unique form making a and a+ adjoint
restricts to each GL x GL component V_mu (x) V_mu of C[X] as the Fock form
rescaled by

    c_mu(gamma) = prod_{(i,j) in mu} (gamma + n - i + j) / (n - i + j),

n being the block size: the Faraut-Koranyi weights of the holomorphic
discrete series.  The components are Fock-orthogonal (L_ij^+ = L_ji), so
an operator that acts on each by a scalar pairs as those scalars do.  At an
integer gamma = k the form is the Fock form after k
multiplications by det X, <det^k u, det^k v>_Fock = <A_k u, v>_Fock with
A_k = Delta^k det^k, and A_k acts on V_mu (x) V_mu by

    a_mu(k) = prod_i (mu_i + n - i + 1)_k,   so c_mu(k) = a_mu(k) / a_0(k).

By the Capelli identity (Howe-Umeda) A_k = C(k) A_{k-1} with the central
C(s) = colDet(L_ij + (n - 1 - i + s) delta_ij), 0-based i, which acts on
V_mu (x) V_mu by prod_i (mu_i + n - i + s); one step is one
`algebra.column_det` over `_L_apply` (`_capelli_apply`).

Every component mu of a bi-charge slice of degree d dominates both margins,
so mu_1 >= m_1, their largest entry, and c_mu(gamma) / c_(m_1)(gamma) is a
polynomial in gamma of degree <= e = d - m_1.  Interpolated at gamma = 0..e,

    c_mu(gamma) = sum_{k=0}^{e} w_k(gamma) a_mu(k),
    w_k(gamma) = c_(m_1)(gamma) L_k(gamma) / a_(m_1)(k),

L_k the Lagrange basis on the nodes 0..e, so <u, v>_gamma is
sum_k w_k <A_k u, v>_Fock.  With mu0 the lexicographically larger sorted
margin (mu0_1 = m_1, so the sum also gives c_mu0) and the gamma-free tail
R_k = A_k u - a_mu0(k) u,

    <u, v>_gamma = c_mu0(gamma) <u, v>_Fock + sum_{k=1}^{e} w_k <R_k, v>_Fock.

The tail is empty when u lies in V_mu0 (x) V_mu0, as a highest vector on its
own slice does, and then u is paired once.  A slice with e = 0, such as
every slice of degree 0 or of a size-1 block, has the one component (d):
c_(d)(gamma) times the Fock pairing, with no C(s) applied.

Vectors are paired on integers.  `prepare` splits a vector once into plain
rest keys and deformed blocks grouped by slice, holding its coordinates as
integers over one denominator, the lcm of its coefficients' denominators.
A prepared vector also holds, per slice, its chain images u, R_1, ..., R_e
Fock-weighted (each monomial's coefficient times its Fock norm), built once
when it is prepared; on two deformed blocks, each b monomial's images are
held indexed by target b2 -> (w_0, ..., w_e).  A held vector of a Gram
module (`module.FockModule`) or a Capelli ladder (`capelli._ladder`) thus
meets the chain and the factorials once.  The weights of a slice depend on
its margins only through mu0, and on gamma; nothing else in the form does.
So `inner_product` pairs in two steps:

- `_pair_terms`, gamma-free: per mu0 (on two blocks per pair of them) the
  integers <R_k u, v>_Fock, each one sparse integer dot product (`_dot`),
  times the Fock factors of the plain rests;
- `_evaluate`, per gamma: those integers dotted with the weights'
  numerators, summed on integers over the lcm of the weights'
  denominators, and one Fraction over that and the two vectors'
  denominators.

A held family prepares its vectors with one pair table, next to its canon,
and each vector carries the table and its index in the family.  When both
vectors of a pairing carry the same table, their terms are kept in it under
(index u, index v), so a later pairing of the two, at any gamma, evaluates
the kept terms and makes no dot product.  The table holds gamma-free
integers only, and `module.fock_module` gives a module one only when its
Gram entries, 1 + sum d(d + 1)/2 over its slices of d vectors, fit
`states.MAX_HELD_VECTORS`; a larger module pairs without one.  A pairing
with an empty vector, such as a vanishing PBW monomial, is 0 before any
table or memo is looked up.

The memos are `lru_cache` functions on exact keys:

- gamma-free: the integer tail R_1, ..., R_e of each vector (`_chain_tail`,
  keyed on n, the margins and the vector's integer coordinates), which
  serves `prepare`, so that equal coordinates, at any gamma, meet the chain
  once;
- per gamma: the weights c_mu0, w_1, ..., w_e (`_chain_weights`), held as
  integer numerators over one denominator and keyed on n, gamma's
  numerator and denominator and mu0, so a lookup hashes no Fraction.

`clear_caches()` empties every memo of the oscillator: the two above, the
normal forms modulo det X - t (`states._normal_form`), the Kostka numbers
(`ktypes._kostka`), the Capelli checks' gamma-free identity defects and
ladder vectors with their pair table (`capelli._identity_defect`,
`capelli._ladder`) and the table of gamma-free modules with their pair
tables (`module._MODULES`).  Each but the last reports its size, hits and
misses through `cache_info()`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import NamedTuple

from ..ktypes import _kostka
from ..partitions import Partition
from .algebra import column_det
from .states import _normal_form


def c_mu(mu: Partition, gamma: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for (i, j) in mu.cells():
        out *= Fraction(gamma + n - i + j, 1) / (n - i + j)
    return out


def _ladder_value(mu: tuple, k: int) -> int:
    """a_mu(k) = prod_i (mu_i + n - i + 1)_k, mu padded to the block size n:
    the eigenvalue of A_k = Delta^k det^k on V_mu (x) V_mu."""
    n, out = len(mu), 1
    for s in range(1, k + 1):
        for i, x in enumerate(mu, 1):
            out *= x + n - i + s
    return out


# -- the Capelli chain and the Fock form on monomial dicts ------------------

def _L_apply(lc: dict, i: int, j: int, n: int) -> dict:
    """L_ij = sum_A x_iA d/dx_jA on a dict of monomial matrices.

    L_ii scales each monomial by its row-i degree; otherwise each target
    rebuilds only rows i and j."""
    out = {}
    for mat, coef in lc.items():
        if i == j:
            e = sum(mat[i])
            if e:
                out[mat] = out.get(mat, 0) + coef * e
            continue
        ri, rj = mat[i], mat[j]
        for A in range(n):
            e = rj[A]
            if not e:
                continue
            new = list(mat)
            new[j] = rj[:A] + (e - 1,) + rj[A + 1:]
            new[i] = ri[:A] + (ri[A] + 1,) + ri[A + 1:]
            tgt = tuple(new)
            out[tgt] = out.get(tgt, 0) + coef * e
    return {k: v for k, v in out.items() if v}


def _capelli_apply(lc: dict, n: int, s: int) -> dict:
    """C(s) lc, C(s) = colDet(L_ij + (n - 1 - i + s) delta_ij) with 0-based
    i: the Capelli element that acts on V_mu (x) V_mu by
    prod_i (mu_i + n - i + s), mu_i 1-based."""

    def entry(i, j, term):
        if i != j:
            return _L_apply(term, i, j, n)
        shift = n - 1 - i + s
        return {m: c * f for m, c in term.items() if (f := sum(m[i]) + shift)}

    return column_det(n, entry, lc)


def _fock_norm(mat) -> int:
    """Fock norm of the monomial with exponent matrix mat: prod of e!."""
    out = 1
    for row in mat:
        for e in row:
            out *= factorial(e)
    return out


def _dot(x: dict, y: dict) -> int:
    """sum_m x[m] y[m] over the monomials of two sparse integer vectors."""
    if len(y) < len(x):
        x, y = y, x
    total = 0
    for m, c in x.items():
        if m in y:
            total += c * y[m]
    return total


def _chain_shape(margins) -> tuple:
    """(mu0, e): the lexicographically larger sorted margin of a slice and
    e = d - m_1, the number of chain steps."""
    mu0 = max(tuple(sorted(m, reverse=True)) for m in margins)
    return mu0, sum(mu0[1:])


# -- the memos: gamma-free tails, per-gamma weights -------------------------

@lru_cache(maxsize=None)
def _chain_tail(n: int, margins, coords: frozenset) -> tuple:
    """(R_1, ..., R_e) of the integer coordinates u whose items are coords,
    R_k = A_k u - a_mu0(k) u, with A_k u = C(k) A_{k-1} u, each monomial's
    coefficient times its Fock norm; () when every R_k vanishes, that is
    when u lies in V_mu0 (x) V_mu0."""
    mu0, e = _chain_shape(margins)
    u = dict(coords)
    tail, img = [], u
    for k in range(1, e + 1):
        img = _capelli_apply(img, n, k)
        a = _ladder_value(mu0, k)
        rest = dict(img)
        for m, c in u.items():
            rest[m] = rest.get(m, 0) - a * c
        tail.append({m: c * _fock_norm(m) for m, c in rest.items() if c})
    return tuple(tail) if any(tail) else ()


@lru_cache(maxsize=None)
def _chain_weights(n: int, gamma_num: int, gamma_den: int, mu0: tuple) -> tuple:
    """(nums, den): c_mu0(gamma), w_1(gamma), ..., w_e(gamma) at
    gamma = gamma_num / gamma_den, as integers over one positive
    denominator, weight k = nums[k] / den, for every slice of the size-n
    block whose `_chain_shape` is (mu0, e).  Keyed on integers, so that no
    lookup hashes a Fraction."""
    gamma = Fraction(gamma_num, gamma_den)
    e = sum(mu0[1:])
    top = mu0[:1] + (0,) * (n - 1)
    c_top = c_mu(Partition(top), gamma, n)
    weights = [c_mu(Partition(mu0), gamma, n)]
    for k in range(1, e + 1):
        w = c_top / _ladder_value(top, k)
        for j in range(e + 1):
            if j != k:
                w *= (gamma - j) / (k - j)
        weights.append(w)
    den = lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (den // w.denominator) for w in weights), den


def clear_caches() -> None:
    """Empty every memo of the oscillator, as listed in the module
    docstring; later calls recompute them."""
    from . import capelli, module  # both import this one

    for cache in (
        _chain_tail, _chain_weights, _normal_form, _kostka,
        capelli._identity_defect, capelli._ladder,
    ):
        cache.cache_clear()
    with module._MODULES_LOCK:
        module._MODULES.clear()


# ---------------------------------------------------------------------------
# full inner product
# ---------------------------------------------------------------------------

def _margins(m):
    """(row sums, column sums) of a square block matrix: its bi-charge slice."""
    return tuple(map(sum, m)), tuple(map(sum, zip(*m)))


def _split_state(spec, s):
    """(rest key, a_sub, b_sub): deformed submatrices split off the plain
    rest, by the row getters of `spec.column_getters`."""
    if s.sL or s.sR:
        raise ValueError("inner product is implemented on the t^0 sector")
    plain_a, plain_b, a_sub, b_sub = spec.column_getters
    a, b = s.a, s.b
    return (
        (s.f, tuple(map(plain_a, a)), tuple(map(plain_b, b))),
        None if a_sub is None else tuple(map(a_sub, a)),
        None if b_sub is None else tuple(map(b_sub, b)),
    )


class Prepared(NamedTuple):
    """A vector split once for `inner_product`, never mutated: denom times
    its coordinates, as integers, with the Fock-weighted chain images of its
    deformed coordinates built with it (`_held`, `_targets`).  rests maps
    each plain rest key to (its Fock factor, the deformed data): its integer
    coordinate with no deformed block; margins -> (coords, images, mu0)
    with one; (a-margins, b-margins) -> ((a mu0, b mu0), b_sub -> (a coords,
    a images, b targets)) with two.  coords maps each block monomial to its
    integer coordinate, and mu0 is the slice's, which fixes its weights.

    A vector of a held family also carries the family's pair table and its
    own index in the family: (index u, index v) -> the gamma-free terms of
    the pair (`_pair_terms`), filled by `inner_product`."""

    denom: int
    rests: dict
    pairs: dict | None = None
    index: int = 0


def prepare(spec, u, canon: dict, pairs: dict | None = None, index: int = 0) -> Prepared:
    """A LinComb or state as a `Prepared` vector; a Prepared is returned as is.

    The images of every slice are built here, once per vector, the tails
    through the content-keyed `_chain_tail`, so equal coordinates meet the
    chain once at every gamma.  Every tuple in a key of the nested dicts
    (rest keys, margins, the monomials of coordinates, images and targets)
    is the equal tuple first stored in canon, so that vectors prepared with
    one canon, such as a held module's, store each key once.  A held family
    passes its pair table and the vector's index in the family, so that
    its pairs keep their terms."""
    if isinstance(u, Prepared):
        return u
    lc = u if isinstance(u, dict) else {u: 1}
    denom = lcm(*(c.denominator for c in lc.values()))
    rests = {}
    for s, c in lc.items():
        rest, a_sub, b_sub = _split_state(spec, s)
        entry = rests.get(rest)
        if entry is None:
            entry = rests[rest] = (_fock_norm(rest[1]) * _fock_norm(rest[2]), {})
        coords = entry[1]
        sub = b_sub if a_sub is None else a_sub  # paired at vector level
        if a_sub is not None and b_sub is not None:
            coords = coords.setdefault((_margins(a_sub), _margins(b_sub)), {})
            coords = coords.setdefault(b_sub, {})
        elif sub is not None:
            coords = coords.setdefault(_margins(sub), {})
        coords[sub] = c.numerator * (denom // c.denominator)
    held = {}
    for rest, (fact, data) in rests.items():
        if spec.a_deformed and spec.b_deformed:
            data = {
                _canonical(key, canon): (
                    _canonical(tuple(_chain_shape(m)[0] for m in key), canon),
                    {_canonical(b1, canon): (*_held(spec.q, key[0], coords, canon),
                                             _targets(spec.p, key[1], b1, canon))
                     for b1, coords in group.items()},
                )
                for key, group in data.items()
            }
        elif spec.a_deformed or spec.b_deformed:
            n = spec.q if spec.a_deformed else spec.p
            data = {_canonical(marg, canon): (*_held(n, marg, coords, canon),
                                              _canonical(_chain_shape(marg)[0], canon))
                    for marg, coords in data.items()}
        else:
            data = data[None]
        held[_canonical(rest, canon)] = (fact, data)
    return Prepared(denom, held, pairs, index)


def _held(n: int, margins, coords: dict, canon: dict) -> tuple:
    """(u, images) for the integer coordinates u on a slice of the size-n
    block: images is (u, R_1, ..., R_e) with each monomial's coefficient
    times its Fock norm, so that <R_k u, v>_Fock is `_dot` with v's
    coordinates.  A one-weight slice (e = 0) applies no C(s); otherwise the
    tail is `_chain_tail`'s.  Monomial keys are shared through canon."""
    coords = {_canonical(m, canon): c for m, c in coords.items()}
    images = [{m: c * _fock_norm(m) for m, c in coords.items()}]
    if _chain_shape(margins)[1]:
        images += ({_canonical(m, canon): w for m, w in img.items()}
                   for img in _chain_tail(n, margins, frozenset(coords.items())))
    return coords, tuple(images)


def _targets(n: int, margins, b1, canon: dict) -> dict:
    """The images of the monomial b1 indexed by target: b2 -> its weighted
    coefficients (w_0, ..., w_e) in (b1, R_1 b1, ..., R_e b1)."""
    _coords, images = _held(n, margins, {b1: 1}, canon)
    out = {}
    for k, img in enumerate(images):
        for b2, w in img.items():
            out.setdefault(b2, [0] * len(images))[k] = w
    return {b2: tuple(ws) for b2, ws in out.items()}


def _canonical(key, canon):
    """key, or the equal tuple first stored in canon, its own tuples
    canonical too."""
    if type(key) is not tuple:
        return key
    got = canon.get(key)
    if got is None:
        got = canon[key] = tuple(_canonical(x, canon) for x in key)
    return got


_ZERO = Fraction(0)


def inner_product(spec, u, v) -> Fraction:
    """Exact pairing of two LinCombs, states or `Prepared` vectors in the
    polynomial sector.

    Factorises over oscillator families: plain Fock factors pair diagonally
    with factorials, fermions with delta, and each deformed block through its
    c_mu-weighted form, evaluated per bi-charge slice at vector level.  The
    pairing is made in two steps: its gamma-free integer terms
    (`_pair_terms`), then their value at the spec's gammas (`_evaluate`).
    Two vectors of one held family keep their terms in the family's pair
    table, so a later pairing of them, at any gamma, only evaluates.  An
    empty vector pairs to 0 at once.
    """
    if type(u) is not Prepared or type(v) is not Prepared:
        canon = {}
        pu = prepare(spec, u, canon)
        v = pu if v is u else prepare(spec, v, canon)
        u = pu
    if not u.rests or not v.rests:
        return _ZERO
    pairs = u.pairs
    if pairs is None or pairs is not v.pairs:
        return _evaluate(spec, _pair_terms(spec, u, v), u.denom * v.denom)
    key = (u.index, v.index)
    terms = pairs.get(key)
    if terms is None:
        terms = pairs[key] = _pair_terms(spec, u, v)
    return _evaluate(spec, terms, u.denom * v.denom)


def _pair_terms(spec, pu: Prepared, pv: Prepared):
    """The gamma-free terms of the pairing of pu and pv, summed over their
    common rest keys, each times its rest's Fock factor, and over the
    slices of one mu0, which share their weights: with no deformed block
    one integer; with one, mu0 -> [n_0, ..., n_e] with
    n_k = <R_k u, v>_Fock (R_0 u = u), one `_dot` of u's weighted images per
    weight; with two, (a mu0, b mu0) -> the (e_a + 1) x (e_b + 1) rows
    n_ij = sum over b monomials b1 of u, b2 of v of
    <R_i u_b1, v_b2>_Fock <R_j b1, b2>_Fock, visiting only the targets b2
    of each b1's images.  Where u's tail vanishes (images (u,) only), its
    terms n_k, k >= 1, are 0."""
    rests2 = pv.rests
    form_a, form_b = spec.block_forms
    if form_a is None and form_b is None:
        total = 0
        for rest, (fact, data1) in pu.rests.items():
            got = rests2.get(rest)
            if got is not None:
                total += fact * data1 * got[1]
        return total
    double = form_a is not None and form_b is not None
    terms = {}
    for rest, (fact, data1) in pu.rests.items():
        got = rests2.get(rest)
        if got is None:
            continue
        data2 = got[1]
        if not double:
            for marg, (_coords1, images, mu0) in data1.items():
                got = data2.get(marg)
                if got is None:
                    continue
                coords2 = got[0]
                row = terms.get(mu0)
                if row is None:
                    row = terms[mu0] = [0] * (sum(mu0[1:]) + 1)
                for k, img in enumerate(images):
                    row[k] += fact * _dot(img, coords2)
            continue
        for key, (shapes, group1) in data1.items():
            got = data2.get(key)
            if got is None:
                continue
            group2 = got[1]
            rows = terms.get(shapes)
            if rows is None:
                mu0_a, mu0_b = shapes
                rows = terms[shapes] = [[0] * (sum(mu0_b[1:]) + 1)
                                        for _ in range(sum(mu0_a[1:]) + 1)]
            for _coords1, images_a, targets in group1.values():
                for b2, ws in targets.items():
                    got = group2.get(b2)
                    if got is None:
                        continue
                    coords2 = got[0]
                    for row, img in zip(rows, images_a):
                        dot = _dot(img, coords2)
                        if dot:
                            dot *= fact
                            for j, w in enumerate(ws):
                                row[j] += dot * w
    return terms


def _evaluate(spec, terms, denom: int) -> Fraction:
    """The pairing whose `_pair_terms` are terms, over denom, the product of
    the two vectors' denominators, at the spec's gammas: the terms of each
    mu0 dotted with its `_chain_weights` numerators, added on integers over
    the lcm of their denominators, then one Fraction."""
    if type(terms) is int:
        return Fraction(terms, denom)
    form_a, form_b = spec.block_forms
    num, den = 0, 1
    for mu0, ns in terms.items():
        if form_a is None or form_b is None:
            nums, d = _chain_weights(*(form_a or form_b), mu0)
            x = sum(map(mul, nums, ns))
        else:
            nums_a, den_a = _chain_weights(*form_a, mu0[0])
            nums_b, d = _chain_weights(*form_b, mu0[1])
            x = 0
            for w, row in zip(nums_a, ns):
                x += w * sum(map(mul, nums_b, row))
            d *= den_a
        if d != den:
            if num:  # bring both over their lcm
                m = lcm(den, d)
                num *= m // den
                x *= m // d
                d = m
            den = d
        num += x
    return Fraction(num, den * denom)
