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
meets the chain and the factorials once, and a pairing is one sparse integer
dot product per weight.  The form depends on gamma only through the
weights, so its memos split in two, each an `lru_cache` function on exact
keys:

- gamma-free: the integer tail R_1, ..., R_e of each vector (`_chain_tail`,
  keyed on n, the margins and the vector's integer coordinates), which
  serves `prepare`, so that equal coordinates, at any gamma, meet the chain
  once;
- per gamma: each slice's weights c_mu0, w_1, ..., w_e (`_chain_weights`),
  held as integer numerators over one slice denominator and keyed on n,
  gamma's numerator and denominator and the margins, so a lookup hashes no
  Fraction.  A slice pairing is the integer
  num_0 <u, v>_Fock + sum_k num_k <R_k, v>_Fock over that denominator.

`inner_product` stays on integers until it returns: it adds each slice
pairing, times the Fock factor of its plain rest, into an integer numerator
keyed by its denominator (on two deformed blocks the product of the a and b
pairings, over the product of their denominators, visiting only the targets
of each b monomial's images), and makes one Fraction per pairing from those
sums and the two vectors' denominators.  A pairing with an empty vector,
such as a vanishing PBW monomial, is 0 before any memo is looked up.

`clear_caches()` empties every memo of the oscillator: the two above, the
normal forms modulo det X - t (`states._normal_form`), the Kostka numbers
(`ktypes._kostka`), the Capelli checks' gamma-free identity defects and
ladder vectors (`capelli._identity_defect`, `capelli._ladder`) and the table
of gamma-free modules (`module._MODULES`).  Each but the last reports its
size, hits and misses through `cache_info()`.
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
def _chain_weights(n: int, gamma_num: int, gamma_den: int, margins) -> tuple:
    """(nums, den): c_mu0(gamma), w_1(gamma), ..., w_e(gamma) at
    gamma = gamma_num / gamma_den, as integers over one positive
    denominator, weight k = nums[k] / den.  Keyed on integers, so that no
    lookup hashes a Fraction."""
    gamma = Fraction(gamma_num, gamma_den)
    mu0, e = _chain_shape(margins)
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
    each plain rest key to (its Fock factor, the deformed data): {None: int}
    with no deformed block; margins -> (coords, images) with one;
    (a-margins, b-margins) -> b_sub -> (a coords, a images, b targets) with
    two.  coords maps each block monomial to its integer coordinate."""

    denom: int
    rests: dict


def prepare(spec, u, canon: dict) -> Prepared:
    """A LinComb or state as a `Prepared` vector; a Prepared is returned as is.

    The images of every slice are built here, once per vector, the tails
    through the content-keyed `_chain_tail`, so equal coordinates meet the
    chain once at every gamma.  Every tuple in a key of the nested dicts
    (rest keys, margins, the monomials of coordinates, images and targets)
    is the equal tuple first stored in canon, so that vectors prepared with
    one canon, such as a held module's, store each key once."""
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
                _canonical(key, canon): {
                    _canonical(b1, canon): (*_held(spec.q, key[0], coords, canon),
                                            _targets(spec.p, key[1], b1, canon))
                    for b1, coords in group.items()
                }
                for key, group in data.items()
            }
        elif spec.a_deformed or spec.b_deformed:
            n = spec.q if spec.a_deformed else spec.p
            data = {_canonical(marg, canon): _held(n, marg, coords, canon)
                    for marg, coords in data.items()}
        held[_canonical(rest, canon)] = (fact, data)
    return Prepared(denom, held)


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
    c_mu-weighted form, evaluated per bi-charge slice at vector level.  Each
    slice pairing is an integer numerator over its weights' denominator; they
    are summed per denominator and make one Fraction.  An empty vector pairs
    to 0 at once.
    """
    canon = {}
    pu = prepare(spec, u, canon)
    pv = pu if v is u else prepare(spec, v, canon)
    if not pu.rests or not pv.rests:
        return _ZERO
    form_a = (spec.q, spec.gamma_R.numerator, spec.gamma_R.denominator) if spec.a_deformed else None
    form_b = (spec.p, spec.gamma_L.numerator, spec.gamma_L.denominator) if spec.b_deformed else None
    acc = {}  # slice denominator -> integer numerator
    for rest, (fact, data1) in pu.rests.items():
        got = pv.rests.get(rest)
        if got is None:
            continue
        data2 = got[1]
        if form_a is not None and form_b is not None:
            _eval_double(form_a, form_b, data1, data2, fact, acc)
        elif form_a is not None or form_b is not None:
            _eval_single(form_a or form_b, data1, data2, fact, acc)
        else:
            acc[1] = acc.get(1, 0) + fact * data1[None] * data2[None]
    den = lcm(*acc)
    num = sum(x * (den // d) for d, x in acc.items())
    return Fraction(num, den * pu.denom * pv.denom)


def _eval_single(form, data1, data2, fact, acc):
    """Add fact times each slice pairing of one deformed block into acc: the
    integer sum_k num_k <R_k, coords2>_Fock, R_0 = coords1 and R_k its tail,
    one `_dot` of the first vector's weighted images per weight, over the
    slice's denominator.  form is the block's (n, gamma numerator, gamma
    denominator)."""
    for marg, (_coords1, images) in data1.items():
        got = data2.get(marg)
        if got is not None:
            nums, den = _chain_weights(*form, marg)
            coords2 = got[0]
            num = 0
            for a, img in zip(nums, images):
                num += a * _dot(img, coords2)
            acc[den] = acc.get(den, 0) + fact * num


def _eval_double(form_a, form_b, data1, data2, fact, acc):
    """Add fact times each (a slice, b slice) pairing into acc: the b
    monomials b1, b2 of a group share the b margins of its key, so their
    pairing is sum_k w_k(b) <R_k b1, b2>_Fock on the b-form's numerators.
    Only the targets b2 of b1's images are visited."""
    for key, group1 in data1.items():
        group2 = data2.get(key)
        if group2 is None:
            continue
        nums_a, den_a = _chain_weights(*form_a, key[0])
        nums_b, den_b = _chain_weights(*form_b, key[1])
        total = 0
        for _coords1, images_a, targets in group1.values():
            for b2, ws in targets.items():
                got = group2.get(b2)
                if got is None:
                    continue
                gb = sum(map(mul, nums_b, ws))
                if gb:
                    coords2 = got[0]
                    for a, img in zip(nums_a, images_a):
                        total += gb * a * _dot(img, coords2)
        den = den_a * den_b
        acc[den] = acc.get(den, 0) + fact * total
