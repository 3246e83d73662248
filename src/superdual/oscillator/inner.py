"""Exact Hermitian form on the polynomial (t^0) sector.

The form factorises over the oscillator families.  Plain Fock factors pair
monomials diagonally with factorials; fermions pair canonical monomials with
delta.  On a deformed square block the unique form making a and a+ adjoint
restricts to each GL x GL component V_mu (x) V_mu of C[X] as the Fock form
rescaled by

    c_mu(gamma) = prod_{(i,j) in mu} (gamma + n - i + j) / (n - i + j),

n being the block size; the weights follow from the Capelli norm ladder
|v t^{k+1}|^2 = prod_i (mu_i + n - i + gamma + k + 1) |v t^k|^2 together with
F_gamma ~ F_{gamma+1}, and are the Faraut-Koranyi weights of the holomorphic
discrete series.  The L_ij are Fock-adjoint (L_ij^+ = L_ji), so the component
projectors P_mu are Fock-orthogonal and <u, v>_gamma = <D u, v>_Fock with
D = sum_mu c_mu P_mu: the polynomial in one Casimir C that takes the value
c_mu at its eigenvalue lambda_mu on V_mu.  In Newton form

    <u, v>_gamma = sum_j a_j(gamma) <N_j u, v>_Fock,
    N_0 = u,   N_{j+1} = (C - lambda_j) N_j,

where a_j is the divided difference of c_mu(gamma) at lambda_0..lambda_j.
The nodes of a bi-charge slice are the mu |- d of height <= n dominating both
sorted margins (Kostka positivity), and C = C2 + t C3 with the least integer
t >= 0 that makes their closed-form eigenvalues (`_casimir_value`) distinct.
A one-node slice, such as every slice of degree 0 or of a size-1 block, is
c_(d)(gamma) times the Fock pairing and applies no Casimir.

Vectors are paired on integers.  `prepare` splits a vector once into plain
rest keys and deformed blocks grouped by slice, holding its coordinates as
integers over one denominator, the lcm of its coefficients' denominators;
a Gram slice prepares each family vector once.  The form depends on gamma
only through c_mu(gamma), so its memos split in two, each an `lru_cache`
function on exact keys:

- gamma-free: the nodes of each slice (`_slice_nodes`, keyed on n and the
  margins) and the integer images N_1, N_2, ... of each vector
  (`_newton_tail`, keyed on n, the margins and the vector's integer
  coordinates), so a vector entering many Gram entries, at any gamma, meets
  the Casimir once per node;
- per gamma: each slice's divided differences (`_newton_numerators`), held as
  integer numerators over one slice denominator and keyed on n, gamma's
  numerator and denominator and the margins, so a lookup hashes no
  Fraction.  A slice pairing is the integer sum_j num_j <N_j u, v>_Fock over
  that denominator.

`inner_product` stays on integers until it returns: it adds each slice
pairing, times the Fock factor of its plain rest, into an integer numerator
keyed by its denominator (on two deformed blocks the product of the a and b
pairings, over the product of their denominators, with the Newton images of
each b monomial and of its a coordinates taken once), and makes one
Fraction per pairing from those sums and the two vectors' denominators.  A
pairing with an empty vector, such as a vanishing PBW monomial, is 0 before
any memo is looked up.

`clear_caches()` empties every memo of the Gram oracle: the three above, the
normal forms modulo det X - t (`states._normal_form`), the Kostka numbers
(`ktypes._kostka`) and the table of gamma-free modules (`module._MODULES`).
Each but the last reports its size, hits and misses through `cache_info()`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, lcm
from typing import NamedTuple

from ..ktypes import _kostka
from ..partitions import Partition, partitions_bounded
from .states import _normal_form


def c_mu(mu: Partition, gamma: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for (i, j) in mu.cells():
        out *= Fraction(gamma + n - i + j, 1) / (n - i + j)
    return out


def _casimir_value(mu: Partition, n: int, order: int) -> int:
    """Eigenvalue on V_mu of the quadratic (order 2) or cubic (order 3) gl(n)
    invariant applied by `_casimir_apply`.

    The Perelomov-Popov formula, summed in closed form over mu padded to n
    parts (k = 1..n).
    """
    lam = mu.padded(n)
    if order == 2:
        return sum(x * (x + n + 1 - 2 * k) for k, x in enumerate(lam, 1))
    size = sum(lam)
    return sum(
        x**3 + (2 * n + 1 - 3 * k) * x * x + ((n + 1 - 2 * k) ** 2 - k * (k - 1)) * x
        for k, x in enumerate(lam, 1)
    ) - (size * size - sum(x * x for x in lam)) // 2


# -- the Casimir and the Fock form on monomial dicts ------------------------

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


def _casimir_apply(lc: dict, n: int, t: int, shift: int = 0) -> dict:
    """(C2 + t C3 - shift) lc with C2 = sum L_ik L_ki and C3 = sum L_ij L_jk L_ki,
    the gl(n) invariants whose eigenvalues `_casimir_value` gives.

    Both share Y_ji = sum_k L_jk L_ki lc: C2 lc = sum_i Y_ii and
    C3 lc = sum_ij L_ij Y_ji, so C2 alone needs only the diagonal."""
    out = {}

    def add(img, f):
        for m, c in img.items():
            out[m] = out.get(m, 0) + f * c

    add(lc, -shift)
    for i in range(n):
        lowered = [_L_apply(lc, k, i, n) for k in range(n)]  # L_ki lc
        for j in range(n) if t else (i,):
            y = {}
            for k in range(n):
                for m, c in _L_apply(lowered[k], j, k, n).items():
                    y[m] = y.get(m, 0) + c
            if j == i:
                add(y, 1)
            if t:
                add(_L_apply(y, i, j, n), t)
    return {m: c for m, c in out.items() if c}


def _fock_norm(mat) -> int:
    """Fock norm of the monomial with exponent matrix mat: prod of e!."""
    out = 1
    for row in mat:
        for e in row:
            out *= factorial(e)
    return out


def _fock_pair(coords1: dict, coords2: dict) -> int:
    """Fock pairing of integer coordinates: distinct monomials are orthogonal."""
    if len(coords2) < len(coords1):
        coords1, coords2 = coords2, coords1
    total = 0
    for m, c in coords1.items():
        c2 = coords2.get(m)
        if c2:
            total += c * c2 * _fock_norm(m)
    return total


def _newton_pair(nums, images, coords2) -> int:
    """sum_j nums[j] <N_j, coords2>_Fock over the Newton images N_j."""
    return sum(a * _fock_pair(img, coords2) for a, img in zip(nums, images))


def _dominates(mu: tuple, lam: tuple) -> bool:
    """Dominance order on equal-length tuples: every partial sum of mu is
    at least that of lam."""
    return all(a >= b for a, b in zip(accumulate(mu), accumulate(lam)))


# -- the memos: gamma-free nodes and images, per-gamma divided differences --

@lru_cache(maxsize=None)
def _slice_nodes(n: int, margins) -> tuple:
    """(t, mus, lambdas) of a slice of the size-n block: its components mu,
    in ascending lexicographic order, and their eigenvalues lambda_mu of
    C = C2 + t C3.

    The order refines dominance, so a vector of the least component, such
    as a highest vector of V_mu (x) V_mu on its own slice (mu, mu), costs
    one Casimir application.  C2 and C3 separate every component up to
    block size 3; beyond it two components can share both (on size 4,
    (7,7,1,1) and (8,5,3) at degree 16), and such a slice is refused
    with ValueError."""
    rows, cols = (tuple(sorted(m, reverse=True)) for m in margins)
    d = sum(rows)
    mus = sorted(
        (
            mu for mu in partitions_bounded(n, d)
            if mu.size == d
            and _dominates(mu.padded(n), rows)
            and _dominates(mu.padded(n), cols)
        ),
        key=lambda mu: mu.parts,
    )
    pairs = [(_casimir_value(mu, n, 2), _casimir_value(mu, n, 3)) for mu in mus]
    if len(set(pairs)) < len(pairs):
        raise ValueError(
            f"a slice of degree {d} on a block of size {n} is outside the supported "
            "range: two of its components share their C2 and C3 eigenvalues"
        )
    t = 0
    while len({c2 + t * c3 for c2, c3 in pairs}) < len(pairs):
        t += 1
    return t, tuple(mus), tuple(c2 + t * c3 for c2, c3 in pairs)


@lru_cache(maxsize=None)
def _newton_tail(n: int, margins, coords: frozenset) -> tuple:
    """(N_1, N_2, ...) of the integer coordinates whose items are coords,
    stopping before the first zero image.  C has integer entries, so the
    images are integer too; N_k vanishes for k nodes."""
    t, _mus, lams = _slice_nodes(n, margins)
    tail, img = [], dict(coords)
    for lam in lams[:-1]:
        img = _casimir_apply(img, n, t, lam)
        if not img:
            break
        tail.append(img)
    return tuple(tail)


def _newton_images(n: int, margins, nums, coords: dict) -> tuple:
    """(N_0 = coords, N_1, ...) on a slice with the Newton numerators nums:
    a one-node slice applies no Casimir, and otherwise the tail is looked up
    by content, so equal vectors meet the Casimir once at every gamma."""
    if len(nums) == 1:
        return (coords,)
    return (coords,) + _newton_tail(n, margins, frozenset(coords.items()))


@lru_cache(maxsize=None)
def _newton_numerators(n: int, gamma_num: int, gamma_den: int, margins) -> tuple:
    """(nums, den): the divided differences a_j = c[lambda_0..lambda_j] of
    c_mu(gamma), gamma = gamma_num / gamma_den, at the slice's nodes, as
    integers over one positive denominator, a_j = nums[j] / den.  Keyed on
    integers, so that no lookup hashes a Fraction."""
    gamma = Fraction(gamma_num, gamma_den)
    _t, mus, lams = _slice_nodes(n, margins)
    table = [c_mu(mu, gamma, n) for mu in mus]
    coefs = [table[0]]
    for j in range(1, len(lams)):
        table = [
            (table[i + 1] - table[i]) / (lams[i + j] - lams[i])
            for i in range(len(table) - 1)
        ]
        coefs.append(table[0])
    den = lcm(*(a.denominator for a in coefs))
    return tuple(a.numerator * (den // a.denominator) for a in coefs), den


def clear_caches() -> None:
    """Empty every memo of the Gram oracle, as listed in the module
    docstring; later calls recompute them."""
    from . import module  # module imports this one

    for cache in (_slice_nodes, _newton_tail, _newton_numerators, _normal_form, _kostka):
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
    its coordinates, as integers.  rests maps each plain rest key to (its Fock
    factor, the deformed coordinates): {None: int} with no deformed block,
    margins -> {sub: int} with one, (a-margins, b-margins) -> b_sub ->
    {a_sub: int} with two."""

    denom: int
    rests: dict


def prepare(spec, u) -> Prepared:
    """A LinComb or state as a `Prepared` vector; a Prepared is returned as is."""
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
    return Prepared(denom, rests)


def share_keys(u: Prepared, canon: dict) -> Prepared:
    """u with every tuple in the keys of its nested dicts replaced by the
    equal tuple first stored in canon, so that vectors held together store
    each rest key, margin pair and coordinate key once."""
    return Prepared(u.denom, _shared(u.rests, canon))


def _shared(obj, canon):
    if isinstance(obj, dict):
        return {_canonical(k, canon): _shared(v, canon) for k, v in obj.items()}
    if type(obj) is tuple:  # (Fock factor, coordinates)
        return tuple(_shared(x, canon) for x in obj)
    return obj


def _canonical(key, canon):
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
    slice pairing is an integer numerator over its Newton denominator; they
    are summed per denominator and make one Fraction.  An empty vector pairs
    to 0 at once.
    """
    pu = prepare(spec, u)
    pv = pu if v is u else prepare(spec, v)
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
    integer sum_j num_j <N_j coords1, coords2>_Fock over the slice's
    denominator.  form is the block's (n, gamma numerator, gamma
    denominator)."""
    for marg, coords1 in data1.items():
        coords2 = data2.get(marg)
        if coords2:
            nums, den = _newton_numerators(*form, marg)
            num = _newton_pair(nums, _newton_images(form[0], marg, nums, coords1), coords2)
            acc[den] = acc.get(den, 0) + fact * num


def _eval_double(form_a, form_b, data1, data2, fact, acc):
    """Add fact times each (a slice, b slice) pairing into acc: the b
    monomials b1, b2 of a group share the b margins of its key, so their
    pairing is sum_j a_j(b) <N_j b1, b2>_Fock on the b-form's numerators.
    The Newton images of b1 and of its a coordinates are taken once per b1."""
    for key, bgroups1 in data1.items():
        bgroups2 = data2.get(key)
        if not bgroups2:
            continue
        a_marg, b_marg = key
        nums_a, den_a = _newton_numerators(*form_a, a_marg)
        nums_b, den_b = _newton_numerators(*form_b, b_marg)
        den = den_a * den_b
        total = 0
        for b1, coords_a1 in bgroups1.items():
            images_a = _newton_images(form_a[0], a_marg, nums_a, coords_a1)
            images_b = _newton_images(form_b[0], b_marg, nums_b, {b1: 1})
            for b2, coords_a2 in bgroups2.items():
                gb = sum(a * img.get(b2, 0) for a, img in zip(nums_b, images_b))
                if gb:
                    total += gb * _fock_norm(b2) * _newton_pair(nums_a, images_a, coords_a2)
        acc[den] = acc.get(den, 0) + fact * total
