"""The deformed-block form: the Capelli chain and its weights in gamma
against an independent per-component reference and a Casimir-Newton
reference pairing, and the gamma-free data shared across gamma."""

import hashlib
import itertools
from fractions import Fraction as F
from math import factorial, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from superdual.diagrams import realize
from superdual.labels import RepLabel
from superdual.oscillator import delta_ladder_norms, gram_positivity
from superdual import ktypes
from superdual.oscillator import capelli, inner, module, states
from superdual.oscillator.capelli import block_spec, capelli_identity_check, capelli_norm_factor
from superdual.oscillator.algebra import OscillatorSpec
from superdual.oscillator.inner import (
    _L_apply,
    _capelli_apply,
    _chain_shape,
    _chain_weights,
    _evaluate,
    _pair_terms,
    c_mu,
    clear_caches,
    inner_product,
    prepare,
)
from superdual.oscillator.states import PERMS, State
from superdual.partitions import Partition, partitions_bounded

GAMMAS = (F(1, 2), F(-1, 3), F(2, 3))


def _compositions(d, n):
    return [c for c in itertools.product(range(d + 1), repeat=n) if sum(c) == d]


# (n, rows, cols): every slice of n = 1 (d <= 4); for n = 2 every slice of
# d <= 2 and, for d = 3, 4, those with no zero margin, which hold several
# components; and one n = 3 slice per degree d <= 3.
SLICES = (
    [(1, (d,), (d,)) for d in range(5)]
    + [
        (2, rows, cols)
        for d in range(5)
        for rows in _compositions(d, 2)
        for cols in _compositions(d, 2)
        if d <= 2 or all(rows + cols)
    ]
    + [(3, (1, 1, 1), (1, 1, 1)), (3, (2, 1, 0), (1, 1, 1)), (3, (1, 0, 0), (0, 1, 0))]
)

# Slices of three to six components, drawn as often as all of SLICES
# together, so that chains of e >= 2 steps carry weight.
MANY_NODES = [
    (2, (2, 2), (2, 2)),
    (2, (2, 3), (3, 2)),
    (2, (3, 3), (3, 3)),
    (2, (4, 2), (3, 3)),
    (3, (1, 1, 1), (1, 1, 1)),
    (3, (2, 1, 1), (1, 2, 1)),
    (3, (2, 2, 1), (1, 2, 2)),
    (3, (3, 2, 1), (2, 2, 2)),
    (3, (1, 2, 3), (2, 1, 3)),
]

# r_mu, s_mu: zero one time in seven, so components drop in and out
coefficients = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def _fock_pair(u, v):
    total = F(0)
    for mat, c in u.items():
        if mat in v:
            f = 1
            for row in mat:
                for e in row:
                    f *= factorial(e)
            total += c * v[mat] * f
    return total


def _transpose(lc):
    return {tuple(zip(*mat)): c for mat, c in lc.items()}


def _dominates(mu, margin):
    """Partial sums of mu (padded) bound those of the margin, sorted."""
    lam = sorted(margin, reverse=True)
    mu = mu.padded(len(lam))
    return all(sum(mu[:k]) >= sum(lam[:k]) for k in range(1, len(lam) + 1))


def _lowering_word(draw, start, target):
    """Random moves (i, j), j < i, of one unit from entry j to entry i that
    take the composition `start` to `target`, which it dominates."""
    cur, word, n = list(start), [], len(start)
    while cur != list(target):
        excess = [sum(cur[: s + 1]) - sum(target[: s + 1]) for s in range(n)]
        j = draw(st.sampled_from([j for j in range(n) if cur[j] and excess[j]]))
        stop = next(s for s in range(j, n) if not excess[s])
        i = draw(st.sampled_from(range(j + 1, stop + 1)))
        cur[j] -= 1
        cur[i] += 1
        word.append((i, j))
    return word


@st.composite
def component_vectors(draw):
    """(n, gamma, margins, u, v, parts): u and v on one slice, and per
    component mu of the slice (u_mu, v_mu, r_mu, s_mu) with
    u = sum r_mu u_mu, v = sum s_mu v_mu and u_mu, v_mu in V_mu (x) V_mu.

    Each u_mu is the highest vector of V_mu (x) V_mu lowered to the slice by
    a random word of row lowerings L_ij (i > j) and one of column lowerings
    (the same on the transpose)."""
    n, rows, cols = draw(st.sampled_from(SLICES) | st.sampled_from(MANY_NODES))
    gamma = draw(st.sampled_from(GAMMAS))
    d = sum(rows)
    mus = [
        mu for mu in partitions_bounded(n, d)
        if mu.size == d and _dominates(mu, rows) and _dominates(mu, cols)
    ]

    def lowered(mu):
        vec = _highest_vector(mu, n)
        for i, j in _lowering_word(draw, mu.padded(n), rows):
            vec = _L_apply(vec, i, j, n)
        vec = _transpose(vec)
        for i, j in _lowering_word(draw, mu.padded(n), cols):
            vec = _L_apply(vec, i, j, n)
        return _transpose(vec)

    parts = []
    u, v = {}, {}
    for mu in mus:
        u_mu, v_mu = lowered(mu), lowered(mu)
        r, s = draw(coefficients), draw(coefficients)
        parts.append((mu, u_mu, v_mu, r, s))
        for out, vec, coef in ((u, u_mu, r), (v, v_mu, s)):
            for mat, c in vec.items():
                out[mat] = out.get(mat, F(0)) + coef * c
    u = {m: c for m, c in u.items() if c}
    v = {m: c for m, c in v.items() if c}
    return n, gamma, (rows, cols), u, v, parts


def _slice_pairing(n, gamma, margins, u, v):
    """The pairing of u and v on one slice of the size-n block at gamma: the
    terms `_pair_terms` makes of the vectors that `prepare` makes of them as
    states of `block_spec(n, gamma)`, evaluated by `_evaluate`."""
    spec = block_spec(n, gamma)
    pu, pv = (
        prepare(spec, {spec.vacuum()._replace(a=mat): c for mat, c in w.items()}, {})
        for w in (u, v)
    )
    if not pu.rests or not pv.rests:
        return F(0)
    ((fact1, data1),) = pu.rests.values()
    ((fact2, data2),) = pv.rests.values()
    assert fact1 == fact2 == 1 and set(data1) == set(data2) == {margins}
    terms = _pair_terms(spec, pu, pv)
    ((mu0, ns),) = terms.items()
    assert mu0 == _chain_shape(margins)[0] and all(type(x) is int for x in ns)
    return _evaluate(spec, terms, pu.denom * pv.denom)


@settings(max_examples=150, deadline=None)
@given(component_vectors())
def test_block_form_matches_per_component_reference(case):
    n, gamma, margins, u, v, parts = case
    # cold: the memos emptied; after it they hold this example's entries
    clear_caches()
    got = _slice_pairing(n, gamma, margins, u, v)

    want = sum(
        (c_mu(mu, gamma, n) * r * s * _fock_pair(u_mu, v_mu) for mu, u_mu, v_mu, r, s in parts),
        F(0),
    )
    assert got == want

    for _ in range(2):
        _slice_pairing(n, gamma, margins, v, u)
        assert _slice_pairing(n, gamma, margins, dict(u), dict(v)) == got

    if n == 1:
        # one component, mu = (d): (gamma + 1)_d times the Fock pairing
        ((mu, u_mu, v_mu, r, s),) = parts
        d = mu.size
        rising = F(1)
        for j in range(1, d + 1):
            rising *= gamma + j
        assert u_mu == v_mu == {((d,),): F(1)}
        assert got == r * s * rising


@st.composite
def slices(draw):
    """(n, margins): a random bi-charge slice of a block of size n <= 4."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 5 - n // 2))
    rows = draw(st.sampled_from(_compositions(d, n)))
    cols = draw(st.sampled_from(_compositions(d, n)))
    return n, (rows, cols)


def _rising_product(mu, n, k):
    """a_mu(k) = prod_i (mu_i + n - i + 1)_k, the eigenvalue of
    Delta^k det^k on V_mu (x) V_mu."""
    return prod(mu.part(i) + n - i + 1 + j for i in range(1, n + 1) for j in range(k))


@settings(max_examples=100, deadline=None)
@given(slices(), st.sampled_from(GAMMAS + (F(0), F(5, 4))))
def test_chain_weights_give_c_mu_on_every_component(case, gamma):
    """nums / den are c_mu0, w_1, ..., w_e, with mu0 the larger sorted margin
    and e = d - m_1: c_mu0 + sum_k w_k (a_mu(k) - a_mu0(k)) = c_mu for every
    mu |- d of at most n parts with mu_1 >= m_1, which includes every
    component of the slice."""
    n, margins = case
    gamma = F(gamma)
    form = (n, gamma.numerator, gamma.denominator)
    mu0 = Partition(max(sorted(m, reverse=True) for m in margins))
    nums, den = _chain_weights(*form, mu0.padded(n))
    assert type(den) is int and den > 0 and all(type(a) is int for a in nums)
    d, m1 = mu0.size, mu0.part(1)
    assert len(nums) == d - m1 + 1
    c0, *weights = (F(a, den) for a in nums)
    assert c0 == c_mu(mu0, gamma, n)
    for mu in partitions_bounded(n, d):
        if mu.size == d and mu.part(1) >= m1:
            got = c0 + sum(
                w * (_rising_product(mu, n, k) - _rising_product(mu0, n, k))
                for k, w in enumerate(weights, 1)
            )
            assert got == c_mu(mu, gamma, n), mu
    assert _chain_weights(*form, mu0.padded(n)) is _chain_weights(*form, mu0.padded(n))


# every lru_cache memo of the oscillator that `clear_caches` empties
MEMOS = {
    "tails": inner._chain_tail,
    "weights": inner._chain_weights,
    "normal forms": states._normal_form,
    "kostka": ktypes._kostka,
    "identity defects": capelli._identity_defect,
    "ladders": capelli._ladder,
}


def _info(field):
    """{memo name: one field of its cache_info()}"""
    return {name: getattr(memo.cache_info(), field) for name, memo in MEMOS.items()}


def test_clear_caches_gives_identical_results():
    d = realize(RepLabel(2, 2, 0, (), (), (), 0, F(1, 2)), allow_nonunitary=True)
    # Yang-Mills, whose K-type inversion asks for Kostka numbers
    ym = realize(RepLabel(2, 2, 4, (0, 0), (1, 1, 0, 0), (0, 0), 0, 0))

    def run():
        return (
            gram_positivity(d, cutoff=3),
            gram_positivity(ym, cutoff=1),
            delta_ladder_norms(3, F(-1, 3), Partition((1,)), 2),
            capelli_identity_check(3, F(-1, 3), cutoff=1),
        )

    clear_caches()
    cold = run()
    assert all(_info("currsize").values())
    assert module._MODULES
    warm = run()
    clear_caches()
    assert _info("currsize") == dict.fromkeys(MEMOS, 0)
    assert not module._MODULES
    again = run()
    assert cold == warm == again
    assert cold[0].has_negative and cold[1].kernel_total == 80 and cold[3] is True


def test_spectrum_shared_across_gamma_gives_identical_results():
    """Memos warmed at gamma = 1/2 serve gamma = -1/3 unchanged: a second
    gamma on the same realization shape misses only the chain weights."""

    def run(beta, gamma):
        # su(2,2) with beta = 2 + gamma_R: one deformed block of size 2
        d = realize(RepLabel(2, 2, 0, (), (), (), 0, beta), allow_nonunitary=True)
        assert d.realization.gamma_R == gamma
        return (
            gram_positivity(d, cutoff=3),
            delta_ladder_norms(3, gamma, Partition((2, 1)), 2),
            capelli_identity_check(2, gamma, cutoff=2),
        )

    clear_caches()
    cold = run(F(5, 3), F(-1, 3))
    clear_caches()
    run(F(5, 2), F(1, 2))
    # chain tails in both blocks, the ladder and the identity defect
    assert all(_info("currsize")[name] for name in ("tails", "ladders", "identity defects"))
    before = _info("misses")
    warm = run(F(5, 3), F(-1, 3))
    assert warm == cold
    after = _info("misses")
    assert {name for name in MEMOS if after[name] != before[name]} == {"weights"}


def _times_leading_minor(poly, y, n):
    """poly * det X[:y, :y] on monomial exponent matrices."""
    out = {}
    for mat, c in poly.items():
        for perm, sign in PERMS[y]:
            new = [list(row) for row in mat]
            for i in range(y):
                new[i][perm[i]] += 1
            key = tuple(map(tuple, new))
            out[key] = out.get(key, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _highest_vector(mu, n):
    """prod_y det X[:y, :y]^(mu_y - mu_{y+1}): the highest vector of V_mu (x) V_mu."""
    poly = {tuple((0,) * n for _ in range(n)): F(1)}
    for y in range(1, n + 1):
        for _ in range(mu.part(y) - mu.part(y + 1)):
            poly = _times_leading_minor(poly, y, n)
    return poly


def _capelli_eigenvalue(coords, n, s):
    """Exact eigenvalue of C(s) on coords, or None if not an eigenvector."""
    img = _capelli_apply(coords, n, s)
    ref_m, ref_c = next(iter(coords.items()))
    lam = img.get(ref_m, F(0)) / ref_c
    want = {m: lam * c for m, c in coords.items() if lam * c}
    return lam if img == want else None


def test_capelli_element_acts_on_highest_vectors_by_its_closed_form():
    """C(s) = colDet(L_ij + (n - 1 - i + s) delta_ij) acts on the highest
    vector of V_mu (x) V_mu by prod_i (mu_i + n - i + s); at s = 0 it is
    det X Delta, which kills every mu of height < n."""
    cases = 0
    for n, top in ((1, 5), (2, 4), (3, 3), (4, 3), (5, 2)):
        for mu in partitions_bounded(n, top):
            if mu.size > top:
                continue
            hv = _highest_vector(mu, n)
            for s in range(4):
                want = prod(mu.part(i) + n - i + s for i in range(1, n + 1))
                assert _capelli_eigenvalue(hv, n, s) == want, (n, mu, s)
            cases += 1
    assert cases == 6 + 9 + 7 + 7 + 4


# -- the Casimir-Newton pairing: a reference for the chain ------------------
#
# The form as the polynomial in one Casimir C = C2 + t C3 that takes the value
# c_mu at its eigenvalue on each component, in Newton form over the
# components of a slice.  C2 and C3 separate the components of every block up
# to size 3, which covers every block that this reference pairs.


def _casimir_value(mu, n, order):
    """Eigenvalue on V_mu of the quadratic (order 2) or cubic (order 3) gl(n)
    invariant applied by `_casimir_apply`: the Perelomov-Popov formula,
    summed in closed form over mu padded to n parts (k = 1..n)."""
    lam = mu.padded(n)
    if order == 2:
        return sum(x * (x + n + 1 - 2 * k) for k, x in enumerate(lam, 1))
    size = sum(lam)
    return sum(
        x**3 + (2 * n + 1 - 3 * k) * x * x + ((n + 1 - 2 * k) ** 2 - k * (k - 1)) * x
        for k, x in enumerate(lam, 1)
    ) - (size * size - sum(x * x for x in lam)) // 2


def _casimir_apply(lc, n, t, shift=0):
    """(C2 + t C3 - shift) lc with C2 = sum L_ik L_ki and
    C3 = sum L_ij L_jk L_ki, through Y_ji = sum_k L_jk L_ki lc."""
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


def _slice_nodes(n, margins):
    """(t, mus, lambdas): the components mu of a slice, in ascending
    lexicographic order (which refines dominance), and their eigenvalues of
    C = C2 + t C3, t >= 0 the least integer that makes them distinct."""
    rows, cols = margins
    d = sum(rows)
    mus = sorted(
        (mu for mu in partitions_bounded(n, d)
         if mu.size == d and _dominates(mu, rows) and _dominates(mu, cols)),
        key=lambda mu: mu.parts,
    )
    pairs = [(_casimir_value(mu, n, 2), _casimir_value(mu, n, 3)) for mu in mus]
    assert len(set(pairs)) == len(pairs), "C2 and C3 do not separate the components"
    t = next(t for t in itertools.count() if len({a + t * b for a, b in pairs}) == len(pairs))
    return t, mus, [a + t * b for a, b in pairs]


def _divided_differences(mus, lams, gamma, n):
    """a_j = sum_{i <= j} c_mu_i / prod_{k <= j, k != i} (lambda_i - lambda_k):
    the divided differences of c_mu(gamma) at the nodes, in closed form."""
    out = []
    for j in range(len(mus)):
        a = F(0)
        for i in range(j + 1):
            term = c_mu(mus[i], gamma, n)
            for k in range(j + 1):
                if k != i:
                    term /= lams[i] - lams[k]
            a += term
        out.append(a)
    return out


def _eigen_value(coords, n, t):
    """Exact eigenvalue of C2 + t C3 on coords, or None if not an eigenvector."""
    img = _casimir_apply(coords, n, t)
    ref_m, ref_c = next(iter(coords.items()))
    lam = img.get(ref_m, F(0)) / ref_c
    want = {m: lam * c for m, c in coords.items() if lam * c}
    return lam if img == want else None


def test_casimir_closed_form_matches_highest_vector_eigenvalues():
    cases = 0
    # every block size PERMS accepts, up to MAX_BLOCK = 8
    for n, top in ((1, 6), (2, 6), (3, 6), (4, 4), (5, 3), (6, 3), (7, 2), (8, 2)):
        for mu in partitions_bounded(n, top):
            if mu.size > top:
                continue
            hv = _highest_vector(mu, n)
            c2, c2_plus_c3 = _eigen_value(hv, n, 0), _eigen_value(hv, n, 1)
            assert _casimir_value(mu, n, 2) == c2, (n, mu)
            assert _casimir_value(mu, n, 3) == c2_plus_c3 - c2, (n, mu)
            cases += 1
    assert cases == 7 + 16 + 23 + 12 + 7 + 7 + 4 + 4


def test_casimir_collision_slices_are_answered():
    """C2 and C3 separate the components of every block up to size 3; on
    size 4 they first fail at degree 16, where (7,7,1,1) and (8,5,3) share
    both.  The chain needs no Casimir: the Delta ladder of a size-4 block
    through degree 16 gives the Capelli norm factors, and a vector mixing
    (7,7,1,1) and (8,5,3) on the slice (7,5,2,2)^2 pairs as the sum of
    c_mu times its components' Fock pairings."""

    def nodes(n, d):
        return [(_casimir_value(mu, n, 2), _casimir_value(mu, n, 3))
                for mu in partitions_bounded(n, d) if mu.size == d]

    collide = [(n, d) for n in (1, 2, 3, 4) for d in range(17)
               if len(set(nodes(n, d))) < len(nodes(n, d))]
    assert collide == [(4, 16)]
    big, small = Partition((8, 5, 3)), Partition((7, 7, 1, 1))
    assert _casimir_value(small, 4, 2) == _casimir_value(big, 4, 2)
    assert _casimir_value(small, 4, 3) == _casimir_value(big, 4, 3)

    gamma = F(1, 2)
    assert delta_ladder_norms(4, gamma, (5, 3), 3) == [
        capelli_norm_factor(Partition((5, 3)), gamma, k, 4) for k in range(3)
    ]

    def lowered(mu, word):
        """The highest vector of V_mu (x) V_mu, with the row lowerings L_ij
        of word applied to its rows and then to its columns."""
        vec = _highest_vector(mu, 4)
        for _ in range(2):
            for i, j in word:
                vec = _L_apply(vec, i, j, 4)
            vec = _transpose(vec)
        return vec

    # (r, s, u_mu, v_mu) per component, each lowered to (7,5,2,2) two ways
    parts = [
        (F(2), F(-1, 3), lowered(small, [(2, 1), (3, 1)]), lowered(small, [(3, 1), (2, 1)])),
        (F(1), F(3, 2), lowered(big, [(3, 0), (3, 2)]), lowered(big, [(3, 2), (3, 0)])),
    ]
    assert all(u_mu and v_mu for _r, _s, u_mu, v_mu in parts)
    want = sum(
        c_mu(mu, gamma, 4) * r * s * _fock_pair(u_mu, v_mu)
        for mu, (r, s, u_mu, v_mu) in zip((small, big), parts)
    )
    assert want != 0
    spec = block_spec(4, gamma)

    def states(terms):
        """sum coef vec over (coef, vec) in terms, as a LinComb of states."""
        out = {}
        for coef, vec in terms:
            for mat, c in vec.items():
                key = spec.vacuum()._replace(a=mat)
                out[key] = out.get(key, 0) + coef * c
        return {key: c for key, c in out.items() if c}

    u = states((r, u_mu) for r, _s, u_mu, _v in parts)
    v = states((s, v_mu) for _r, s, _u, v_mu in parts)
    assert inner_product(spec, u, v) == want


# -- the pairing from its definition, one state pair at a time -------------


def _columns(mat, cols):
    return tuple(tuple(row[A] for A in cols) for row in mat)


def _bi_charge(sub):
    return tuple(map(sum, sub)), tuple(map(sum, zip(*sub)))


def _block_pairing(n, gamma, sub1, sub2):
    """sum_j a_j <N_j sub1, sub2>_Fock on a deformed block of size n, zero
    across bi-charge slices: the Casimir-Newton reference, a_j the
    closed-form divided differences, N_0 = sub1 and
    N_{j+1} = (C - lambda_j) N_j."""
    margins = _bi_charge(sub1)
    if margins != _bi_charge(sub2):
        return 0
    t, mus, lams = _slice_nodes(n, margins)
    total, image = F(0), {sub1: 1}
    for a, lam in zip(_divided_differences(mus, lams, gamma, n), lams):
        total += a * _fock_pair(image, {sub2: 1})
        image = _casimir_apply(image, n, t, lam)
    return total


def _definition_inner_product(spec, u, v):
    """<u, v>, bilinear over state pairs: two t^0 states pair only when their
    fermion bits and plain colours agree, and then as the product of the
    plain factorials and of `_block_pairing` on each deformed block."""
    total = F(0)
    for s1, c1 in (u if isinstance(u, dict) else {u: 1}).items():
        for s2, c2 in (v if isinstance(v, dict) else {v: 1}).items():
            if s1.f != s2.f:
                continue
            term = F(c1 * c2)
            for m1, m2, cols, n, gamma in (
                (s1.a, s2.a, spec.A_delta if spec.a_deformed else (), spec.q, spec.gamma_R),
                (s1.b, s2.b, spec.B_delta if spec.b_deformed else (), spec.p, spec.gamma_L),
            ):
                plain = [A for A in range(spec.P) if A not in cols]
                term *= _fock_pair({_columns(m1, plain): 1}, {_columns(m2, plain): 1})
                if cols:
                    term *= _block_pairing(n, gamma, _columns(m1, cols), _columns(m2, cols))
            total += term
    return total


# no deformed block, only a (size 2), only b (size 2), both (sizes 2 and 1),
# both (sizes 2 and 2: a-side tails in the double form)
PAIRING_SPECS = (
    OscillatorSpec.plain(p=1, m=1, q=1, P=2),
    OscillatorSpec(1, 1, 2, 3, F(0), F(1, 2), (), (0, 1), (), ()),
    OscillatorSpec(2, 0, 1, 3, F(-1, 3), F(0), (0, 1), (), (), ()),
    OscillatorSpec(2, 1, 1, 3, F(2, 3), F(-1, 2), (0, 1), (2,), (), ()),
    OscillatorSpec(2, 0, 2, 4, F(1, 2), F(-2, 3), (0, 1), (2, 3), (), ()),
)


@st.composite
def pairing_cases(draw):
    """(spec, pool, u, v): u, v random LinCombs over one pool of t^0 states.

    Plain exponents (0..2) and fermion bits (0/1) each come from one pattern
    per state, so rest keys repeat and carry Fock factors other than 1;
    block exponents are 0..2, so slices hold several monomials."""
    spec = draw(st.sampled_from(PAIRING_SPECS))
    blocks = set(spec.bosons["a"].block) | set(spec.bosons["b"].block)

    def matrix(rows, pattern):
        return tuple(
            tuple(draw(st.integers(0, 2)) if A in blocks else pattern for A in range(spec.P))
            for _ in range(rows)
        )

    pool = []
    for _ in range(draw(st.integers(1, 6))):
        pattern, bits = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        a, b = matrix(spec.q, pattern), matrix(spec.p, pattern)
        pool.append(State(a, b, bits * (2 ** (spec.m * spec.P) - 1), 0, 0))
    # int and Fraction coefficients mixed, as in LinCombs seeded with int 1
    nonzero = st.integers(-4, 4).filter(bool)
    coefficient = nonzero | st.builds(F, nonzero, st.integers(1, 6))

    def lincomb():
        states = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
        return {s: draw(coefficient) for s in states}

    return spec, pool, lincomb(), lincomb()


def _argument_pairs(pool, u, v):
    """(u, v), (v, u), (u, u) (the same-object path), (state, v), (u, state)
    and (state, state)."""
    return ((u, v), (v, u), (u, u), (pool[0], v), (u, pool[-1]), (pool[0], pool[0]))


# Both tests keep the names they were introduced under, after the pairing
# paths they were first checked against; both now check against
# `_definition_inner_product`.


@settings(max_examples=200, deadline=None)
@given(pairing_cases())
def test_prepared_inner_product_matches_grouped_fraction_path(case):
    """`Prepared` vectors, as either argument or both, pair like the LinCombs
    and states they came from; `prepare` passes a `Prepared` through; empty
    vectors pair to 0."""
    spec, pool, u, v = case
    pu = prepare(spec, u, {})
    assert prepare(spec, pu, {}) is pu
    for x, y in _argument_pairs(pool, u, v):
        want = _definition_inner_product(spec, x, y)
        canon = {}  # x and y share their keys, as a held module's vectors do
        px, py = prepare(spec, x, canon), prepare(spec, y, canon)
        for xx, yy in ((px, y), (x, py), (px, py)):
            got = inner_product(spec, xx, yy)
            assert type(got) is F and got == want
    assert inner_product(spec, {}, v) == inner_product(spec, pu, {}) == F(0)


@settings(max_examples=200, deadline=None)
@given(pairing_cases())
def test_integer_inner_product_matches_fraction_summing_path(case):
    """Specs with no deformed block, a only, b only and both; coefficients
    int and Fraction mixed; LinCombs and states."""
    spec, pool, u, v = case
    for x, y in _argument_pairs(pool, u, v):
        got = inner_product(spec, x, y)
        assert type(got) is F and got == _definition_inner_product(spec, x, y)


# delta_ladder_norms and capelli_identity_check at P = 2, 3 over the five
# gammas of the capelli-ladder benchmark (every mu of size <= 3 and height
# <= P, nmax 3; identity cutoffs 3 and 1): the sha256 of the repr of the
# values the Fraction-summing pairing gave, so a changed value or type fails.
CAPELLI_GAMMAS = (F(1, 2), F(-1, 3), F(2, 3), F(-1, 2), F(1, 3))
CAPELLI_DIGEST = "fb567f1f51eed843ad702be649da233b61dbaf2fb666e4e7fe3323f6e9522602"


def test_capelli_values_unchanged_on_benchmark_gammas():
    values = []
    for P in (2, 3):
        for gamma in CAPELLI_GAMMAS:
            for mu in partitions_bounded(P, 3):
                if mu.size > 3:
                    continue
                ratios = delta_ladder_norms(P, gamma, mu, 3)
                assert ratios == [capelli_norm_factor(mu, gamma, n, P) for n in range(3)]
                values.append((P, gamma, mu.parts, ratios))
            values.append((P, gamma, capelli_identity_check(P, gamma, cutoff={2: 3, 3: 1}[P])))
    assert len(values) == 75 and all(v[-1] is True for v in values if len(v) == 3)
    assert hashlib.sha256(repr(values).encode()).hexdigest() == CAPELLI_DIGEST


def test_results_stay_fractions_on_int_seeded_inputs():
    """Exact results are Fractions even where every coefficient is an int."""
    for spec in PAIRING_SPECS:
        s = spec.vacuum()
        assert type(inner_product(spec, s, s)) is F
        assert type(inner_product(spec, {s: 2}, {s: -3})) is F
        assert type(inner_product(spec, {}, {s: 1})) is F

    d = realize(RepLabel(2, 2, 0, (), (), (), 0, F(1, 2)), allow_nonunitary=True)
    rep = gram_positivity(d, cutoff=3)
    assert rep.has_negative
    assert all(type(w) is F for sl in rep.slices for w in sl.weight)
    weight, (tags, coeffs) = rep.negative_witness
    assert all(type(w) is F for w in weight)
    assert len(coeffs) == len(tags) and all(type(c) is F for c in coeffs)

    assert all(type(r) is F for r in delta_ladder_norms(2, F(1, 2), Partition((1,)), 2))
    assert all(type(r) is F for r in delta_ladder_norms(2, 1, Partition(()), 2))
    assert type(capelli_norm_factor(Partition(()), 0, 0, 2)) is F


def _definition_L_apply(lc, i, j, n):
    """L_ij = sum_A x_iA d/dx_jA on {exponent matrix: coefficient}: each
    monomial, times the exponent e of x_jA, with one x_jA traded for x_iA."""
    out = {}
    for mat, coef in lc.items():
        for A in range(n):
            e = mat[j][A]
            if not e:
                continue
            new = [list(r) for r in mat]
            new[j][A] -= 1
            new[i][A] += 1
            tgt = tuple(tuple(r) for r in new)
            out[tgt] = out.get(tgt, 0) + coef * e
    return {k: v for k, v in out.items() if v}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_L_apply_matches_definition(data):
    n = data.draw(st.integers(1, 4))
    entry = st.integers(0, 2)
    mat = st.tuples(*[st.tuples(*[entry] * n)] * n)
    coef = st.integers(-3, 3) | st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    lc = data.draw(st.dictionaries(mat, coef, max_size=6))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    got = _L_apply(lc, i, j, n)
    want = _definition_L_apply(lc, i, j, n)
    assert list(got.items()) == list(want.items())
