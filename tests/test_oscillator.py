import gc
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdual.diagrams import Realization, realize
from superdual.labels import RepLabel, classify_supqm, grading_pmq, weight_from_label
from superdual.oscillator import (
    OscillatorSpec,
    basis_states,
    deformed_action,
    generator_action,
    gram_positivity,
    inner_product,
    verify_hws,
)
from superdual.oscillator import inner
from superdual.oscillator.algebra import ann, column_det, delta_dagger, delta_lower, mul
from superdual.oscillator.capelli import block_spec
from superdual.oscillator.module import (
    analyze_gram,
    build_u0,
    eminus_generators,
    pbw_family,
    u0_k_basis,
)
from superdual.oscillator.states import (
    PERMS,
    State,
    _bump,
    _reduce_block,
    add_into,
    combine,
    reduce_state,
    scale,
)

GAMMAS = (F(1, 2), F(-1, 3), F(2, 3))


def apply_comm(spec, a, b, lc):
    """[E_a, E_b] with the super sign for odd x odd pairs."""
    i, j = a
    k, l = b
    p = spec.p
    m = spec.m

    def parity(x, y):
        bx = 0 if x < p else (1 if x < p + m else 0)
        by = 0 if y < p else (1 if y < p + m else 0)
        return (bx + by) % 2

    left = generator_action(spec, i, j, generator_action(spec, k, l, lc))
    right = generator_action(spec, k, l, generator_action(spec, i, j, lc))
    sign = -1 if parity(i, j) and parity(k, l) else 1
    return combine(left, scale(right, F(-sign)))


def comrel_rhs(spec, a, b, lc):
    i, j = a
    k, l = b
    p, m = spec.p, spec.m

    def parity(x, y):
        bx = 0 if x < p else (1 if x < p + m else 0)
        by = 0 if y < p else (1 if y < p + m else 0)
        return (bx + by) % 2

    out = {}
    if j == k:
        out = combine(out, generator_action(spec, i, l, lc))
    if l == i:
        sgn = -1 if parity(i, j) and parity(k, l) else 1
        out = combine(out, scale(generator_action(spec, k, j, lc), F(-sgn)))
    return out


@pytest.mark.parametrize(
    "spec",
    [
        OscillatorSpec.plain(q=2, P=1),
        OscillatorSpec.plain(m=1, q=1, P=1),
        OscillatorSpec.plain(p=1, m=2, q=1, P=2),
    ],
)
def test_commutation_relations(spec):
    pairs = [(i, j) for i in range(spec.n) for j in range(spec.n)]
    states = basis_states(spec, 2)
    for (a, b) in itertools.product(pairs, repeat=2):
        for st in states[:6]:
            lc = {st: F(1)}
            got = apply_comm(spec, a, b, lc)
            want = comrel_rhs(spec, a, b, lc)
            assert combine(got, scale(want, F(-1))) == {}, (a, b, st)


def test_commutation_deformed_block():
    # gl(2) relations on the deformed block, exactly, including s-states
    spec = block_spec(2, F(1, 2))
    base = spec.p + spec.m
    pairs = [(base + i, base + j) for i in range(2) for j in range(2)]
    for st in basis_states(spec, 2, max_s=1):
        for (a, b) in itertools.product(pairs, repeat=2):
            lc = {st: F(1)}
            got = apply_comm(spec, a, b, lc)
            want = comrel_rhs(spec, a, b, lc)
            assert combine(got, scale(want, F(-1))) == {}


def test_su11_nilpotency():
    spec = OscillatorSpec.plain(m=1, q=1, P=1)
    for st in basis_states(spec, 3):
        twice = generator_action(spec, 0, 1, generator_action(spec, 0, 1, {st: F(1)}))
        assert twice == {}


def test_deformed_action_examples():
    # a acting on the identity monomial of the gamma-block: cofactor * gamma/t
    spec = block_spec(2, F(1, 2))
    vac = spec.vacuum()
    out = deformed_action(spec, "a", "lower", 0, 0, vac)
    (st, coeff), = out.items()
    assert st.sR == 1 and coeff == F(1, 2)  # gamma * cofactor x_22
    assert st.a == ((0, 0), (0, 1))
    # gamma = 0: plain Fock derivative
    spec0 = OscillatorSpec.plain(q=2, P=2)
    st0 = State(((1, 0), (0, 0)), (), 0, 0, 0)
    out0 = deformed_action(spec0, "a", "lower", 0, 0, st0)
    assert out0 == {spec0.vacuum(): F(1)}
    # Delta |> t^0 = gamma(gamma+1) t^-1 for P=2
    res = delta_lower(spec, "a", {vac: F(1)})
    assert res == {vac._replace(sR=1): F(3, 4)}


def test_f_gamma_shift_isomorphism():
    # multiplication by t intertwines the gamma+1 and gamma actions exactly
    g = F(-1, 3)
    spec_lo = block_spec(2, g)
    spec_hi = block_spec(2, g + 1)
    base = 0
    for st in basis_states(spec_hi, 2, max_s=1):
        lc = {st: F(1)}
        for (i, j) in [(0, 1), (1, 0), (0, 0), (1, 1)]:
            lhs = delta_dagger(spec_lo, "a", generator_action(spec_hi, i, j, lc))
            rhs = generator_action(spec_lo, i, j, delta_dagger(spec_lo, "a", lc))
            assert combine(lhs, scale(rhs, F(-1))) == {}


def test_inner_product_examples():
    # |Delta+ |0>|^2 = 2 for P=2, gamma=0, two ways
    spec0 = OscillatorSpec.plain(q=2, P=2)
    det = {
        State(((1, 0), (0, 1)), (), 0, 0, 0): F(1),
        State(((0, 1), (1, 0)), (), 0, 0, 0): F(-1),
    }
    assert inner_product(spec0, det, det) == 2
    spec = block_spec(2, F(1, 2))
    t1 = delta_dagger(spec, "a", {spec.vacuum(): F(1)})
    assert inner_product(spec, t1, t1) == (F(1, 2) + 1) * (F(1, 2) + 2)


def test_adjointness_on_module_slices():
    # <E_ij u, v> = (-1)^{c_i+c_j} <u, E_ji v> on module vectors
    lab = RepLabel(1, 2, 2, (), (1,), (), F(3, 2), 1)
    d = realize(lab)
    spec, u0 = build_u0(d)
    fam = pbw_family(spec, u0_k_basis(spec, u0), 2)
    vecs = [v for sl in fam.values() for (_t, v) in sl][:14]
    g = grading_pmq(spec.p, spec.m, spec.q)
    for i in range(spec.n):
        for j in range(spec.n):
            ci, cj = g.entries[i][1], g.entries[j][1]
            sign = -1 if (ci + cj) % 2 else 1
            for u in vecs[:6]:
                for v in vecs[:6]:
                    lhs = inner_product(spec, generator_action(spec, i, j, u), v)
                    rhs = sign * inner_product(spec, u, generator_action(spec, j, i, v))
                    assert lhs == rhs


def test_verify_hws_table1_and_non_hws():
    d = realize(RepLabel(2, 2, 4, (), (), (5, 0), 0, 1))
    spec, u0 = build_u0(d)
    rep = verify_hws(spec, u0)
    assert rep.raised_to_zero
    assert rep.weight.values == (-1, -1, 1, 1, 1, 1, 5, 0)
    # a+ b+ |0> is not a HWS (E^{+} = b.a acts nontrivially)
    spec2 = OscillatorSpec.plain(p=2, q=2, P=1)
    bad = {State(((1,), (0,)), ((1,), (0,)), 0, 0, 0): F(1)}
    rep2 = verify_hws(spec2, bad)
    assert not rep2.raised_to_zero


def test_fock_vacuum_weight():
    # vacuum with P colours: weight [-(P)-; -0-; -0-]
    lab = RepLabel(2, 2, 4, (), (), (), 2, 0)
    d = realize(lab)
    assert d.realization.P == 2
    spec, u0 = build_u0(d)
    rep = verify_hws(spec, u0)
    assert rep.weight.values == (-2, -2, 0, 0, 0, 0, 0, 0)


def test_gram_su11_continuous():
    pos = gram_positivity(realize(RepLabel(1, 1, 0, (), (), (), 0, F(3, 2))), cutoff=6)
    assert pos.positive_definite
    # beta = 1/2 is unitary for su(1,1) (threshold is h = 0): stays positive
    pos2 = gram_positivity(
        realize(RepLabel(1, 1, 0, (), (), (), 0, F(1, 2))), cutoff=6
    )
    assert pos2.positive_definite


def test_gram_su22_negative_witness():
    lab = RepLabel(2, 2, 0, (), (), (), 0, F(1, 2))
    assert not classify_supqm(lab).unitary
    rep = gram_positivity(realize(lab, allow_nonunitary=True), cutoff=3)
    assert rep.has_negative and rep.negative_witness is not None


def test_gram_su22_polynomial_shortening_kernel():
    # su(2|2) weight [1,1;0,0]: the kernel vector is the antisymmetrised
    # two-step lowering monomial; each monomial alone acts nonzero
    lab = RepLabel(0, 2, 2, (), (), (), 0, 1)
    d = realize(lab)
    spec, u0 = build_u0(d)
    rep = verify_hws(spec, u0)
    assert rep.weight.values == (1, 1, 0, 0)
    g = gram_positivity(d, cutoff=2)
    # three null directions: the two same-column two-step monomial
    # shortenings (r_a = 2) plus the mixed-column polynomial combination
    assert not g.has_negative and g.kernel_total == 3
    mixed = [s for s in g.slices if s.weight == (F(0), F(0), F(1), F(1))]
    assert len(mixed) == 1 and mixed[0].dim == 2 and mixed[0].kernel_dim == 1
    # the explicit null combination: E_{31}, E_{42} vs E_{32}, E_{41} (0-based
    # fermions 0,1; bosons 2,3)
    m1 = generator_action(spec, 3, 1, generator_action(spec, 2, 0, {s: c for s, c in u0.items()}))
    m2 = generator_action(spec, 3, 0, generator_action(spec, 2, 1, {s: c for s, c in u0.items()}))
    assert m1 and m2
    null = combine(m1, m2)
    assert inner_product(spec, null, null) == 0
    assert all(inner_product(spec, null, v) == 0 for v in (m1, m2))


# -- the PBW family rebuilt from each base vector -----------------------------
# kept as the reference for the suffix build of `pbw_family`


def _old_pbw_family(spec, u0_basis, cutoff):
    """Monomials from a recursive walk; every vector rebuilt from its base
    vector, generator by generator; slices in order of first appearance."""
    gens = eminus_generators(spec)
    monomials = [()]

    def extend(prefix, start):
        for gi in range(start, len(gens)):
            if gens[gi][2] and prefix and prefix[-1] == gi:
                continue
            new = prefix + (gi,)
            if len(new) <= cutoff:
                monomials.append(new)
                extend(new, gi)

    extend((), 0)
    slices = {}
    for mono in monomials:
        for bi, base in enumerate(u0_basis):
            charge = list(spec.state_charge(next(iter(base))))
            for gi in mono:
                i, j, _odd = gens[gi]
                charge[i] += 1
                charge[j] -= 1
            vec = base
            for gi in reversed(mono):
                i, j, _odd = gens[gi]
                vec = generator_action(spec, i, j, vec)
                if not vec:
                    break
            slices.setdefault(spec.charge_weight(tuple(charge)), []).append(((mono, bi), vec))
    return slices


# (label, largest cutoff): the shapes of the criterion-3 labels and of the
# benchmark's oracle menu, with deformed, undeformed and fermionic blocks
PBW_LABELS = (
    (RepLabel(1, 1, 0, (), (), (), 0, F(3, 2)), 4),
    (RepLabel(1, 1, 0, (), (), (), 0, 2), 4),
    (RepLabel(1, 1, 1, (), (), (), F(5, 3), F(2, 3)), 4),
    (RepLabel(1, 1, 1, (), (), (), 1, F(3, 2)), 4),
    (RepLabel(2, 1, 2, (), (1, 0), (), 2 + F(-1, 3), 0), 3),
    (RepLabel(2, 1, 2, (1, 0), (), (), 1, 0), 4),
    (RepLabel(2, 1, 2, (), (), (), F(5, 2), 1), 3),
    (RepLabel(2, 2, 0, (), (), (), 0, F(7, 2)), 4),
    (RepLabel(2, 2, 0, (1, 0), (), (1, 0), 0, 2), 4),
    (RepLabel(2, 2, 0, (1,), (), (), 0, F(5, 2)), 4),
    (RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0), 2),
    (RepLabel(2, 2, 4, (), (), (), 2 + F(-1, 2), 2 + F(-1, 2)), 2),
    (RepLabel(0, 2, 2, (), (), (), 0, 1), 4),
)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pbw_suffix_build_matches_rebuild_from_base(data):
    lab, top = data.draw(st.sampled_from(PBW_LABELS))
    cutoff = data.draw(st.integers(1, top))
    spec, u0 = build_u0(realize(lab, allow_nonunitary=True))
    basis = u0_k_basis(spec, u0)
    got = pbw_family(spec, basis, cutoff)
    want = _old_pbw_family(spec, basis, cutoff)
    assert list(got) == sorted(want)  # ascending weight order
    assert got == want  # the same tags in the same order, equal vectors


def test_gram_positivity_leaves_no_cyclic_garbage():
    """A call builds no reference cycle, so its vectors die with it rather
    than at the next cyclic collection."""
    for lab, cutoff in ((RepLabel(2, 1, 2, (), (), (), F(5, 2), 1), 3),
                        (RepLabel(2, 2, 4, (), (), (), 1, 1), 2)):
        d = realize(lab, allow_nonunitary=True)
        gram_positivity(d, cutoff=cutoff)  # warm the shared tables
        gc.collect()
        gc.disable()
        try:
            gram_positivity(d, cutoff=cutoff)
            assert gc.collect() == 0, str(lab)
        finally:
            gc.enable()


def test_helicity_and_masslessness():
    from superdual.oscillator import generator_matrix, helicity, is_massless

    # P = 1 doubleton (a+)^m: helicity m/2
    for m in (1, 2, 3):
        lab = RepLabel(2, 2, 0, (), (), (m, 0), 0, 1)
        d = realize(lab)
        assert d.realization.P == 1
        spec, u0 = build_u0(d)
        assert helicity(spec, u0) == F(m, 2)
    assert is_massless(OscillatorSpec.plain(p=2, q=2, P=1))
    assert not is_massless(OscillatorSpec.plain(p=2, q=2, P=2))


def test_conformal_hamiltonian_on_vacuum():
    # H = (N_a + N_b)/2 + P has eigenvalue P on |0> (E_0 = P = 1 doubleton)
    spec = OscillatorSpec.plain(p=2, m=4, q=2, P=1)
    vac = {spec.vacuum(): F(1)}
    h = {}
    for (i, sgn) in [(0, -1), (1, -1), (6, 1), (7, 1)]:
        for s, c in generator_action(spec, i, i, vac).items():
            from superdual.oscillator.states import add_into

            add_into(h, s, F(sgn, 2) * c)
    assert h == {spec.vacuum(): F(1)}


def test_generator_matrix_api():
    from superdual.oscillator import generator_matrix

    spec = OscillatorSpec.plain(q=2, P=1)
    basis, cols = generator_matrix(spec, 0, 1, cutoff=2)
    assert len(basis) == 6  # monomials of degree <= 2 in two variables
    # E_12 maps x2 -> x1
    idx = {s: k for k, s in enumerate(basis)}
    x2 = State(((0,), (1,)), (), 0, 0, 0)
    x1 = State(((1,), (0,)), (), 0, 0, 0)
    assert cols[idx[x2]] == {x1: F(1)}


def test_perm_table_is_lazy_and_bounded():
    from superdual.oscillator.states import MAX_BLOCK, PERMS

    table = PERMS[5]
    assert PERMS[5] is table
    assert sorted(p for p, _ in table) == list(itertools.permutations(range(5)))
    for perm, sign in table:
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(5), 2))
        assert sign == (-1) ** inversions
    for n in (0, MAX_BLOCK + 1):
        with pytest.raises(ValueError, match="outside the supported"):
            PERMS[n]
        assert n not in PERMS


# ---------------------------------------------------------------------------
# column determinant and normal form against their permutation-sum references
# ---------------------------------------------------------------------------

def _naive_column_det(n, op, lc, order):
    """sum over PERMS[n] of sgn(sigma) times the whole op chain, columns in order."""
    total = {}
    for perm, sign in PERMS[n]:
        term = lc
        for k in order:
            term = op(perm[k], k, term)
        total = combine(total, scale(term, F(sign)))
    return total


@st.composite
def block_vectors(draw, n):
    """A LinComb of one or two canonical states of block_spec(n, gamma)'s
    block, each of degree <= 3 in x and of s power <= 1."""
    spec = draw(st.sampled_from(GAMMAS).map(lambda g: block_spec(n, g)))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    lc = {}
    for _ in range(draw(st.integers(1, 2))):
        mat = tuple((0,) * n for _ in range(n))
        for r, c in draw(st.lists(cell, max_size=3)):
            mat = _bump(mat, r, c, +1)
        state = State(mat, (), 0, 0, draw(st.integers(0, 1)))
        coeff = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        for s, c in spec.reduce(state).items():
            add_into(lc, s, coeff * c)
    return spec, lc


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_column_det_matches_permutation_sum(data):
    """column_det equals the n!-term sum for non-commuting generator entries
    (plus a diagonal shift), in both column orders."""
    n = data.draw(st.integers(1, 4))
    spec, lc = data.draw(block_vectors(n))
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))

    def op(row, k, term):
        image = generator_action(spec, row, k, term)
        return combine(image, scale(term, F(shift[row]))) if row == k else image

    for order in (range(n), range(n - 1, -1, -1)):
        assert column_det(n, op, lc, order) == _naive_column_det(n, op, lc, order)
    with pytest.raises(ValueError, match="monotone"):
        column_det(3, op, lc, (0, 2, 1))


def _fraction_reduce_block(mat, s, cols):
    """The normal form modulo det X - t by direct recursion over Fractions."""
    n = len(cols)
    if s == 0 or n == 0 or any(mat[i][cols[i]] == 0 for i in range(n)):
        return [(mat, s, F(1))]
    stripped = mat
    for i in range(n):
        stripped = _bump(stripped, i, cols[i], -1)
    out = list(_fraction_reduce_block(stripped, s - 1, cols))
    for perm, sign in PERMS[n]:
        if list(perm) == list(range(n)):
            continue
        withperm = stripped
        for i in range(n):
            withperm = _bump(withperm, i, cols[perm[i]], +1)
        for mat2, s2, c2 in _fraction_reduce_block(withperm, s, cols):
            out.append((mat2, s2, -sign * c2))
    merged = {}
    for mat2, s2, c2 in out:
        merged[mat2, s2] = merged.get((mat2, s2), F(0)) + c2
    return [(mm, ss, cc) for (mm, ss), cc in merged.items() if cc != 0]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_memoised_normal_form_matches_fraction_recursion(data):
    """_reduce_block (memoised, integer) equals the Fraction recursion, on a
    cold memo and again when every key is warm."""
    n = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(0, 2))
    rows = data.draw(st.integers(n, n + 1))  # a flavour outside the block
    width = data.draw(st.integers(n, n + 1))  # a colour outside the block
    cols = tuple(sorted(data.draw(st.permutations(range(width)))[:n]))
    top = 1 if n == 4 else 2
    cells = data.draw(st.lists(st.integers(0, top), min_size=rows * width, max_size=rows * width))
    for i in range(n):  # a full diagonal, so the relation applies
        cells[i * width + cols[i]] = max(cells[i * width + cols[i]], 1)
    mat = tuple(tuple(cells[r * width:(r + 1) * width]) for r in range(rows))
    want = {(m, k): c for m, k, c in _fraction_reduce_block(mat, s, cols)}

    inner.clear_caches()
    cold = _reduce_block(mat, s, cols)
    warm = _reduce_block(mat, s, cols)
    for form in (cold, warm):
        assert isinstance(form, tuple)
        assert all(type(c) is int for _m, _k, c in form)
        assert {(m, k): c for m, k, c in form} == want
    if s:
        assert warm is cold  # a memo hit


# ---------------------------------------------------------------------------
# analyze_gram: witnesses, including the isotropic branch
# ---------------------------------------------------------------------------

def _norm(G, w):
    return sum(w[i] * G[i][j] * w[j] for i in range(len(G)) for j in range(len(G)))


def _rank(G):
    rows = [list(r) for r in G]
    rank = 0
    for col in range(len(G)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("h", [F(0), F(3), F(-5, 2)])
def test_analyze_gram_isotropic_witness(h):
    # e_0 is null but pairs with e_1: the witness comes from the isotropic branch
    G = [[F(0), F(1)], [F(1), h]]
    kernel, witness = analyze_gram(G)
    assert kernel == 0 and witness is not None
    assert _norm(G, witness) < 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_analyze_gram_witness_negative_or_kernel_exact(data):
    """A returned witness has negative norm; without one, the kernel count is
    exactly N - rank G."""
    n = data.draw(st.integers(1, 4))
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])
    G = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = data.draw(entry)
    kernel, witness = analyze_gram(G)
    if witness is not None:
        assert _norm(G, witness) < 0
    else:
        assert kernel == n - _rank(G)


def _gram_schmidt_reference(G):
    """The dense Gram-Schmidt elimination that `analyze_gram` replaced."""
    n = len(G)
    pivots = []  # (coeff vector, G @ coeff, norm)
    kernel = 0
    for i in range(n):
        c = [F(1) if t == i else F(0) for t in range(n)]
        for (cj, gj, nj) in pivots:
            num = sum(c[t] * gj[t] for t in range(n) if c[t])
            if num:
                f = num / nj
                c = [a - f * b for a, b in zip(c, cj)]
        g = [sum(G[u][t] * c[t] for t in range(n) if c[t]) for u in range(n)]
        norm = sum(c[t] * g[t] for t in range(n) if c[t])
        if norm > 0:
            pivots.append((c, g, norm))
        elif norm < 0:
            return kernel, c
        else:
            partner = next((u for u in range(n) if g[u] != 0), None)
            if partner is None:
                kernel += 1
            else:
                s = g[partner]
                h = G[partner][partner]
                tau = -(abs(h) + 1) / (2 * s)
                wit = [tau * x for x in c]
                wit[partner] += 1
                return kernel, wit
    return kernel, None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_analyze_gram_matches_gram_schmidt_reference(data):
    """The RowSpace reduction returns the reference's kernel count and
    witness, coefficient for coefficient, on random symmetric matrices
    (isotropic and negative directions) and on Gram matrices of dependent
    vectors (positive semidefinite, with kernels)."""
    n = data.draw(st.integers(1, 6))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    if data.draw(st.booleans()):
        entry = st.one_of(st.just(F(0)), small)
        G = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = data.draw(entry)
    else:
        dim = data.draw(st.integers(1, 4))
        vecs = [[data.draw(st.integers(-2, 2)) for _ in range(dim)] for _ in range(n)]
        G = [[F(sum(a * b for a, b in zip(u, v))) for v in vecs] for u in vecs]
    assert repr(analyze_gram(G)) == repr(_gram_schmidt_reference(G))


# the a/b boson operators as written before the `Boson` records, one branch
# per family: references for `mul`, `ann`, `delta_dagger` and `delta_lower`

def _ref_reduce(spec, state):
    return reduce_state(
        state,
        spec.A_delta if spec.a_deformed else (),
        spec.B_delta if spec.b_deformed else (),
    )


def _ref_add_reduced(spec, out, state, coeff):
    for rs, rc in _ref_reduce(spec, state).items():
        add_into(out, rs, coeff * rc)


def _ref_mul(spec, which, fl, col, lc):
    out = {}
    for s, c in lc.items():
        if which == "a":
            ns = s._replace(a=_bump(s.a, fl, col, +1))
            block = s.sR and spec.a_deformed and col in spec.A_delta
        else:
            ns = s._replace(b=_bump(s.b, fl, col, +1))
            block = s.sL and spec.b_deformed and col in spec.B_delta
        if block:
            _ref_add_reduced(spec, out, ns, c)
        else:
            add_into(out, ns, c)
    return out


def _ref_ann(spec, which, fl, col, lc):
    deformed = spec.a_deformed if which == "a" else spec.b_deformed
    cols = spec.A_delta if which == "a" else spec.B_delta
    gamma = spec.gamma_R if which == "a" else spec.gamma_L
    out = {}
    for s, c in lc.items():
        mat = s.a if which == "a" else s.b
        spow = s.sR if which == "a" else s.sL
        if mat[fl][col]:
            add_into(out, s._replace(**{which: _bump(mat, fl, col, -1)}), c * mat[fl][col])
        if deformed and col in cols and gamma != spow:
            tail = c * (gamma - spow)
            pos = cols.index(col)
            n = len(cols)
            for perm, sign in PERMS[n]:
                if perm[fl] != pos:
                    continue
                ns_mat = mat
                for j in range(n):
                    if j != fl:
                        ns_mat = _bump(ns_mat, j, cols[perm[j]], +1)
                if which == "a":
                    ns = s._replace(a=ns_mat, sR=spow + 1)
                else:
                    ns = s._replace(b=ns_mat, sL=spow + 1)
                _ref_add_reduced(spec, out, ns, tail if sign == 1 else -tail)
    return out


def _ref_delta_dagger(spec, which, lc):
    cols = spec.A_delta if which == "a" else spec.B_delta
    n = len(cols)
    out = {}
    for s, c in lc.items():
        spow = s.sR if which == "a" else s.sL
        if spow:
            ns = s._replace(sR=s.sR - 1) if which == "a" else s._replace(sL=s.sL - 1)
            add_into(out, ns, c)
            continue
        mat = s.a if which == "a" else s.b
        for perm, sign in PERMS[n]:
            ns_mat = mat
            for i in range(n):
                ns_mat = _bump(ns_mat, i, cols[perm[i]], +1)
            add_into(out, s._replace(**{which: ns_mat}), c * sign)
    return out


def _ref_delta_lower(spec, which, lc):
    cols = spec.A_delta if which == "a" else spec.B_delta
    return _naive_column_det(
        len(cols), lambda row, k, term: _ref_ann(spec, which, row, cols[k], term), lc, range(len(cols))
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_boson_operators_match_per_family_reference(data):
    """mul, ann, delta_dagger and delta_lower read one `Boson` record and
    equal the per-family reference on both families, with and without a
    deformed block, on random canonical states of s power 0..2."""
    p, q = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    gammas = st.sampled_from((F(0),) + GAMMAS)
    gamma_L, gamma_R = data.draw(gammas), data.draw(gammas)
    P = p + q + data.draw(st.integers(0, 1))  # maybe one plain colour
    spec = OscillatorSpec(
        p, 0, q, P, gamma_L, gamma_R, tuple(range(p)), tuple(range(p, p + q)), (), ()
    )

    def mat(rows):
        return tuple(tuple(data.draw(st.integers(0, 2)) for _ in range(P)) for _ in range(rows))

    lc = {}
    for _ in range(data.draw(st.integers(1, 2))):
        state = State(
            mat(q), mat(p), 0,
            data.draw(st.integers(0, 2)) if gamma_L else 0,
            data.draw(st.integers(0, 2)) if gamma_R else 0,
        )
        coeff = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        _ref_add_reduced(spec, lc, state, coeff)
    for which, flavours in (("a", q), ("b", p)):
        fam = spec.bosons[which]
        for fl in range(flavours):
            for col in range(P):
                assert mul(spec, fam, fl, col, lc) == _ref_mul(spec, which, fl, col, lc)
                assert ann(spec, fam, fl, col, lc) == _ref_ann(spec, which, fl, col, lc)
        assert delta_dagger(spec, which, lc) == _ref_delta_dagger(spec, which, lc)
        assert delta_lower(spec, which, lc) == _ref_delta_lower(spec, which, lc)


def _old_state_weight(spec, s):
    """The Fraction weight formula that `state_charge` replaced."""
    out = []
    for r in range(spec.p):
        val = -(sum(s.b[r]) + spec.P)
        if spec.b_deformed:
            val -= spec.gamma_L - s.sL
        out.append(F(val))
    for a in range(spec.m):
        out.append(F(sum(1 for A in range(spec.P) if s.f >> (a * spec.P + A) & 1)))
    for al in range(spec.q):
        val = sum(s.a[al])
        if spec.a_deformed:
            val += spec.gamma_R - s.sR
        out.append(F(val))
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_state_charge_is_weight_minus_constant_offsets(data):
    p, m, q = (data.draw(st.integers(0, 2)) for _ in range(3))
    P = data.draw(st.integers(1, 3))
    gammas = st.sampled_from((F(0),) + GAMMAS)
    gamma_L, gamma_R = data.draw(gammas), data.draw(gammas)
    spec = OscillatorSpec(p, m, q, P, gamma_L, gamma_R, (), (), (), ())

    def state():
        def mat(rows):
            return tuple(tuple(data.draw(st.integers(0, 1)) for _ in range(P)) for _ in range(rows))

        return State(
            mat(q), mat(p), data.draw(st.integers(0, 2 ** (m * P) - 1)),
            data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)),
        )

    s1 = state()
    if data.draw(st.booleans()):
        # the same colours permuted: every row sum and fermion count kept
        perm = data.draw(st.permutations(range(P)))

        def shuffle(mat):
            return tuple(tuple(row[A] for A in perm) for row in mat)

        f = sum(
            1 << (a * P + A) for a in range(m) for A in range(P) if s1.f >> (a * P + perm[A]) & 1
        )
        s2 = State(shuffle(s1.a), shuffle(s1.b), f, s1.sL, s1.sR)
    else:
        s2 = state()
    for s in (s1, s2):
        weight, charge = spec.state_weight(s), spec.state_charge(s)
        assert weight == _old_state_weight(spec, s)
        assert all(type(w) is F for w in weight) and all(type(c) is int for c in charge)
        assert spec.charge_weight(charge) == weight
    same_charge = spec.state_charge(s1) == spec.state_charge(s2)
    assert same_charge == (spec.state_weight(s1) == spec.state_weight(s2))
