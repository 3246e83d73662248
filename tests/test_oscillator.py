import gc
import itertools
import math
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import superdual.oscillator
from superdual.diagrams import realize
from superdual.ktypes import dimension, highest_weight_counts, is_dominant, k_blocks
from superdual.labels import RepLabel, classify_supqm, grading_pmq
from superdual.oscillator import (
    OscillatorSpec,
    basis_states,
    generator_action,
    gram_positivity,
    inner_product,
    verify_hws,
)
from superdual.oscillator import inner, module
from superdual.oscillator.algebra import ann, column_det, delta_dagger, delta_lower, mul
from superdual.oscillator.capelli import block_spec
from superdual.oscillator.module import (
    RowSpace,
    analyze_gram,
    build_u0,
    eminus_generators,
    monomial_count,
    pbw_family,
    u0_k_basis,
)
from superdual.oscillator.states import (
    MAX_PBW_FAMILY,
    PERMS,
    State,
    _bump,
    _reduce_block,
    add_into,
    combine,
    scale,
    set_field,
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
    out = ann(spec, spec.bosons["a"], 0, 0, {vac: 1})
    (st, coeff), = out.items()
    assert st.sR == 1 and coeff == F(1, 2)  # gamma * cofactor x_22
    assert st.a == ((0, 0), (0, 1))
    # gamma = 0: plain Fock derivative
    spec0 = OscillatorSpec.plain(q=2, P=2)
    st0 = State(((1, 0), (0, 0)), (), 0, 0, 0)
    out0 = ann(spec0, spec0.bosons["a"], 0, 0, {st0: 1})
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


def test_su22_kernel_counts_match_the_closed_form():
    """su(2,2) at cutoffs 2, 3, 4.  At beta = 0 only the vacuum survives, so
    the kernel at depth k is all C(k+3, 3) monomials of that length; at
    beta = 1 the K-types at depth k are lambda = (k) alone, of dimension
    (k+1)^2, so the kernel there is C(k+3, 3) - (k+1)^2."""
    for beta, at_depth, want in ((0, lambda k: math.comb(k + 3, 3), [14, 34, 69]),
                                 (1, lambda k: math.comb(k + 3, 3) - (k + 1) ** 2, [1, 5, 15])):
        d = realize(RepLabel(2, 2, 0, (), (), (), 0, beta))
        got = [gram_positivity(d, cutoff=c).kernel_total for c in (2, 3, 4)]
        assert got == want == [sum(map(at_depth, range(1, c + 1))) for c in (2, 3, 4)]


# -- the PBW spanning family from its definition ------------------------------


def _definition_pbw_family(spec, u0_basis, cutoff):
    """{weight: [((mono, bi), E_mono u_bi)]} in ascending weight order.

    mono runs over the non-decreasing words of length <= cutoff in the E^(-)
    generators with no odd generator repeated, in lexicographic order, and
    acts right to left; a vector's weight is u_bi's weight plus the roots
    e_i - e_j of its generators E_ij."""
    gens = eminus_generators(spec)
    monos = (
        mono
        for k in range(cutoff + 1)
        for mono in itertools.product(range(len(gens)), repeat=k)
        if list(mono) == sorted(mono) and all(mono.count(g) == 1 for g in mono if gens[g][2])
    )
    slices = {}
    for mono in sorted(monos):
        for bi, base in enumerate(u0_basis):
            weight = list(spec.state_weight(next(iter(base))))
            vec = base
            for g in reversed(mono):
                i, j, _odd = gens[g]
                weight[i] += 1
                weight[j] -= 1
                vec = generator_action(spec, i, j, vec)
            slices.setdefault(tuple(weight), []).append(((mono, bi), vec))
    return dict(sorted(slices.items()))


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
    want = _definition_pbw_family(spec, basis, cutoff)
    blocks = k_blocks(spec.p, spec.m, spec.q)
    # the K-dominant slices in ascending weight order, with the same tags in
    # the same order and equal vectors
    assert [spec.charge_weight(c) for c in got] == [w for w in want if is_dominant(blocks, w)]
    assert all(fam == want[spec.charge_weight(c)] for c, fam in got.items())
    # their sizes give the whole family's size through its K-types
    types = highest_weight_counts(blocks, {c: len(fam) for c, fam in got.items()})
    assert min(types.values()) >= 0
    size = sum(dimension(blocks, nu) * h for nu, h in types.items())
    assert size == sum(map(len, want.values()))
    assert size == len(basis) * monomial_count(eminus_generators(spec), cutoff)


def test_pbw_family_is_bounded_before_any_vector_is_built():
    """The closed-form count on Yang-Mills at cutoffs 2..7, and a refusal
    past MAX_PBW_FAMILY monomials raised before the first E^(-) action."""
    ym = RepLabel(2, 2, 4, (0, 0), (1, 1, 0, 0), (0, 0), 0, 0)
    spec, u0 = build_u0(realize(ym))
    basis = u0_k_basis(spec, u0)
    gens = eminus_generators(spec)
    counts = [monomial_count(gens, cutoff) for cutoff in range(2, 8)]
    assert counts == [215, 1435, 7050, 27314, 87374, 238710]
    assert counts[4] <= MAX_PBW_FAMILY < counts[5]
    with mock.patch.object(module, "generator_action", side_effect=AssertionError("built")):
        with pytest.raises(ValueError, match="238710 monomials"):
            pbw_family(spec, basis, 7)


def test_pbw_family_stops_once_past_the_bound_on_vectors_built():
    """su(2,1|2) at cutoff 3 walks 111 monomials and builds more vectors
    than that, its four basis vectors included.  With the bound lowered to
    111 the closed-form check passes, and the walk stops with ValueError
    once it has built more than 111, before its last E^(-) action."""
    lab = RepLabel(2, 1, 2, (1,), (1,), (), F(5, 2), 1)
    spec, u0 = build_u0(realize(lab))
    basis = u0_k_basis(spec, u0)
    assert monomial_count(eminus_generators(spec), 3) == 111
    with mock.patch.object(module, "generator_action", wraps=module.generator_action) as act:
        pbw_family(spec, basis, 3)
    full = act.call_count
    with mock.patch.object(module, "MAX_PBW_FAMILY", 111), \
            mock.patch.object(module, "generator_action", wraps=module.generator_action) as act:
        with pytest.raises(ValueError, match="builds more than 111 vectors"):
            pbw_family(spec, basis, 3)
    assert 0 < act.call_count < full


def test_pbw_family_builds_only_dominant_targets_and_their_suffixes():
    """Yang-Mills at cutoff 3: one E^(-) action per vector built, the
    dominant targets and their suffixes, 516 in all."""
    ym = RepLabel(2, 2, 4, (0, 0), (1, 1, 0, 0), (0, 0), 0, 0)
    spec, u0 = build_u0(realize(ym))
    basis = u0_k_basis(spec, u0)
    with mock.patch.object(module, "generator_action", wraps=module.generator_action) as act:
        pbw_family(spec, basis, 3)
    assert act.call_count == 516


def test_u0_k_basis_closes_at_weyl_dimension():
    """U_0's K-orbit has the Weyl dimension of u0's charge; a vector of
    non-dominant charge, or an orbit that closes at another size, is an
    internal inconsistency."""
    spec, u0 = build_u0(realize(RepLabel(2, 2, 4, (0, 0), (1, 1, 0, 0), (0, 0), 0, 0)))
    blocks = k_blocks(spec.p, spec.m, spec.q)
    size = dimension(blocks, spec.state_charge(next(iter(u0))))
    basis = u0_k_basis(spec, u0)
    assert len(basis) == size == 6
    with pytest.raises(AssertionError, match="not K-dominant"):
        u0_k_basis(spec, basis[1])  # f-block charge (0, 1, 1, 0)
    with mock.patch.object(module, "dimension", lambda blocks, nu: dimension(blocks, nu) + 1):
        with pytest.raises(AssertionError, match=f"closed at {size} vectors, not {size + 1}"):
            u0_k_basis(spec, u0)


# pbw_family's charge checks, run under `python -O`: a base vector or a built
# vector with states of two charges raises AssertionError
CHARGE_CHECKS_UNDER_O = """
from unittest import mock
from superdual.diagrams import realize
from superdual.labels import RepLabel
from superdual.oscillator import module

spec, u0 = module.build_u0(realize(RepLabel(1, 1, 1, (), (), (), 1, 3)))
basis = module.u0_k_basis(spec, u0)
act = module.generator_action
lowered = next(v for v in (act(spec, i, j, u0) for i, j, _o in module.eminus_generators(spec)) if v)
own, other = next(iter(u0)), next(iter(lowered))  # two states of different charge
for what, action, family in (
    ("PBW vector mixes", lambda *args: {**act(*args), own: 1}, basis),
    ("U_0 basis vector mixes", act, [{**basis[0], other: 1}]),
):
    with mock.patch.object(module, "generator_action", action):
        try:
            module.pbw_family(spec, family, 2)
        except AssertionError as exc:
            if what not in str(exc):
                raise
        else:
            raise SystemExit("not raised: " + what)
"""


def test_pbw_charge_checks_survive_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", CHARGE_CHECKS_UNDER_O],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _full_slice_report(d, cutoff):
    """{weight: (dim, kernel_dim, negative)} of every weight slice, from the
    definition of the family, `inner_product` and `analyze_gram`."""
    spec, u0 = build_u0(d)
    family = _definition_pbw_family(spec, u0_k_basis(spec, u0), cutoff)
    out = {}
    for weight, fam in family.items():
        G = [[inner_product(spec, u, v) for _t, v in fam] for _t, u in fam]
        kernel, witness = analyze_gram(G)
        out[weight] = (len(fam), kernel, witness is not None)
    return spec, out


# (p, q, m) of the random labels: every block size up to 2, one of 3
RANDOM_SHAPES = ((1, 1, 1), (2, 1, 0), (1, 2, 0), (2, 2, 0), (3, 1, 0), (2, 1, 1),
                 (1, 2, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2), (0, 2, 2), (2, 0, 2))
RANDOM_BETAS = tuple(F(k, 6) for k in range(-3, 16) if k % 6 in (0, 2, 3, 4))  # integers, halves, thirds


def _proper_partition(data, size):
    """A partition of height < size with entries <= 2 (() for size <= 1)."""
    parts = data.draw(st.lists(st.integers(0, 2), max_size=max(size - 1, 0)))
    return tuple(sorted(parts, reverse=True))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_k_type_slices_match_every_weight_slice(data):
    """On random labels: the K-dominant slices give the verdict of all the
    slices, kernel_total is the sum of every slice's kernel_dim, and the
    kernels are a K-character (every h0 >= 0)."""
    p, q, m = data.draw(st.sampled_from(RANDOM_SHAPES))
    mu_l, tau, mu_r = (_proper_partition(data, n) for n in (p, m, q))
    beta_l = data.draw(st.sampled_from(RANDOM_BETAS)) if p and m else 0
    beta_r = data.draw(st.sampled_from(RANDOM_BETAS)) if q else 0
    cutoff = 3 if p + q + m <= 3 else 2
    try:
        d = realize(RepLabel(p, q, m, mu_l, tau, mu_r, beta_l, beta_r), allow_nonunitary=True)
        rep = gram_positivity(d, cutoff=cutoff)
    except ValueError:  # a label or realization outside the oracle's range
        assume(False)
    spec, full = _full_slice_report(d, cutoff)
    blocks = k_blocks(p, m, q)
    assert [s.weight for s in rep.slices] == [w for w in full if is_dominant(blocks, w)]
    assert all((s.dim, s.kernel_dim, s.negative) == full[s.weight] for s in rep.slices)
    assert rep.has_negative == any(neg for _dim, _kernel, neg in full.values())
    assert rep.kernel_total == sum(kernel for _dim, kernel, _neg in full.values())
    offsets = spec.charge_weight((0,) * spec.n)
    h0 = highest_weight_counts(
        blocks,
        {tuple(int(w - o) for w, o in zip(s.weight, offsets)): s.kernel_dim for s in rep.slices})
    assert min(h0.values()) >= 0


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


# (p, q, m) -> cutoff of the shapes drawn for the gamma-free module memo
MEMO_SHAPES = {(1, 1, 0): 4, (2, 2, 0): 2, (1, 1, 1): 3, (2, 1, 2): 2}
HALVES_THIRDS = (F(1, 3), F(1, 2), F(2, 3))


def _key_of(d, cutoff):
    return module.module_key(OscillatorSpec.from_diagram(d), d.label, cutoff)


def _report(d, cutoff):
    return repr(gram_positivity(d, cutoff=cutoff))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_gamma_free_module_is_shared_across_gamma(data):
    """Two labels of one realization shape at different gammas, their betas
    an offset from the bound in halves or thirds as the benchmark draws them:
    the modules built cold at each gamma are equal (tags and prepared
    vectors), and each report reads the same with the memo warm from the
    other label as with the memo cleared."""
    (p, q, m), cutoff = data.draw(st.sampled_from(sorted(MEMO_SHAPES.items())))
    mu_l, tau, mu_r = (_proper_partition(data, n) for n in (p, m, q))
    base_r = len(mu_r) + (0 if m else len(mu_l)) + data.draw(st.integers(-1, 1))
    brs = [base_r + x for x in data.draw(
        st.lists(st.sampled_from(HALVES_THIRDS), min_size=2, max_size=2, unique=True))]
    bl = 0
    if m:
        bl = len(mu_l) + data.draw(st.integers(-1, 1)) + data.draw(
            st.sampled_from((0,) + HALVES_THIRDS))
    try:
        ds = [realize(RepLabel(p, q, m, mu_l, tau, mu_r, bl, br), allow_nonunitary=True)
              for br in brs]
        keys = [_key_of(d, cutoff) for d in ds]
    except ValueError:  # a label or realization outside the oracle's range
        assume(False)
    assert keys[0] == keys[1]
    assert ds[0].realization.gamma_R != ds[1].realization.gamma_R or (
        ds[0].realization.gamma_L != ds[1].realization.gamma_L)

    cold = []
    for d in ds:
        inner.clear_caches()
        spec, u0 = build_u0(d)
        cold.append(module.fock_module(spec, u0, cutoff))
    assert cold[0] == cold[1]

    inner.clear_caches()
    warm = [_report(d, cutoff) for d in ds]
    assert list(module._MODULES) == [keys[0]]  # the second label met the first one's module
    cleared = []
    for d in ds:
        inner.clear_caches()
        cleared.append(_report(d, cutoff))
    assert warm == cleared


def test_module_memo_keeps_its_bound(monkeypatch):
    """With the bound shrunk to 40 vectors: the vectors held never exceed it,
    the oldest module goes first, and a module over the bound is analysed
    exactly as with the memo cleared but is not kept."""
    calls = [  # (name, label, cutoff): the module's size in the comment
        ("a", RepLabel(1, 1, 0, (), (), (), 0, F(3, 2)), 6),  # 8
        ("b", RepLabel(1, 1, 1, (), (), (), 1, 1), 4),  # 17
        ("c", RepLabel(1, 1, 0, (), (), (), 0, 2), 6),  # 8
        ("d", RepLabel(2, 2, 0, (), (), (), 0, F(5, 2)), 3),  # 13: a goes
        ("a", RepLabel(1, 1, 0, (), (), (), 0, F(1, 2)), 6),  # a again: b goes, not c
        ("e", RepLabel(2, 1, 2, (), (), (), 1, 1), 3),  # 48: analysed, not kept
        ("d", RepLabel(2, 2, 0, (), (), (), 0, F(5, 2)), 3),  # a hit
    ]
    diagrams = [(name, realize(lab, allow_nonunitary=True), cutoff) for name, lab, cutoff in calls]
    want = []
    for _name, d, cutoff in diagrams:
        inner.clear_caches()
        want.append(_report(d, cutoff))
    keys = {name: _key_of(d, cutoff) for name, d, cutoff in diagrams}
    held = [["a"], ["a", "b"], ["a", "b", "c"], ["b", "c", "d"], ["c", "d", "a"],
            ["c", "d", "a"], ["c", "d", "a"]]

    monkeypatch.setattr(module, "MAX_HELD_VECTORS", 40)
    inner.clear_caches()
    for (name, d, cutoff), report, names in zip(diagrams, want, held):
        assert _report(d, cutoff) == report, name
        assert list(module._MODULES) == [keys[n] for n in names], name
        assert sum(fm.size for fm in module._MODULES.values()) <= 40
    assert module._MODULES[keys["d"]].size == 13


def test_module_memo_under_threads(monkeypatch):
    """Four threads share the memo, shrunk so that most stores evict, while
    a fifth clears every cache: each report equals the one made alone, and
    the vectors held stay within the bound."""
    cases = [(realize(lab, allow_nonunitary=True), cutoff) for lab, cutoff in (
        (RepLabel(1, 1, 0, (), (), (), 0, F(3, 2)), 6),
        (RepLabel(1, 1, 1, (), (), (), 1, 1), 4),
        (RepLabel(2, 2, 0, (), (), (), 0, F(5, 2)), 3),
        (RepLabel(1, 1, 0, (), (), (), 0, F(1, 2)), 6),
    )]
    inner.clear_caches()
    want = [_report(d, cutoff) for d, cutoff in cases]
    monkeypatch.setattr(module, "MAX_HELD_VECTORS", 25)
    inner.clear_caches()
    errors, got = [], []

    def work(k):
        try:
            for r in range(40):
                d, cutoff = cases[(k + r) % len(cases)]
                got.append((_report(d, cutoff), want[(k + r) % len(cases)]))
                assert sum(fm.size for fm in list(module._MODULES.values())) <= 25
        except Exception as exc:  # reported below
            errors.append(exc)

    def clear():
        for _ in range(100):
            inner.clear_caches()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        threads.append(threading.Thread(target=clear))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(got) == 160 and all(a == b for a, b in got)


# (label, cutoff) of oracle-verify's shapes: no deformed block, the a block,
# the b block, both
TABLE_SHAPES = [
    (RepLabel(1, 1, 0, (), (), (), 0, 1), 5),
    (RepLabel(2, 1, 2, (), (), (), 0, 0), 2),
    (RepLabel(1, 1, 0, (), (), (), 0, F(1, 3)), 5),
    (RepLabel(2, 2, 0, (), (), (), 0, F(1, 2)), 3),
    (RepLabel(1, 1, 1, (), (), (), F(1, 2), 1), 4),
    (RepLabel(2, 2, 0, (1,), (), (), 0, F(3, 2)), 3),
    (RepLabel(2, 1, 2, (), (), (), F(-2, 3), F(1, 3)), 3),
]
NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


def _gram_entries(slices):
    """1 + sum d(d + 1)/2 over slices of d vectors: |u_0|^2 and every
    upper-triangle Gram entry."""
    return 1 + sum(len(vecs) * (len(vecs) + 1) // 2 for _tags, vecs in slices.values())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TABLE_SHAPES), st.lists(st.tuples(NONZERO, NONZERO), max_size=2))
def test_held_vectors_pair_through_their_table_as_fresh_vectors(shape, gammas):
    """The vectors of a held module pair through the family's pair table as
    the same vectors do as fresh LinCombs, at the module's gammas and at
    random ones on its deformed blocks."""
    lab, cutoff = shape
    spec, u0 = build_u0(realize(lab, allow_nonunitary=True))
    held = module.fock_module(spec, u0, cutoff)
    fresh = pbw_family(spec, u0_k_basis(spec, u0), cutoff)
    pairs = held.u0.pairs
    assert pairs == {} and all(v.pairs is pairs for _tags, vecs in held.slices.values()
                               for v in vecs)
    for gamma_l, gamma_r in [(spec.gamma_L, spec.gamma_R)] + gammas:
        at = replace(spec, gamma_L=gamma_l if spec.b_deformed else spec.gamma_L,
                     gamma_R=gamma_r if spec.a_deformed else spec.gamma_R)
        assert inner_product(at, held.u0, held.u0) == inner_product(at, u0, u0)
        for charge, (_tags, vecs) in held.slices.items():
            lcs = [vec for _tag, vec in fresh[charge]]
            for r, c in itertools.combinations_with_replacement(range(len(vecs)), 2):
                got = inner_product(at, vecs[r], vecs[c])
                assert type(got) is F and got == inner_product(at, lcs[r], lcs[c])
    assert 0 < len(pairs) <= _gram_entries(held.slices)


def test_a_second_gamma_on_a_held_module_makes_no_dot_product():
    """su(2,1|2) with both blocks deformed at two gammas of one shape: the
    second finds every entry's terms in the table, adds none and calls no
    `inner._dot`, and its report equals the one built cold."""
    ds = [realize(RepLabel(2, 1, 2, (), (), (), bl, br), allow_nonunitary=True)
          for bl, br in ((F(-2, 3), F(1, 3)), (F(-1, 2), F(1, 2)))]
    assert _key_of(ds[0], 3) == _key_of(ds[1], 3)
    inner.clear_caches()
    _report(ds[0], 3)
    (held,) = module._MODULES.values()
    pairs = held.u0.pairs
    kept = dict(pairs)
    with mock.patch.object(inner, "_dot", side_effect=AssertionError("a dot product")):
        warm = _report(ds[1], 3)
    assert list(module._MODULES.values()) == [held] and pairs == kept
    inner.clear_caches()
    assert _report(ds[1], 3) == warm


def test_a_module_over_the_bound_carries_no_pair_table(monkeypatch):
    """fock_module gives its vectors a pair table exactly when its Gram
    entries fit MAX_HELD_VECTORS; a module without one reports the same."""
    d = realize(RepLabel(2, 2, 0, (), (), (), 0, F(1, 2)), allow_nonunitary=True)
    spec, u0 = build_u0(d)
    entries = _gram_entries(module.fock_module(spec, u0, 3).slices)
    inner.clear_caches()
    want = _report(d, 3)
    monkeypatch.setattr(module, "MAX_HELD_VECTORS", entries - 1)
    held = module.fock_module(spec, u0, 3)
    assert held.size <= entries - 1  # the vectors fit; the entries do not
    vectors = [held.u0] + [v for _tags, vecs in held.slices.values() for v in vecs]
    assert all(v.pairs is None and v.index == 0 for v in vectors)
    inner.clear_caches()
    assert _report(d, 3) == want
    (kept,) = module._MODULES.values()
    assert kept.u0.pairs is None
    monkeypatch.setattr(module, "MAX_HELD_VECTORS", entries)
    assert module.fock_module(spec, u0, 3).u0.pairs == {}


def test_helicity_and_masslessness():
    from superdual.oscillator import helicity, is_massless

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


def test_oscillator_api():
    missing = [name for name in superdual.oscillator.__all__ if not hasattr(superdual.oscillator, name)]
    assert not missing
    spec = OscillatorSpec.plain(q=2, P=1)
    basis = basis_states(spec, 2)
    assert len(basis) == 6  # monomials of degree <= 2 in two variables
    # E_12 maps x2 -> x1
    x2 = State(((0,), (1,)), (), 0, 0, 0)
    x1 = State(((1,), (0,)), (), 0, 0, 0)
    assert x2 in basis and generator_action(spec, 0, 1, x2) == {x1: F(1)}


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
# column determinant against the permutation sum; the normal form
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
    """column_det equals the n!-term sum, columns right to left, for
    non-commuting generator entries (plus a diagonal shift)."""
    n = data.draw(st.integers(1, 4))
    spec, lc = data.draw(block_vectors(n))
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))

    def op(row, k, term):
        image = generator_action(spec, row, k, term)
        return combine(image, scale(term, F(shift[row]))) if row == k else image

    assert column_det(n, op, lc) == _naive_column_det(n, op, lc, range(n - 1, -1, -1))


def _times_det(poly, cols, power):
    """The polynomial {exponent matrix: coefficient} times det(X)^power,
    X the block of rows 0..n-1 and columns cols."""
    for _ in range(power):
        out = {}
        for mat, c in poly.items():
            for perm, sign in PERMS[len(cols)]:
                term = mat
                for i, k in enumerate(perm):
                    term = _bump(term, i, cols[k], +1)
                add_into(out, term, sign * c)
        poly = out
    return poly


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_memoised_normal_form_matches_fraction_recursion(data):
    """_reduce_block (memoised, integer) is the normal form modulo det X - t,
    on a cold memo and again when every key is warm: no term with s' > 0
    has a full block diagonal, and sum c' x^M' det^(s - s') = x^M."""
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

    inner.clear_caches()
    cold = _reduce_block(mat, s, cols)
    warm = _reduce_block(mat, s, cols)
    for form in (cold, warm):
        assert isinstance(form, tuple)
        assert all(type(c) is int for _m, _k, c in form)
        total = {}
        for mat2, s2, c2 in form:
            assert 0 <= s2 <= s
            assert s2 == 0 or any(mat2[i][cols[i]] == 0 for i in range(n))
            for term, c in _times_det({mat2: c2}, cols, s - s2).items():
                add_into(total, term, c)
        assert total == {mat: 1}
    if s:
        assert warm is cold  # a memo hit


# ---------------------------------------------------------------------------
# analyze_gram against the inertia of the matrix
# ---------------------------------------------------------------------------

def _norm(G, w):
    return sum(w[i] * G[i][j] * w[j] for i in range(len(G)) for j in range(len(G)))


def _inertia(G):
    """(n+, n0, n-) of the symmetric matrix G: det(x - G) by Faddeev-LeVerrier,
    then Descartes' rule of signs, exact here because every root is real."""
    n = len(G)
    coeffs = [F(1)]  # highest power first
    M = [[F(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(G[i][t] * M[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        coeffs.append(-sum(G[i][t] * M[t][i] for i in range(n) for t in range(n)) / k)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    zero = next(k for k, c in enumerate(reversed(coeffs)) if c)
    return sign_changes(coeffs), zero, sign_changes([c * (-1) ** k for k, c in enumerate(coeffs)])


def _check_inertia(G):
    """A witness exactly when G has a negative eigenvalue, of negative norm;
    the kernel count is n0 either way."""
    n_pos, n_zero, n_neg = _inertia(G)
    assert n_pos + n_zero + n_neg == len(G)
    kernel, witness = analyze_gram(G)
    assert kernel == n_zero
    assert (witness is not None) == (n_neg > 0)
    if witness is not None:
        assert _norm(G, witness) < 0


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
    """analyze_gram against the inertia on small symmetric matrices."""
    n = data.draw(st.integers(1, 4))
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])
    G = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = data.draw(entry)
    _check_inertia(G)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_analyze_gram_matches_gram_schmidt_reference(data):
    """analyze_gram against the inertia on random symmetric matrices
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
    _check_inertia(G)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_analyze_gram_ignores_a_positive_rescaling(data):
    """analyze_gram(c G) is analyze_gram(G) for a positive rational c, on
    entries of mixed denominators: neither c nor the integer scale L leaks
    into the kernel count or a witness, the isotropic one included."""
    n = data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=6))
    G = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = data.draw(entry)
    c = data.draw(st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12))
    kernel, witness = analyze_gram(G)
    kernel2, witness2 = analyze_gram([[c * x for x in row] for row in G])
    assert kernel2 == kernel and witness2 == witness
    if witness is not None:
        assert all(type(x) is F for x in witness2)
        assert _norm(G, witness2) < 0


def test_kernel_is_exact_beside_a_negative_direction():
    """su(1,1|1) at beta_L = beta_R = -1/2, cutoff 4: each slice's kernel_dim
    is n0 of its Gram matrix, on the three slices with a negative direction
    too; one of them, of dimension 2, holds a null direction as well."""
    d = realize(RepLabel(1, 1, 1, (), (), (), F(-1, 2), F(-1, 2)), allow_nonunitary=True)
    rep = gram_positivity(d, cutoff=4)
    assert rep.has_negative and rep.kernel_total == 12
    spec, u0 = build_u0(d)
    slices = pbw_family(spec, u0_k_basis(spec, u0), 4)
    assert [s.weight for s in rep.slices] == list(map(spec.charge_weight, slices))
    both = 0
    for s, fam in zip(rep.slices, slices.values()):
        G = [[inner_product(spec, u, v) for _t, v in fam] for _t, u in fam]
        _n_pos, n_zero, n_neg = _inertia(G)
        assert s.dim == len(G) <= 2
        assert s.kernel_dim == n_zero and s.negative == (n_neg > 0)
        both += s.negative and s.kernel_dim > 0
    assert both == 1


def _reference_echelon(rows):
    """[(pivot key or None, reduced row)] of the incremental echelon form by
    definition, over Fractions: each row minus its entry at a stored pivot
    times the stored row, which is 1 there, from the largest key down; a
    row that keeps a nonzero entry is stored divided by its pivot entry."""
    stored, out = {}, []
    for row in rows:
        vec = {k: F(x) for k, x in row.items() if x}
        while vec and max(vec) in stored:
            top = stored[max(vec)]
            x = vec[max(vec)]
            for k, y in top.items():
                vec[k] = vec.get(k, 0) - x * y
            vec = {k: y for k, y in vec.items() if y}
        piv = max(vec) if vec else None
        if piv is not None:
            stored[piv] = {k: y / vec[piv] for k, y in vec.items()}
        out.append((piv, vec))
    return out, stored


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_space_matches_fraction_echelon_reference(data):
    """RowSpace against the Fraction reduction from its definition: the same
    pivots, each reduction a positive multiple of the reference one, and
    each stored row a primitive integer multiple of the reference row,
    positive at its pivot."""
    width = data.draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rows = []
    for _ in range(data.draw(st.integers(1, 8))):
        if rows and data.draw(st.booleans()):  # a combination of earlier rows
            row = {}
            for old in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                k = data.draw(entry)
                for key, x in old.items():
                    row[key] = row.get(key, 0) + k * x
        else:
            row = {key: data.draw(entry) for key in range(width)}
        rows.append({key: x for key, x in row.items() if x})
    want, want_stored = _reference_echelon(rows)
    space = RowSpace()
    for row, (piv, ref) in zip(rows, want):
        red, got_piv = space.reduce(row)
        assert got_piv == piv
        assert red.keys() == ref.keys() and all(type(x) is int for x in red.values())
        if piv is not None:
            ratio = red[piv] / ref[piv]
            assert ratio > 0 and all(red[k] == ratio * ref[k] for k in ref)
        stored = space.insert(row)
        assert (stored is None) == (piv is None)
    assert space.pivots.keys() == want_stored.keys()
    for piv, row in space.pivots.items():
        assert row[piv] > 0 and math.gcd(*row.values()) == 1
        assert row == {k: row[piv] * x for k, x in want_stored[piv].items()}


def test_charge_weight_reads_a_per_spec_table():
    """Each entry is the Fraction offset + charge, negative charges
    included, on specs that differ only in gamma_L."""
    specs = [
        OscillatorSpec(2, 1, 1, 3, gamma_L, F(1, 3), (0, 1), (2,), (), ())
        for gamma_L in (F(1, 2), F(-2, 3), F(1, 2))
    ]
    assert specs[0] == specs[2] and specs[0] != specs[1]
    for charge in itertools.product(range(-3, 3), repeat=4):
        for spec in specs:
            offsets = (-spec.P - spec.gamma_L,) * 2 + (F(0), spec.gamma_R)
            weight = spec.charge_weight(charge)
            assert all(type(w) is F for w in weight)
            assert weight == tuple(o + x for o, x in zip(offsets, charge))


# ---------------------------------------------------------------------------
# the boson operators from their definitions
# ---------------------------------------------------------------------------

def _mirror(lc):
    """Each state with (a, sR) and (b, sL) swapped."""
    return {State(s.b, s.a, s.f, s.sR, s.sL): c for s, c in lc.items()}


def _commutator(x, y, lc):
    return combine(x(y(lc)), scale(y(x(lc)), -1))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_boson_operators_match_per_family_reference(data):
    """mul, ann, delta_dagger and delta_lower against their definitions on
    both families, with and without a deformed block, on random canonical
    states of s power 0..2: the b family is the a family of the mirrored
    spec; [ann, mul] = delta and [ann, ann] = 0; delta_dagger is t, the
    determinant of the creation oscillators on s = 0; delta_lower is the
    determinant of the annihilators."""
    p, q = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    gammas = st.sampled_from((F(0),) + GAMMAS)
    gamma_L, gamma_R = data.draw(gammas), data.draw(gammas)
    P = p + q + data.draw(st.integers(0, 1))  # maybe one plain colour
    B_delta, A_delta = tuple(range(p)), tuple(range(p, p + q))
    spec = OscillatorSpec(p, 0, q, P, gamma_L, gamma_R, B_delta, A_delta, (), ())
    # (p, gamma_L, B_delta) and (q, gamma_R, A_delta) swapped
    mirror = OscillatorSpec(q, 0, p, P, gamma_R, gamma_L, A_delta, B_delta, (), ())

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
        for s, c in spec.reduce(state).items():
            add_into(lc, s, coeff * c)

    b, a = spec.bosons["b"], mirror.bosons["a"]
    for fl, col in itertools.product(range(p), range(P)):
        for op in (mul, ann):
            assert _mirror(op(spec, b, fl, col, lc)) == op(mirror, a, fl, col, _mirror(lc))
    for op in (delta_dagger, delta_lower):
        assert _mirror(op(spec, "b", lc)) == op(mirror, "a", _mirror(lc))

    for which, flavours in (("a", q), ("b", p)):
        fam = spec.bosons[which]
        cells = list(itertools.product(range(flavours), range(P)))
        for x, y in itertools.product(cells, repeat=2):
            ann_x = partial(ann, spec, fam, *x)
            assert _commutator(ann_x, partial(mul, spec, fam, *y), lc) == (lc if x == y else {})
            assert _commutator(ann_x, partial(ann, spec, fam, *y), lc) == {}
        n = len(fam.cols)
        for s, c in lc.items():
            if s[fam.spow]:
                t = {set_field(s, fam.spow, s[fam.spow] - 1): c}
            else:
                t = _naive_column_det(
                    n, lambda row, k, term: mul(spec, fam, row, fam.cols[k], term), {s: c}, range(n))
            assert delta_dagger(spec, which, {s: c}) == t
        assert delta_lower(spec, which, lc) == _naive_column_det(
            n, lambda row, k, term: ann(spec, fam, row, fam.cols[k], term), lc, range(n))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_state_charge_is_weight_minus_constant_offsets(data):
    """A canonical state's weight is its E_ii eigenvalues, on specs whose
    deformed blocks exist; s powers are drawn on undeformed families too,
    where they must not count."""
    p, m, q = (data.draw(st.integers(0, 2)) for _ in range(3))
    P = max(p + q, 1) + data.draw(st.integers(0, 1))
    gammas = st.sampled_from((F(0),) + GAMMAS)
    gamma_L, gamma_R = data.draw(gammas), data.draw(gammas)
    spec = OscillatorSpec(
        p, m, q, P, gamma_L, gamma_R, tuple(range(p)), tuple(range(p, p + q)), (), ()
    )

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
        assert all(type(w) is F for w in weight) and all(type(c) is int for c in charge)
        assert spec.charge_weight(charge) == weight
        for canonical in spec.reduce(s):
            assert spec.state_weight(canonical) == weight
            for i, w in enumerate(weight):
                assert generator_action(spec, i, i, canonical) == ({canonical: w} if w else {})
    same_charge = spec.state_charge(s1) == spec.state_charge(s2)
    assert same_charge == (spec.state_weight(s1) == spec.state_weight(s2))
