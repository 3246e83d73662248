"""Tensor products of the K-modules U_0 and their decomposition.

The factors are oscillator-realised modules on disjoint colour sets.  The
product of their U_0 spaces is a finite-dimensional K = su(p) + su(m) + su(q)
(+ u(1)s) module which is still annihilated by E^(+) (each raising term acts
within one colour factor); decomposing it into K-irreducibles therefore
lists the induced su(p,q|m) labels -- the content of the multiplet tables.
Each K-irreducible contributes one K-highest vector, and `k_hws_in_span`
finds them all with the same incremental `RowSpace` that spans the K-orbit
of U_0: no other eliminator is involved.
"""

from __future__ import annotations

from ..diagrams import NonCompactYoungDiagram
from ..labels import grading_pmq, label_from_weight
from ..weights import FundamentalWeight
from .algebra import OscillatorSpec, generator_action
from .module import RowSpace, build_u0, integer_multiple, k_lowering_generators, u0_k_basis
from .states import State, add_into


def _embed_state(s: State, spec_from: OscillatorSpec, spec_to: OscillatorSpec, col_map):
    """Re-colour a state into the combined spec; returns (state, fermion bits)."""
    if s.sL or s.sR:
        raise ValueError("only undeformed factors can be embedded")
    a = [[0] * spec_to.P for _ in range(spec_to.q)]
    b = [[0] * spec_to.P for _ in range(spec_to.p)]
    for fl in range(spec_from.q):
        for A in range(spec_from.P):
            a[fl][col_map[A]] = s.a[fl][A]
    for fl in range(spec_from.p):
        for A in range(spec_from.P):
            b[fl][col_map[A]] = s.b[fl][A]
    fbits = []
    for fl in range(spec_from.m):
        for A in range(spec_from.P):
            if s.f >> (fl * spec_from.P + A) & 1:
                fbits.append(fl * spec_to.P + col_map[A])
    return (
        State(tuple(map(tuple, a)), tuple(map(tuple, b)), sum(1 << bit for bit in fbits), 0, 0),
        fbits,
    )


def product_vector(v1, v2, spec1, spec2, spec, col_map1, col_map2):
    """Tensor product of two LinCombs on disjoint colours, Koszul signs included."""
    out = {}
    for s1, c1 in v1.items():
        e1, bits1 = _embed_state(s1, spec1, spec, col_map1)
        for s2, c2 in v2.items():
            e2, bits2 = _embed_state(s2, spec2, spec, col_map2)
            a = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(e1.a, e2.a))
            b = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(e1.b, e2.b))
            if e1.f & e2.f:
                continue
            inv = sum(1 for x in bits1 for y in bits2 if y < x)
            sign = -1 if inv % 2 else 1
            add_into(out, State(a, b, e1.f | e2.f, 0, 0), c1 * c2 * sign)
    return out


def k_hws_in_span(spec: OscillatorSpec, vectors):
    """All K-highest vectors in span(vectors), as [(weight, vec)] by weight.

    Each vector enters one `RowSpace` as a row holding its own coordinates
    under keys (0, state) and its image under each K raising generator g
    under keys (1, g, state), scaled to integers.  The store pivots on the
    largest key, so the images are eliminated first: a stored row whose
    pivot is an own key has no image left, and these rows' own parts are a
    basis of the K-highest vectors of the span, each a primitive integer
    vector.  A vector that reduces to nothing was dependent.  Rows of
    different weights share no key, so no row mixes weights.
    """
    gens = [(j, i) for i, j in k_lowering_generators(spec)]
    space = RowSpace()
    for v in vectors:
        if len({spec.state_charge(s) for s in v}) > 1:
            raise AssertionError("vector mixes Cartan weights")
        row = {(0, s): c for s, c in v.items()}
        for g in gens:
            for s, c in generator_action(spec, *g, v).items():
                row[(1, g, s)] = c
        space.insert(integer_multiple(row))
    found = [
        (spec.state_weight(piv[1]), {key[1]: c for key, c in row.items()})
        for piv, row in space.pivots.items()
        if piv[0] == 0
    ]
    return sorted(found, key=lambda wv: wv[0])


def tensor_decompose(d1: NonCompactYoungDiagram, d2: NonCompactYoungDiagram):
    """Labels of the su(p,q|m) multiplets induced from U_0(d1) (x) U_0(d2).

    Both factors must carry undeformed (gamma = 0) realisations; continuous
    gammas on both factors would make the K-product non-decomposable by
    weight arithmetic and are rejected.
    """
    label1, label2 = d1.label, d2.label
    if (label1.p, label1.m, label1.q) != (label2.p, label2.m, label2.q):
        raise ValueError("factors live in different algebras")
    spec1, u1 = build_u0(d1)
    spec2, u2 = build_u0(d2)
    if any(fam.gamma for sp in (spec1, spec2) for fam in sp.bosons.values()):
        raise ValueError("tensor factors with continuous gammas are not supported")

    P = spec1.P + spec2.P
    spec = OscillatorSpec.plain(spec1.p, spec1.m, spec1.q, P)
    col_map1 = {A: A for A in range(spec1.P)}
    col_map2 = {A: spec1.P + A for A in range(spec2.P)}

    basis1 = u0_k_basis(spec1, u1)
    basis2 = u0_k_basis(spec2, u2)
    products = [
        product_vector(x, y, spec1, spec2, spec, col_map1, col_map2)
        for x in basis1
        for y in basis2
    ]

    labels = []
    for weight, vec in k_hws_in_span(spec, products):
        # every K-component of U_0 x U_0 is E^(+)-closed; sanity-check it
        for i in range(spec.p):
            for j in range(spec.p + spec.m, spec.n):
                assert not generator_action(spec, i, j, vec)
        fw = FundamentalWeight(grading_pmq(spec.p, spec.m, spec.q), weight)
        labels.append(label_from_weight(fw))
    return sorted(labels, key=str)
