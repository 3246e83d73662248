"""Tensor products of the K-modules U_0 and their decomposition.

The factors are oscillator-realised modules on disjoint colour sets: the
product spec has P_1 + P_2 colours, factor 1 on [0, P_1) and factor 2 on
[P_1, P_1 + P_2), so each boson row of a product state is the two factors'
rows joined end to end.  The product of their U_0 spaces is a
finite-dimensional K = su(p) + su(m) + su(q) (+ u(1)s) module which is still
annihilated by E^(+) (each raising term acts within one colour factor);
decomposing it into K-irreducibles therefore lists the induced su(p,q|m)
labels -- the content of the multiplet tables.  Each K-irreducible
contributes one K-highest vector, and `k_hws_in_span` finds them all with
the same incremental `RowSpace` that spans the K-orbit of U_0: no other
eliminator is involved.  `verify_hws` checks every raising generator on each
of them and reads its label.
"""

from __future__ import annotations

from ..diagrams import NonCompactYoungDiagram
from ..labels import label_from_weight
from .algebra import OscillatorSpec, generator_action
from .module import (
    RowSpace, build_u0, integer_multiple, k_lowering_generators, u0_k_basis, verify_hws,
)
from .states import State, add_into


def product_vector(v1, v2, spec1, spec2, spec):
    """v1 (x) v2 on spec, factor 1 on colours [0, P_1) and factor 2 on
    [P_1, P_1 + P_2): boson rows r1 + r2, fermion bit fl P_i + A moved to
    fl P + offset_i + A, and the Koszul sign the parity of the inversions
    between the two factors' fermion bits."""

    def bits(f, P_i, offset):
        return [k // P_i * spec.P + offset + k % P_i for k in range(f.bit_length()) if f >> k & 1]

    right = [(s2, c2, bits(s2.f, spec2.P, spec1.P)) for s2, c2 in v2.items()]
    out = {}
    for s1, c1 in v1.items():
        bits1 = bits(s1.f, spec1.P, 0)
        for s2, c2, bits2 in right:
            a = tuple(r1 + r2 for r1, r2 in zip(s1.a, s2.a))
            b = tuple(r1 + r2 for r1, r2 in zip(s1.b, s2.b))
            inv = sum(1 for x in bits1 for y in bits2 if y < x)
            f = sum(1 << k for k in bits1 + bits2)
            add_into(out, State(a, b, f, 0, 0), -c1 * c2 if inv % 2 else c1 * c2)
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
    weight arithmetic and are rejected.  A K-highest vector of the product
    that some E_ij, i < j, does not annihilate raises AssertionError.
    """
    label1, label2 = d1.label, d2.label
    if (label1.p, label1.m, label1.q) != (label2.p, label2.m, label2.q):
        raise ValueError("factors live in different algebras")
    spec1, u1 = build_u0(d1)
    spec2, u2 = build_u0(d2)
    if any(fam.gamma for sp in (spec1, spec2) for fam in sp.bosons.values()):
        raise ValueError("tensor factors with continuous gammas are not supported")

    spec = OscillatorSpec.plain(spec1.p, spec1.m, spec1.q, spec1.P + spec2.P)
    basis1 = u0_k_basis(spec1, u1)
    basis2 = u0_k_basis(spec2, u2)
    products = [product_vector(x, y, spec1, spec2, spec) for x in basis1 for y in basis2]

    labels = []
    for _weight, vec in k_hws_in_span(spec, products):
        rep = verify_hws(spec, vec)
        if not rep.raised_to_zero:
            raise AssertionError("a K-highest vector of U_0 (x) U_0 is not raised to zero")
        labels.append(label_from_weight(rep.weight))
    return sorted(labels, key=str)
