"""Tensor products of the K-modules U_0 and their decomposition.

The factors are oscillator-realised modules on disjoint colour sets.  The
product of their U_0 spaces is a finite-dimensional K = su(p) + su(m) + su(q)
(+ u(1)s) module which is still annihilated by E^(+) (each raising term acts
within one colour factor); decomposing it into K-irreducibles by exact
linear algebra therefore lists the induced su(p,q|m) labels -- the content
of the multiplet tables.
"""

from __future__ import annotations

from fractions import Fraction

from ..diagrams import NonCompactYoungDiagram
from ..labels import RepLabel, grading_pmq, label_from_weight
from ..weights import FundamentalWeight
from .algebra import OscillatorSpec, generator_action
from .module import RowSpace, build_u0, k_lowering_generators, u0_k_basis
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


def _null_space(M, ncols: int):
    """Basis of the kernel of M (rows = equations over ncols unknowns) as a
    list of vectors; the unit basis when there are no equations."""
    rows = [list(r) for r in M]
    pivots = {}
    r = 0
    for c in range(ncols):
        pr = None
        for rr in range(r, len(rows)):
            if rows[rr][c] != 0:
                pr = rr
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c] != 0:
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, pr in pivots.items():
            v[c] = -rows[pr][fc]
        basis.append(v)
    return basis


def k_hws_in_span(spec: OscillatorSpec, vectors):
    """All K-highest vectors in span(vectors), grouped and solved per weight."""
    by_weight = {}
    for v in vectors:
        w = {spec.state_weight(s) for s in v}
        assert len(w) == 1, "vector mixes Cartan weights"
        by_weight.setdefault(w.pop(), []).append(v)

    gens = [(j, i) for i, j in k_lowering_generators(spec)]  # the K raising generators
    found = []
    for weight, vecs in sorted(by_weight.items()):
        rows = []
        for (i, j) in gens:
            images = [generator_action(spec, i, j, v) for v in vecs]
            img_states = sorted({s for im in images for s in im})
            for st in img_states:
                rows.append([im.get(st, Fraction(0)) for im in images])
        for coeffs in _null_space(rows, len(vecs)):
            vec = {}
            for c, v in zip(coeffs, vecs):
                if c:
                    for s, cc in v.items():
                        add_into(vec, s, c * cc)
            if vec:
                found.append((weight, vec))
    return found


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
    if spec1.a_deformed or spec1.b_deformed or spec2.a_deformed or spec2.b_deformed:
        raise ValueError("tensor factors with continuous gammas are not supported")

    P = spec1.P + spec2.P
    spec = OscillatorSpec(
        spec1.p, spec1.m, spec1.q, P, Fraction(0), Fraction(0), (), (), (), ()
    )
    col_map1 = {A: A for A in range(spec1.P)}
    col_map2 = {A: spec1.P + A for A in range(spec2.P)}

    basis1 = u0_k_basis(spec1, u1)
    basis2 = u0_k_basis(spec2, u2)
    space = RowSpace()
    products = []
    for x in basis1:
        for y in basis2:
            w = product_vector(x, y, spec1, spec2, spec, col_map1, col_map2)
            if w and space.insert(w) is not None:
                products.append(w)

    labels = []
    for weight, vec in k_hws_in_span(spec, products):
        # every K-component of U_0 x U_0 is E^(+)-closed; sanity-check it
        for i in range(spec.p):
            for j in range(spec.p + spec.m, spec.n):
                assert not generator_action(spec, i, j, vec)
        fw = FundamentalWeight(grading_pmq(spec.p, spec.m, spec.q), weight)
        labels.append(label_from_weight(fw))
    return sorted(labels, key=str)
