"""Highest-weight vectors, induced modules and exact Gram positivity.

U_0 is built from bottom-row b-minors, fermionic tau-columns, full fermion
columns Delta_f(C) over F_Delta, top-row a-minors and the deformed reference
states.  The induced module is spanned by PBW monomials in the E^(-)
generators applied to a K-basis of U_0; the Gram matrix of that spanning
family (per Cartan slice) is positive definite for long unitary labels,
degenerates exactly at shortenings, and acquires negative directions on the
non-unitary side.  `analyze_gram` reads each slice's exact null count
N - rank and its first negative direction off one pass of `RowSpace`, the
eliminator that also spans the K-orbit of U_0 and the tensor tables'
K-highest vectors.

The form is invariant under the compact K = s(u(p) + u(m) + u(q)), so the
truncated module splits orthogonally into K-isotypic parts V_nu (x) M_nu
with the form (positive on V_nu) (x) h_nu, and each h_nu shows whole in the
slice of the K-dominant weight nu (Enright-Howe-Wallach, Jakobsen).  The
oracle therefore builds and pairs only the K-dominant slices.  Their kernels
are the multiplicities, on dominant weights, of the K-character of the
family's null space; `ktypes.highest_weight_counts` solves them for each
K-type's null multiplicity h0(nu), and kernel_total = sum dim V_nu h0(nu)
is the null count of the whole family, every weight slice included.

The slice loop computes on integers: slices are keyed by integer charge
from `pbw_family` to `ktypes.highest_weight_counts`, and each slice's
weight is made once for its report (`OscillatorSpec.charge_weight`);
`inner.prepare` clears a vector's denominators once, and `RowSpace` reduces
fraction-free on integer rows (`analyze_gram` scales a slice's Gram matrix
once by the lcm of its denominators).  Fractions are made only for the
slice weights, the Gram entries that `inner_product` returns and a
negative-norm witness.  `states.MAX_PBW_FAMILY` bounds the PBW monomials
before the walk and the vectors it builds (`pbw_family`).

The oscillators that build U_0 and the PBW family do not depend on gamma;
only the form does, through c_mu(gamma).  So `gram_positivity` splits in
two.  The gamma-free module (`FockModule`: u_0 and, per K-dominant charge,
the tags and `inner.prepare`d vectors of the family) is built once per
realization shape and held in a process-wide table.  A held vector carries
its gamma-free chain images, Fock-weighted, so every Gram entry at every
gamma pairs it without rebuilding them.  The table's key, `module_key`, is
p, m, q, P, the colour layout, which blocks are deformed, mu_L, tau, mu_R
and the cutoff.  The table holds at most `states.MAX_HELD_VECTORS` vectors
(their images not counted), drops its oldest module first, does not
keep a module larger than the bound, and is emptied by
`inner.clear_caches()`.  Every call still makes, at its own gamma, the
cutoff and `OscillatorSpec.from_diagram` refusals before the lookup, |u_0|^2
and its null check, one `inner_product` per upper-triangle Gram entry, the
slice weights, `analyze_gram` and `highest_weight_counts`.

The vectors of a module also share a pair table (`inner`): the gamma-free
integer terms of each pairing that `inner_product` has made on them, kept
under the two vectors' indices in the module (u_0 is 0).  At a second gamma
every Gram entry of a held module evaluates its kept terms at that gamma
and makes no dot product.  The table holds gamma-free integers only, one
entry per pairing of non-empty vectors, and a module has one only when its
Gram entries, 1 + sum d(d + 1)/2 over its slices of d vectors, fit
`states.MAX_HELD_VECTORS`; a larger module, such as Yang-Mills at depth 6,
pairs its vectors afresh at every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from math import comb, gcd, lcm
from operator import add, sub
from threading import Lock
from typing import NamedTuple

from ..diagrams import NonCompactYoungDiagram
from ..ktypes import dimension, highest_weight_counts, is_dominant, k_blocks
from ..labels import grading_pmq
from ..weights import FundamentalWeight
from .algebra import OscillatorSpec, column_det, generator_action, mul, mul_f
from .inner import Prepared, inner_product, prepare
from .states import MAX_HELD_VECTORS, MAX_PBW_FAMILY, add_into


# ---------------------------------------------------------------------------
# U_0 construction
# ---------------------------------------------------------------------------

def build_u0(d: NonCompactYoungDiagram):
    """The K-highest vector of U_0 as a LinComb, plus its OscillatorSpec."""
    spec = OscillatorSpec.from_diagram(d)
    label = d.label
    v = minor_powers(spec, "b", label.mu_L, {spec.vacuum(): 1})

    # fermionic tau columns over F colours
    tau_conj = label.tau.conjugate()
    for x in range(1, label.tau.part(1) + 1):
        col = spec.F_cols[x - 1]
        for fl in range(tau_conj.part(x)):
            v = mul_f(spec, fl, col, v)

    # full fermion columns over F_delta
    for col in spec.F_delta:
        for fl in range(spec.m):
            v = mul_f(spec, fl, col, v)

    return spec, minor_powers(spec, "a", label.mu_R, v)


def minor_powers(spec: OscillatorSpec, side: str, mu, v):
    """prod_y D_y^(mu_y - mu_(y+1)) v, D_y the y x y minor of the side's
    creation oscillators on its first y determinant colours and its top y
    flavours for a, its bottom y for b; the entries commute, so
    `column_det`'s column order does not matter."""
    fam = spec.bosons[side]
    for y in range(1, mu.height + 1):
        rows = range(y) if side == "a" else range(spec.p - y, spec.p)
        cols = fam.cols[:y]
        for _ in range(mu.part(y) - mu.part(y + 1)):
            v = column_det(y, lambda j, i, term: mul(spec, fam, rows[i], cols[j], term), v)
    return v


# ---------------------------------------------------------------------------
# HWS verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HwsReport:
    raised_to_zero: bool
    weight: FundamentalWeight | None


def verify_hws(spec: OscillatorSpec, v) -> HwsReport:
    """Check E_ij v = 0 for all i < j and read the Cartan eigenvalues."""
    lc = v if isinstance(v, dict) else {v: 1}
    if len({spec.state_charge(s) for s in lc}) != 1 or any(
        generator_action(spec, i, j, lc) for i in range(spec.n) for j in range(i + 1, spec.n)
    ):
        return HwsReport(False, None)
    w = FundamentalWeight(grading_pmq(spec.p, spec.m, spec.q), spec.state_weight(next(iter(lc))))
    return HwsReport(True, w)


# ---------------------------------------------------------------------------
# generator alphabets
# ---------------------------------------------------------------------------

def eminus_generators(spec: OscillatorSpec):
    """E^(-) generators (i, j, odd?) with block(i) > block(j): the f rows
    on the b columns, the a rows on the b columns, the a rows on the f
    columns, in that order."""
    b, f, a = (range(spec.n)[blk] for blk in k_blocks(spec.p, spec.m, spec.q))
    return [(i, j, odd) for rows, cols, odd in ((f, b, True), (a, b, False), (a, f, True))
            for i in rows for j in cols]


def k_lowering_generators(spec: OscillatorSpec):
    """K-lowering generators (i, j), i > j in one block."""
    return [(i, j) for blk in k_blocks(spec.p, spec.m, spec.q)
            for j in range(spec.n)[blk] for i in range(j + 1, blk.stop)]


# ---------------------------------------------------------------------------
# exact row reduction over the monomial basis
# ---------------------------------------------------------------------------

class RowSpace:
    """Incremental fraction-free row-echelon store for sparse integer
    vectors, pivoting on the largest key.

    A row meets the stored row of its largest key and becomes
    p row - x stored, p the stored row's pivot entry and x the row's entry
    there, both divided by their gcd.  A stored row is divided by the gcd of
    its entries, signed so that its pivot entry p is positive; every reduced
    row is thus a positive integer multiple of the rational reduction
    against rows normalised to 1 at their pivots.  Entries must be
    integers, and no Fraction is made.
    """

    def __init__(self):
        self.pivots = {}  # pivot key -> primitive integer row, positive at the pivot

    def reduce(self, vec):
        """(row, pivot): vec reduced until its largest key has no stored
        row, and that key; ({}, None) when vec lies in the span."""
        vec = dict(vec)
        while vec:
            piv = max(vec)
            stored = self.pivots.get(piv)
            if stored is None:
                return vec, piv
            p, x = stored[piv], vec[piv]
            g = gcd(p, x)
            if p != g:
                vec = {s: c * (p // g) for s, c in vec.items()}
            x //= g
            for s, c in stored.items():
                add_into(vec, s, -x * c)
        return {}, None

    def insert(self, vec):
        """Reduce and store; returns the stored row or None if dependent."""
        red, piv = self.reduce(vec)
        return None if piv is None else self.store(red, piv)

    def store(self, red, piv):
        """Store red, a row that `reduce` returned with its pivot piv, divided
        by the gcd of its entries and signed positive at piv; returns the
        stored row.  red itself is not changed."""
        g = gcd(*red.values())
        if red[piv] < 0:
            g = -g
        if g != 1:
            red = {s: c // g for s, c in red.items()}
        self.pivots[piv] = red
        return red


def integer_multiple(vec) -> dict:
    """vec times the lcm of its coefficients' denominators, with int
    coefficients: the row that `RowSpace` takes for a rational vector."""
    den = lcm(*(c.denominator for c in vec.values()))
    return {s: c.numerator * (den // c.denominator) for s, c in vec.items()}


def u0_k_basis(spec: OscillatorSpec, u0):
    """Basis of the K-module U_0: u0 and its images under the K-lowering
    operators, breadth first.  U_0 is the irreducible K-module of its
    K-highest vector u0, so the walk stops at Weyl's dimension of u0's
    charge; a charge that is not K-dominant, or an orbit that closes at
    another size, raises AssertionError."""
    blocks = k_blocks(spec.p, spec.m, spec.q)
    charge = spec.state_charge(next(iter(u0)))
    if not is_dominant(blocks, charge):
        raise AssertionError(f"U_0's highest charge {charge} is not K-dominant")
    size = dimension(blocks, charge)
    gens = k_lowering_generators(spec)
    space = RowSpace()
    space.insert(integer_multiple(u0))
    basis = [dict(u0)]
    for v in basis:  # a queue: the vectors found are appended as it runs
        if len(basis) == size:
            break
        for i, j in gens:
            w = generator_action(spec, i, j, v)
            if w and space.insert(integer_multiple(w)) is not None:
                basis.append(w)
    if len(basis) != size:
        raise AssertionError(f"the K-orbit of U_0 closed at {len(basis)} vectors, not {size}")
    return basis


# ---------------------------------------------------------------------------
# PBW spanning family and Gram analysis
# ---------------------------------------------------------------------------

def monomial_count(gens, cutoff: int) -> int:
    """The number of PBW monomials of length <= cutoff: an even generator
    repeats freely and an odd one occurs at most once, so choosing j of the
    odd ones leaves a multiset of at most cutoff - j even ones."""
    odd = sum(1 for g in gens if g[2])
    even = len(gens) - odd
    return sum(comb(odd, j) * comb(even + cutoff - j, even) for j in range(min(odd, cutoff) + 1))


def pbw_family(spec: OscillatorSpec, u0_basis, cutoff: int):
    """The K-dominant slices of the PBW spanning family: PBW monomials in
    E^(-) applied to the U_0 basis, grouped by integer charge.

    Returns dict charge -> list of (tag, LinComb) in ascending charge order,
    one entry per charge that weakly decreases within each of the p, m and q
    index blocks (`ktypes.is_dominant`); the slice's weight is
    `spec.charge_weight(charge)`, the charge plus a constant offset per
    block, so charge order is weight order and charge dominance is weight
    dominance.  Tags identify the monomial for witness reporting.  Monomials
    whose image vanishes identically are kept (as empty LinCombs at their
    formal charge): they are exact null directions of the generalized Verma
    module -- for instance the one-step BPS conditions E u0 = 0 -- and must
    show up in the Gram kernel.

    A monomial is a non-decreasing tuple of generator indices in which no odd
    generator repeats.  One depth-first walk appends generators in
    increasing index, so it meets the monomials in lexicographic order, the
    order of the tags of a slice (then the basis index); it carries each
    monomial's formal charge shift down the tree.  A vector is one generator
    applied to the vector of its monomial's suffix (`_suffix_build`), so the
    vectors built are those of dominant formal charge and their suffixes.

    MAX_PBW_FAMILY bounds the walk twice, with ValueError: a family of more
    monomials (`monomial_count`, all weights counted) is refused before any
    vector is built, and the walk stops at the first monomial after which
    it has built more vectors (the U_0 basis, suffixes and vanishing vectors
    included).
    """
    gens = eminus_generators(spec)
    count = monomial_count(gens, cutoff)
    if count > MAX_PBW_FAMILY:
        raise ValueError(
            f"a PBW family of {count} monomials (depth {cutoff}) is outside the "
            f"supported range 0..{MAX_PBW_FAMILY}"
        )
    blocks = k_blocks(spec.p, spec.m, spec.q)
    base_charges = []
    for base in u0_basis:
        charges = {spec.state_charge(s) for s in base}
        if len(charges) != 1:
            raise AssertionError("U_0 basis vector mixes Cartan slices")
        base_charges.append(charges.pop())
    roots = []
    for i, j, _odd in gens:
        root = [0] * spec.n
        root[i], root[j] = 1, -1
        roots.append(tuple(root))

    built = {((), bi): base for bi, base in enumerate(u0_basis)}  # (mono, bi) -> E_mono base
    dominant = {}  # shift -> ((bi, charge), ...) of dominant charge
    slices = {}
    stack = [((), (0,) * spec.n)]  # (mono, its charge shift), the next on top
    while stack:
        mono, shift = stack.pop()
        hits = dominant.get(shift)
        if hits is None:
            hits = dominant[shift] = tuple(
                (bi, charge)
                for bi, charge in enumerate(tuple(map(add, shift, c)) for c in base_charges)
                if is_dominant(blocks, charge)
            )
        for bi, charge in hits:
            vec = _suffix_build(spec, gens, roots, built, mono, bi, charge)
            slices.setdefault(charge, []).append(((mono, bi), vec))
        if len(built) > MAX_PBW_FAMILY:
            raise ValueError(
                f"a PBW family (depth {cutoff}) that builds more than {MAX_PBW_FAMILY} "
                "vectors is outside the supported range"
            )
        if len(mono) < cutoff:
            first = mono[-1] + gens[mono[-1]][2] if mono else 0  # an odd one does not repeat
            stack.extend((mono + (g,), tuple(map(add, shift, roots[g])))
                         for g in range(len(gens) - 1, first - 1, -1))
    return dict(sorted(slices.items()))


def _suffix_build(spec, gens, roots, built, mono, bi, charge):
    """E_mono u_bi of the given formal charge: the longest suffix of mono
    found in built, then one generator per step back up to mono, each step's
    vector stored in built and checked to lie in its formal charge."""
    chain = []  # (mono, charge) from mono down to the first built suffix
    while (mono, bi) not in built:
        chain.append((mono, charge))
        charge = tuple(map(sub, charge, roots[mono[0]]))
        mono = mono[1:]
    vec = built[mono, bi]
    for mono, charge in reversed(chain):
        i, j, _odd = gens[mono[0]]
        vec = built[mono, bi] = generator_action(spec, i, j, vec) if vec else {}
        if vec and {spec.state_charge(s) for s in vec} != {charge}:
            raise AssertionError("PBW vector mixes Cartan slices")
    return vec


@dataclass
class SliceReport:
    weight: tuple
    dim: int
    kernel_dim: int  # n0 of the slice's Gram matrix
    negative: bool
    witness: tuple | None  # (tags, coefficients) of a negative-norm vector


@dataclass
class GramReport:
    """The Gram analysis of the K-dominant weight slices (one SliceReport
    each).  The form is K-invariant, so a negative or null direction of the
    truncated module shows in the slice of a K-dominant weight, and
    kernel_total counts the null directions of the whole spanning family,
    every weight slice included: each K-type's null multiplicity h0(nu),
    solved from the dominant slices' kernels by `ktypes`, times dim V_nu."""

    positive_definite: bool
    has_negative: bool
    kernel_total: int  # sum over all weight slices of n0, by K-types
    slices: list
    negative_witness: tuple | None


def analyze_gram(G):
    """(n0, witness) of the symmetric matrix G by one symmetric reduction on
    `RowSpace`: n0 = N - rank(G), and witness a coefficient vector over the
    family with negative norm, or None when G is positive semidefinite.

    The reduction runs on integers: G is multiplied once by L, the lcm of
    its entries' denominators.  Row i is row i of L G, column u under key -u
    (the least column pivots), plus e_i under key -n - i.  Reduced, it is
    (g, c) with g = L G c zero on every stored column and c = c_i e_i plus
    stored rows.  Every row with g != 0 is stored as reduced
    (`RowSpace.store`), so N - rank(G) rows reduce to g = 0; g and c are
    read off the row before the store divides it by its signed gcd.  Before
    the first row with g_i <= 0 every stored row has positive norm, so
    c / c_i is G-orthogonal to them and its norm has the sign of g_i; a
    negative one is the witness.  With g_i = 0 and g != 0, c / c_i is
    isotropic and pairs with e_p, p the least column of g, by
    g_p = (L G c)_p / (L c_i); the witness tau c / c_i + e_p with
    tau = -(|G_pp| + |g_p|) / (2 g_p) has norm G_pp - |G_pp| - |g_p| < 0
    and does not change under G -> c G, c > 0.
    """
    n = len(G)
    scale = lcm(*(x.denominator for row in G for x in row))
    space = RowSpace()
    kernel = 0
    witness = None
    for i in range(n):
        row = {-u: x.numerator * (scale // x.denominator) for u, x in enumerate(G[i]) if x}
        row[-n - i] = 1
        red, piv = space.reduce(row)
        if piv <= -n:  # g = 0
            kernel += 1
            continue
        space.store(red, piv)  # red keeps its scale: norm and c are read below
        norm = red.get(-i, 0)
        if norm > 0 or witness is not None:
            continue
        c = [red.get(-n - t, 0) for t in range(n)]
        if norm < 0:
            witness = [Fraction(x, c[i]) for x in c]
            continue
        p = -piv
        g_p = Fraction(red[piv], scale * c[i])
        tau = -(abs(G[p][p]) + abs(g_p)) / (2 * g_p)
        witness = [tau * x / c[i] for x in c]
        witness[p] += 1
    return kernel, witness


# ---------------------------------------------------------------------------
# the gamma-free module, held per realization shape
# ---------------------------------------------------------------------------

class FockModule(NamedTuple):
    """The gamma-free part of the truncated module: u_0 and, per K-dominant
    charge in ascending order, the tags of its PBW family and their vectors,
    prepared for `inner_product` with their chain images.  size counts the
    vectors, u_0 included."""

    u0: Prepared
    slices: dict  # charge -> (tags, prepared vectors)
    size: int


def fock_module(spec: OscillatorSpec, u0, cutoff: int) -> FockModule:
    """The module of u0 to the given E^(-) depth: `u0_k_basis`, then
    `pbw_family`, with every check they make.  Its vectors, prepared with
    one canon, share their equal keys (`inner.prepare`).  u_0 is vector 0
    of the family and the PBW vectors follow in slice order; they share one
    pair table when the module's Gram entries, 1 + sum d(d + 1)/2 over its
    slices of d vectors (never fewer than its vectors), fit
    MAX_HELD_VECTORS, and carry none otherwise."""
    family = pbw_family(spec, u0_k_basis(spec, u0), cutoff)
    entries = 1 + sum(len(fam) * (len(fam) + 1) // 2 for fam in family.values())
    pairs = {} if entries <= MAX_HELD_VECTORS else None
    canon = {}
    # only vectors that share a table need an index; the rest keep index 0,
    # a shared small int, which spares a large module one int per vector
    index = count(1) if pairs is not None else repeat(0)
    slices = {
        charge: (tuple(tag for tag, _vec in fam),
                 tuple(prepare(spec, vec, canon, pairs, next(index)) for _tag, vec in fam))
        for charge, fam in family.items()
    }
    return FockModule(prepare(spec, u0, canon, pairs), slices,
                      1 + sum(len(tags) for tags, _vecs in slices.values()))


def module_key(spec: OscillatorSpec, label, cutoff: int) -> tuple:
    """The realization shape that fixes a `FockModule`: the spec but for its
    gammas, which blocks are deformed, the label's partitions and the cutoff."""
    return (spec.p, spec.m, spec.q, spec.P, spec.B_delta, spec.A_delta, spec.F_delta,
            spec.F_cols, spec.b_deformed, spec.a_deformed,
            label.mu_L.parts, label.tau.parts, label.mu_R.parts, cutoff)


# module_key -> FockModule, oldest first, at most MAX_HELD_VECTORS vectors in
# all; emptied by `inner.clear_caches()`.  The lock guards the eviction walk.
_MODULES = {}
_MODULES_LOCK = Lock()


def _keep(key, held: FockModule) -> None:
    """Store held under key, dropping the oldest modules until the vectors
    held fit MAX_HELD_VECTORS; a module larger than the bound is not kept."""
    with _MODULES_LOCK:
        if held.size > MAX_HELD_VECTORS or key in _MODULES:
            return
        total = held.size + sum(m.size for m in _MODULES.values())
        for old in list(_MODULES):
            if total <= MAX_HELD_VECTORS:
                break
            total -= _MODULES.pop(old).size
        _MODULES[key] = held


def gram_positivity(d: NonCompactYoungDiagram, cutoff: int) -> GramReport:
    """Exact Gram analysis of the induced module up to the given E^(-) depth,
    on its K-dominant weight slices (`GramReport`).

    A negative cutoff is refused (ValueError): it would analyse no slice and
    report an empty, positive definite Gram matrix.  The gamma-free module is
    looked up by `module_key` after the realization's own refusals, and
    built when it is missing; the norm of u_0, every Gram entry and the
    analysis are made at the diagram's gammas, each pairing on the module's
    held vectors, and a module is kept once its u_0 has passed the null
    check."""
    if cutoff < 0:
        raise ValueError(f"the E^(-) depth cutoff must be >= 0, got {cutoff}")
    spec = OscillatorSpec.from_diagram(d)
    key = module_key(spec, d.label, cutoff)
    held = found = _MODULES.get(key)
    if found is None:
        held = fock_module(spec, build_u0(d)[1], cutoff)
    if inner_product(spec, held.u0, held.u0) == 0:
        raise AssertionError("U_0 highest vector is null; realization degenerate")
    if found is None:
        _keep(key, held)

    reports = []
    witness = None
    kernels = {}
    has_negative = False
    for charge, (tags, vecs) in held.slices.items():
        G = [[None] * len(vecs) for _ in vecs]  # every entry is set below
        for r, u in enumerate(vecs):
            for c in range(r, len(vecs)):
                G[r][c] = G[c][r] = inner_product(spec, u, vecs[c])
        kern, neg = analyze_gram(G)
        kernels[charge] = kern
        rep = SliceReport(spec.charge_weight(charge), len(vecs), kern, neg is not None, None)
        if neg is not None:
            has_negative = True
            rep.witness = (tags, tuple(neg))
            if witness is None:
                witness = (rep.weight, rep.witness)
        reports.append(rep)
    blocks = k_blocks(spec.p, spec.m, spec.q)
    kernel_total = 0
    for nu, h0 in highest_weight_counts(blocks, kernels).items():
        if h0 < 0:
            raise AssertionError(f"the Gram kernel at charge {nu} is no K-character (h0 = {h0})")
        if h0:
            kernel_total += dimension(blocks, nu) * h0
    return GramReport(
        positive_definite=(not has_negative and kernel_total == 0),
        has_negative=has_negative,
        kernel_total=kernel_total,
        slices=reports,
        negative_witness=witness,
    )
