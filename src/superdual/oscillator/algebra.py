"""Oscillator realisation of gl(p,|m|q) generators on (deformed) Fock states.

Index order follows the su(p,|m|q) grading: 0..p-1 are the dotted bosons (b),
p..p+m-1 the fermions (f), p+m..p+m+q-1 the undotted bosons (a).  The
generator table is

    E =  [ -b.b+   b.f    b.a  ]
         [ -f+.b+  f+.f   f+.a ]
         [ -a+.b+  a+.f   a+.a ]

with the dot summing the colour index over 0..P-1.  A lowering oscillator on
a deformed square block acts as d/dx + (d det/dx)(gamma/t + d/dt).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ..diagrams import NonCompactYoungDiagram, Realization, realize
from ..labels import RepLabel, grading_pmq, weight_pmq_from_realization
from ..rationals import rat
from ..weights import FundamentalWeight
from .states import PERMS, State, _bump, add_into, reduce_state, zero_state


@dataclass(frozen=True)
class OscillatorSpec:
    """Flavour counts, colour count and the deformed/fermion-filled colours."""

    p: int
    m: int
    q: int
    P: int
    gamma_L: Fraction
    gamma_R: Fraction
    B_delta: tuple  # colours of the b-deformation block (square iff gamma_L != 0)
    A_delta: tuple  # colours of the a-deformation block / minor colours
    F_delta: tuple  # fermion-filled colours (A_delta subset for m > 0)
    F_cols: tuple  # colours of the tau columns

    @classmethod
    def plain(cls, p=0, m=0, q=0, P=1):
        """Undeformed Fock spec (unit tests, compact algebras)."""
        return cls(p, m, q, P, rat(0), rat(0), (), (), (), ())

    @classmethod
    def from_diagram(cls, d: NonCompactYoungDiagram) -> "OscillatorSpec":
        label, r = d.label, d.realization
        nB = r.b_delta_size(label)
        nA = r.a_delta_size(label)
        B_delta = tuple(range(nB))
        if label.m:
            F_delta = tuple(range(nB, nB + r.fdelta))
            A_delta = F_delta[:nA]
            if nA > len(F_delta):
                raise ValueError("realization lacks colours for A_Delta inside F_Delta")
            F_cols = tuple(range(nB + r.fdelta, nB + r.fdelta + label.tau.part(1)))
            top = nB + r.fdelta + label.tau.part(1)
        else:
            F_delta = ()
            A_delta = tuple(range(nB, nB + nA))
            F_cols = ()
            top = nB + nA
        if top > r.P:
            raise ValueError(f"realization needs at least {top} colours, has {r.P}")
        return cls(
            label.p, label.m, label.q, r.P, r.gamma_L, r.gamma_R,
            B_delta, A_delta, F_delta, F_cols,
        )

    @property
    def n(self) -> int:
        return self.p + self.m + self.q

    @property
    def a_deformed(self) -> bool:
        return self.gamma_R != 0

    @property
    def b_deformed(self) -> bool:
        return self.gamma_L != 0

    def a_block_cols(self):
        return self.A_delta if self.a_deformed else ()

    def b_block_cols(self):
        return self.B_delta if self.b_deformed else ()

    def vacuum(self) -> State:
        return zero_state(self.p, self.m, self.q, self.P)

    def reduce(self, state: State) -> dict:
        return reduce_state(state, self.a_block_cols(), self.b_block_cols())

    # -- weights ------------------------------------------------------------
    def state_charge(self, s: State) -> tuple:
        """The integer part of `state_weight`: sL - sum b_r, the fermion
        count and sum a_alpha - sR (sL, sR only on a deformed block)."""
        sL = s.sL if self.b_deformed else 0
        sR = s.sR if self.a_deformed else 0
        mask = (1 << self.P) - 1
        return (
            tuple(sL - sum(row) for row in s.b)
            + tuple((s.f >> (a * self.P) & mask).bit_count() for a in range(self.m))
            + tuple(sum(row) - sR for row in s.a)
        )

    @cached_property
    def _weight_offsets(self) -> tuple:  # state_weight - state_charge
        return ((-self.P - rat(self.gamma_L),) * self.p + (rat(0),) * self.m
                + (rat(self.gamma_R),) * self.q)

    def charge_weight(self, charge) -> tuple:
        """The E_ii eigenvalues of every state of the given charge."""
        return tuple(o + c for o, c in zip(self._weight_offsets, charge))

    def state_weight(self, s: State) -> tuple:
        """E_ii eigenvalues of a monomial state, in su(p,|m|q) index order."""
        return self.charge_weight(self.state_charge(s))


# ---------------------------------------------------------------------------
# primitive oscillator actions (linear maps on LinCombs)
# ---------------------------------------------------------------------------

def _fsign(mask: int, bit: int) -> int:
    return -1 if bin(mask & ((1 << bit) - 1)).count("1") % 2 else 1


def _add_reduced(spec: OscillatorSpec, out: dict, state: State, coeff) -> None:
    """Add coeff times the normal form of state into out."""
    for rs, rc in spec.reduce(state).items():
        add_into(out, rs, coeff if rc == 1 else coeff * rc)


def mul_a(spec: OscillatorSpec, fl: int, col: int, lc: dict) -> dict:
    out = {}
    for s, c in lc.items():
        ns = s._replace(a=_bump(s.a, fl, col, +1))
        if s.sR and col in spec.a_block_cols():
            _add_reduced(spec, out, ns, c)
        else:
            add_into(out, ns, c)
    return out


def mul_b(spec: OscillatorSpec, fl: int, col: int, lc: dict) -> dict:
    out = {}
    for s, c in lc.items():
        ns = s._replace(b=_bump(s.b, fl, col, +1))
        if s.sL and col in spec.b_block_cols():
            _add_reduced(spec, out, ns, c)
        else:
            add_into(out, ns, c)
    return out


def _ann_boson(spec, which, fl, col, lc):
    """Annihilator on the a- or b-family, with the deformed tail."""
    deformed = spec.a_deformed if which == "a" else spec.b_deformed
    cols = spec.A_delta if which == "a" else spec.B_delta
    gamma = spec.gamma_R if which == "a" else spec.gamma_L
    out = {}
    for s, c in lc.items():
        mat = s.a if which == "a" else s.b
        spow = s.sR if which == "a" else s.sL
        # plain derivative
        if mat[fl][col]:
            ns_mat = _bump(mat, fl, col, -1)
            ns = s._replace(**{which: ns_mat})
            add_into(out, ns, c * mat[fl][col])
        # determinant tail: (d det/dx_{fl,col}) (gamma - s) s^{+1}
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
                _add_reduced(spec, out, ns, tail if sign == 1 else -tail)
    return out


def ann_a(spec, fl, col, lc):
    return _ann_boson(spec, "a", fl, col, lc)


def ann_b(spec, fl, col, lc):
    return _ann_boson(spec, "b", fl, col, lc)


def mul_f(spec, fl, col, lc):
    out = {}
    bit = fl * spec.P + col
    for s, c in lc.items():
        if s.f >> bit & 1:
            continue
        add_into(out, s._replace(f=s.f | (1 << bit)), c * _fsign(s.f, bit))
    return out


def ann_f(spec, fl, col, lc):
    out = {}
    bit = fl * spec.P + col
    for s, c in lc.items():
        if not s.f >> bit & 1:
            continue
        add_into(out, s._replace(f=s.f & ~(1 << bit)), c * _fsign(s.f, bit))
    return out


def deformed_action(spec: OscillatorSpec, kind: str, direction: str, fl: int, col: int, v):
    """Single-oscillator action; kind in {a, b, f}, direction in {raise, lower}."""
    lc = v if isinstance(v, dict) else {v: Fraction(1)}
    table = {
        ("a", "raise"): mul_a,
        ("a", "lower"): ann_a,
        ("b", "raise"): mul_b,
        ("b", "lower"): ann_b,
        ("f", "raise"): mul_f,
        ("f", "lower"): ann_f,
    }
    return table[(kind, direction)](spec, fl, col, lc)


# ---------------------------------------------------------------------------
# determinant operators of the deformed blocks
# ---------------------------------------------------------------------------

def delta_dagger(spec: OscillatorSpec, which: str, lc: dict) -> dict:
    """Multiplication by t (= det of the raising oscillators on the block)."""
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


def delta_lower(spec: OscillatorSpec, which: str, lc: dict) -> dict:
    """The annihilator determinant Delta = det(a_i(A)) on the block."""
    cols = spec.A_delta if which == "a" else spec.B_delta
    fn = ann_a if which == "a" else ann_b
    n = len(cols)
    return column_det(n, lambda row, k, term: fn(spec, row, cols[k], term), lc, range(n))


def column_det(n: int, op, lc: dict, order) -> dict:
    """sum_sigma sgn(sigma) op(sigma(k_last), k_last) ... op(sigma(k_0), k_0) lc.

    op(row, k, lc) is a linear map; `order` lists the columns k_0, ..., k_last
    in the order they act, ascending (range(n)) or descending.  The partial
    sums are kept per set of rows used so far, so the 2^n sets replace the n!
    permutations (n 2^(n-1) applications of op) and cancelling terms merge
    early.  A new row adds one inversion per used row on its inverting side:
    above it when the columns ascend, below it when they descend.
    """
    order = tuple(order)
    if order == tuple(range(n)):
        def inversions(used, row):
            return bin(used >> (row + 1)).count("1")
    elif order == tuple(range(n - 1, -1, -1)):
        def inversions(used, row):
            return bin(used & ((1 << row) - 1)).count("1")
    else:
        raise ValueError(f"columns {order} are not monotone in range({n})")
    partial = {0: lc}  # bitmask of the rows used -> partial sum
    for k in order:
        nxt = {}
        for used, term in partial.items():
            for row in range(n):
                if used >> row & 1:
                    continue
                acc = nxt.setdefault(used | 1 << row, {})
                odd = inversions(used, row) % 2
                for s, c in op(row, k, term).items():
                    add_into(acc, s, -c if odd else c)
        partial = {used: term for used, term in nxt.items() if term}
    return partial.get((1 << n) - 1, {})


# ---------------------------------------------------------------------------
# gl generators
# ---------------------------------------------------------------------------

def _block_of(spec, i):
    if i < spec.p:
        return ("b", i)
    if i < spec.p + spec.m:
        return ("f", i - spec.p)
    return ("a", i - spec.p - spec.m)


# E_ij = sign * LEFT[block i](RIGHT[block j]), summed over the colours (see
# the generator table in the module docstring)
_LEFT = {"b": ann_b, "f": mul_f, "a": mul_a}
_RIGHT = {"b": (mul_b, -1), "f": (ann_f, 1), "a": (ann_a, 1)}


def generator_action(spec: OscillatorSpec, i: int, j: int, v) -> dict:
    """E_ij acting on a state or LinComb (0-based su(p,|m|q) indices)."""
    lc = v if isinstance(v, dict) else {v: Fraction(1)}
    (bi, fi), (bj, fj) = _block_of(spec, i), _block_of(spec, j)
    left, (right, sign) = _LEFT[bi], _RIGHT[bj]
    out = {}
    for A in range(spec.P):
        for s, c in left(spec, fi, A, right(spec, fj, A, lc)).items():
            add_into(out, s, sign * c)
    return out


def basis_states(spec: OscillatorSpec, cutoff: int, max_s: int = 0):
    """All canonical monomials with oscillator degree <= cutoff, s <= max_s."""
    from itertools import product

    def mats(rows, budget):
        cells = rows * spec.P
        if cells == 0:
            yield ()
            return
        for combo in _bounded_tuples(cells, budget):
            yield tuple(combo[r * spec.P : (r + 1) * spec.P] for r in range(rows))

    out = []
    for total_a in range(cutoff + 1):
        for amat in mats(spec.q, total_a):
            if sum(map(sum, amat)) != total_a:
                continue
            for total_b in range(cutoff - total_a + 1):
                for bmat in mats(spec.p, total_b):
                    if sum(map(sum, bmat)) != total_b:
                        continue
                    budget_f = cutoff - total_a - total_b
                    for fmask in _masks(spec.m * spec.P, budget_f):
                        for sL in range(max_s + 1 if spec.b_deformed else 1):
                            for sR in range(max_s + 1 if spec.a_deformed else 1):
                                st = State(amat, bmat, fmask, sL, sR)
                                if spec.reduce(st) != {st: Fraction(1)}:
                                    continue  # not canonical
                                out.append(st)
    return out


def _bounded_tuples(cells, budget):
    if cells == 0:
        if budget == 0:
            yield ()
        return
    if cells == 1:
        yield (budget,)
        return
    for first in range(budget + 1):
        for rest in _bounded_tuples(cells - 1, budget - first):
            yield (first,) + rest


def _masks(bits, max_pop):
    for mask in range(1 << bits):
        if bin(mask).count("1") <= max_pop:
            yield mask


def generator_matrix(spec: OscillatorSpec, i: int, j: int, cutoff: int, max_s: int = 0):
    """Sparse matrix of E_ij over the degree-truncated canonical basis.

    Returns (basis, matrix) where matrix[col_index] lists (row_state, coeff);
    images leaving the truncation window are kept (as states), so commutation
    identities can be checked exactly on the sub-basis that stays inside.
    """
    basis = basis_states(spec, cutoff, max_s)
    cols = {}
    for k, st in enumerate(basis):
        cols[k] = generator_action(spec, i, j, st)
    return basis, cols
