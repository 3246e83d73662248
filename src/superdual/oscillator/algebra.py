"""Oscillator realisation of gl(p,|m|q) generators on (deformed) Fock states.

Index order follows the su(p,|m|q) grading: 0..p-1 are the dotted bosons (b),
p..p+m-1 the fermions (f), p+m..p+m+q-1 the undotted bosons (a).  The
generator table is

    E =  [ -b.b+   b.f    b.a  ]
         [ -f+.b+  f+.f   f+.a ]
         [ -a+.b+  a+.f   a+.a ]

with the dot summing the colour index over 0..P-1.  A lowering oscillator on
a deformed square block acts as d/dx + (d det/dx)(gamma/t + d/dt).

The a and b families obey the same rules, so each boson operator has one
body that reads the family's `Boson` record (`OscillatorSpec.bosons`): the
State fields of its matrix and s power, its determinant colours, its
deformed block and its gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations_with_replacement
from operator import itemgetter
from typing import NamedTuple

from ..diagrams import NonCompactYoungDiagram
from ..rationals import rat
from .states import (
    MAX_BLOCK, MAX_COLOURS, MAX_U0_DEGREE, PERMS, State, _bump, _perm_bump, add_into, reduce_state,
    set_field, zero_state,
)


class Boson(NamedTuple):
    """One bosonic family of a spec: all that its operators read."""

    mat: int  # index of the State field holding its exponent matrix
    spow: int  # index of the State field holding its s power
    cols: tuple  # determinant colours (the minors, Delta and Delta+)
    block: tuple  # deformed block colours: cols when gamma != 0, else ()
    gamma: Fraction


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
        """The spec on the diagram's colour layout (`Realization.layout`).

        Refuses (ValueError) a layout that does not fit, more than
        MAX_COLOURS colours, or a U_0 vector of more than MAX_U0_DEGREE
        oscillators."""
        label, r = d.label, d.realization
        colours, misfit = r.layout(label)
        if misfit:
            raise ValueError(misfit)
        if r.P > MAX_COLOURS:
            raise ValueError(f"{r.P} colours are outside the supported range 0..{MAX_COLOURS}")
        degree = label.mu_L.size + label.tau.size + label.m * r.fdelta + label.mu_R.size
        if degree > MAX_U0_DEGREE:
            raise ValueError(
                f"a U_0 vector of degree {degree} is outside the supported range 0..{MAX_U0_DEGREE}"
            )
        B_delta, A_delta, F_delta, F_cols = map(tuple, colours)
        return cls(
            label.p, label.m, label.q, r.P, r.gamma_L, r.gamma_R,
            B_delta, A_delta, F_delta, F_cols,
        )

    @property
    def n(self) -> int:
        return self.p + self.m + self.q

    @cached_property
    def a_deformed(self) -> bool:
        return self.gamma_R != 0

    @cached_property
    def b_deformed(self) -> bool:
        return self.gamma_L != 0

    @cached_property
    def block_forms(self) -> tuple:
        """(a form, b form): (n, gamma numerator, gamma denominator) of each
        deformed block, n its size, and None for a block that is not
        deformed; `inner` reads the block's weights under it."""
        return tuple((n, gamma.numerator, gamma.denominator) if gamma else None
                     for n, gamma in ((self.q, self.gamma_R), (self.p, self.gamma_L)))

    @cached_property
    def bosons(self) -> dict:
        """{"a": Boson, "b": Boson}: the records every boson operator reads."""
        field = State._fields.index
        return {
            "a": Boson(field("a"), field("sR"), self.A_delta,
                       self.A_delta if self.a_deformed else (), self.gamma_R),
            "b": Boson(field("b"), field("sL"), self.B_delta,
                       self.B_delta if self.b_deformed else (), self.gamma_L),
        }

    def vacuum(self) -> State:
        return zero_state(self.p, self.m, self.q, self.P)

    def reduce(self, state: State) -> dict:
        return reduce_state(state, self.bosons["a"].block, self.bosons["b"].block)

    # -- weights ------------------------------------------------------------
    @cached_property
    def _fermion_masks(self) -> tuple:  # the f bits of each fermion flavour
        mask = (1 << self.P) - 1
        return tuple(mask << (a * self.P) for a in range(self.m))

    def state_charge(self, s: State) -> tuple:
        """The integer part of `state_weight`: sL - sum b_r, the fermion
        count and sum a_alpha - sR (sL, sR only on a deformed block)."""
        sL = s.sL if self.b_deformed else 0
        sR = s.sR if self.a_deformed else 0
        f = s.f
        return (
            tuple(sL - sum(row) for row in s.b)
            + tuple((f & mask).bit_count() for mask in self._fermion_masks)
            + tuple(sum(row) - sR for row in s.a)
        )

    @cached_property
    def column_getters(self) -> tuple:
        """(plain a, plain b, deformed a, deformed b): maps from a matrix row
        to its entries on those colours, as a tuple; a deformed entry is None
        when its block is not deformed.  `inner.prepare` splits states with
        them."""
        fams = self.bosons["a"], self.bosons["b"]
        plain = (tuple(A for A in range(self.P) if A not in fam.block) for fam in fams)
        return (
            *map(_row_getter, plain),
            *(_row_getter(fam.block) if fam.gamma else None for fam in fams),
        )

    @cached_property
    def _weight_offsets(self) -> tuple:  # state_weight - state_charge, per index
        offsets = ((-self.P - rat(self.gamma_L),) * self.p + (rat(0),) * self.m
                   + (rat(self.gamma_R),) * self.q)
        return tuple((o.numerator, o.denominator) for o in offsets)

    def charge_weight(self, charge) -> tuple:
        """The E_ii eigenvalues of every state of the given charge: entry i
        is the constant offset of index i plus charge[i], made as one
        Fraction from the offset's numerator and denominator."""
        return tuple(Fraction(num + c * den, den)
                     for (num, den), c in zip(self._weight_offsets, charge))

    def state_weight(self, s: State) -> tuple:
        """E_ii eigenvalues of a monomial state, in su(p,|m|q) index order."""
        return self.charge_weight(self.state_charge(s))


def _row_getter(cols: tuple):
    """row -> tuple(row[c] for c in cols)."""
    if len(cols) > 1:
        return itemgetter(*cols)
    if cols:
        (col,) = cols
        return lambda row: (row[col],)
    return lambda row: ()


# ---------------------------------------------------------------------------
# primitive oscillator actions (linear maps on LinCombs)
# ---------------------------------------------------------------------------

def _fsign(mask: int, bit: int) -> int:
    return -1 if (mask & ((1 << bit) - 1)).bit_count() % 2 else 1


def _add_reduced(spec: OscillatorSpec, out: dict, state: State, coeff) -> None:
    """Add coeff times the normal form of state into out."""
    for rs, rc in spec.reduce(state).items():
        add_into(out, rs, coeff if rc == 1 else coeff * rc)


def mul(spec: OscillatorSpec, fam: Boson, fl: int, col: int, lc: dict) -> dict:
    """Creation oscillator (fl, col) of the family, in normal form."""
    out = {}
    for s, c in lc.items():
        ns = set_field(s, fam.mat, _bump(s[fam.mat], fl, col, +1))
        if s[fam.spow] and col in fam.block:
            _add_reduced(spec, out, ns, c)
        else:
            add_into(out, ns, c)
    return out


def ann(spec: OscillatorSpec, fam: Boson, fl: int, col: int, lc: dict) -> dict:
    """Annihilation oscillator (fl, col) of the family, with the deformed tail."""
    out = {}
    for s, c in lc.items():
        mat, spow = s[fam.mat], s[fam.spow]
        # plain derivative
        if mat[fl][col]:
            add_into(out, set_field(s, fam.mat, _bump(mat, fl, col, -1)), c * mat[fl][col])
        # determinant tail: (d det/dx_{fl,col}) (gamma - s) s^{+1}
        if col in fam.block and fam.gamma != spow:
            tail = c * (fam.gamma - spow)
            pos = fam.block.index(col)
            fields = list(s)
            fields[fam.spow] = spow + 1
            for perm, sign in PERMS[len(fam.block)]:
                if perm[fl] == pos:
                    fields[fam.mat] = _perm_bump(mat, fam.block, perm, fl)
                    _add_reduced(spec, out, State._make(fields), tail if sign == 1 else -tail)
    return out


def mul_f(spec, fl, col, lc):
    out = {}
    bit = fl * spec.P + col
    for s, c in lc.items():
        if s.f >> bit & 1:
            continue
        add_into(out, State(s.a, s.b, s.f | (1 << bit), s.sL, s.sR), c * _fsign(s.f, bit))
    return out


def ann_f(spec, fl, col, lc):
    out = {}
    bit = fl * spec.P + col
    for s, c in lc.items():
        if not s.f >> bit & 1:
            continue
        add_into(out, State(s.a, s.b, s.f & ~(1 << bit), s.sL, s.sR), c * _fsign(s.f, bit))
    return out


# ---------------------------------------------------------------------------
# determinant operators of the deformed blocks
# ---------------------------------------------------------------------------

def delta_dagger(spec: OscillatorSpec, which: str, lc: dict) -> dict:
    """Multiplication by t (= det of the raising oscillators on the block)."""
    fam = spec.bosons[which]
    out = {}
    for s, c in lc.items():
        spow = s[fam.spow]
        if spow:
            add_into(out, set_field(s, fam.spow, spow - 1), c)
            continue
        for perm, sign in PERMS[len(fam.cols)]:
            add_into(out, set_field(s, fam.mat, _perm_bump(s[fam.mat], fam.cols, perm)), c * sign)
    return out


def delta_lower(spec: OscillatorSpec, which: str, lc: dict) -> dict:
    """The annihilator determinant Delta = det(a_i(A)) on the block; its
    entries commute, so `column_det`'s column order does not matter."""
    fam = spec.bosons[which]
    n = len(fam.cols)
    return column_det(n, lambda row, k, term: ann(spec, fam, row, fam.cols[k], term), lc)


def column_det(n: int, op, lc: dict) -> dict:
    """sum_sigma sgn(sigma) op(sigma(0), 0) ... op(sigma(n-1), n-1) lc, the
    column-ordered determinant: column n-1 acts first, as the Capelli
    identity needs for entries that do not commute.

    op(row, k, lc) is a linear map.  The partial sums are kept per set of
    rows used so far, so the 2^n sets replace the n! permutations
    (n 2^(n-1) applications of op) and cancelling terms merge early.  A new
    row adds one inversion per used row below it.  n > MAX_BLOCK is refused
    with ValueError before op is applied.
    """
    if n > MAX_BLOCK:
        raise ValueError(f"a {n} x {n} determinant is outside the supported sizes 0..{MAX_BLOCK}")
    sums = {0: lc}  # bitmask of the rows used -> partial sum
    for k in range(n - 1, -1, -1):
        nxt = {}
        for used, term in sums.items():
            for row in range(n):
                if used >> row & 1:
                    continue
                acc = nxt.setdefault(used | 1 << row, {})
                odd = (used & ((1 << row) - 1)).bit_count() % 2
                for s, c in op(row, k, term).items():
                    add_into(acc, s, -c if odd else c)
        sums = {used: term for used, term in nxt.items() if term}
    return sums.get((1 << n) - 1, {})


# ---------------------------------------------------------------------------
# gl generators
# ---------------------------------------------------------------------------

def _flavour_ops(spec: OscillatorSpec, i: int):
    """(creation, annihilation) of index i's flavour, as maps (colour, lc) -> lc."""
    if spec.p <= i < spec.p + spec.m:
        return partial(mul_f, spec, i - spec.p), partial(ann_f, spec, i - spec.p)
    fam, fl = (spec.bosons["b"], i) if i < spec.p else (spec.bosons["a"], i - spec.p - spec.m)
    return partial(mul, spec, fam, fl), partial(ann, spec, fam, fl)


def generator_action(spec: OscillatorSpec, i: int, j: int, v) -> dict:
    """E_ij acting on a state or LinComb (0-based su(p,|m|q) indices).

    E_ij = sign * LEFT_i(RIGHT_j) summed over the colours, as in the generator
    table of the module docstring: the dotted b bosons swap creation and
    annihilation, and a b creation on the right carries the sign -1."""
    lc = v if isinstance(v, dict) else {v: 1}
    create_i, annihilate_i = _flavour_ops(spec, i)
    create_j, annihilate_j = _flavour_ops(spec, j)
    left = annihilate_i if i < spec.p else create_i
    right, sign = (create_j, -1) if j < spec.p else (annihilate_j, 1)
    out = {}
    for A in range(spec.P):
        for s, c in left(A, right(A, lc)).items():
            add_into(out, s, sign * c)
    return out


def basis_states(spec: OscillatorSpec, cutoff: int, max_s: int = 0):
    """All canonical monomials with oscillator degree <= cutoff, s <= max_s.

    A monomial of degree k is a multiset of k oscillator cells: the a cells
    (flavour, colour), then the b cells, then the fermion bits, which occur
    at most once."""
    P = spec.P
    n_a, n_bosons = spec.q * P, (spec.q + spec.p) * P
    out = []
    for cells in chain.from_iterable(
        combinations_with_replacement(range(n_bosons + spec.m * P), k)
        for k in range(cutoff + 1)
    ):
        if any(x == y >= n_bosons for x, y in zip(cells, cells[1:])):
            continue  # a fermion bit twice
        exps = [0] * n_bosons
        f = 0
        for x in cells:
            if x < n_bosons:
                exps[x] += 1
            else:
                f |= 1 << (x - n_bosons)
        a = tuple(tuple(exps[r * P : r * P + P]) for r in range(spec.q))
        b = tuple(tuple(exps[n_a + r * P : n_a + r * P + P]) for r in range(spec.p))
        for sL in range(max_s + 1 if spec.b_deformed else 1):
            for sR in range(max_s + 1 if spec.a_deformed else 1):
                st = State(a, b, f, sL, sR)
                if spec.reduce(st) == {st: 1}:  # canonical
                    out.append(st)
    return out
