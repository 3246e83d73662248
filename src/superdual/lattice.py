"""Duality transformations and the weight lattice of all gradings.

A grading of the su(p,q|m) family is a monotone staircase path on a
(p+q) x m lattice: p-even indices are vertical steps (one per row, bottom to
top), p-odd indices horizontal steps (one per column, left to right).  The p
lower rows carry the c-odd p-even indices (the nu_L block), the q upper rows
the c-even ones (nu_R); horizontal edges carry the lambda values.

Every edge of the lattice holds one E_ii eigenvalue.  Adjacent paths are
related by duality transformations on p-odd nodes, which obey one rule across
each unit cell (`_cross`):

    lambda_bottom = lambda_top + 1,  nu_right = nu_left - 1

unless lambda_top + nu_left = 0 (a shortening cell), where both values carry
over unchanged.  The cell sum S = lambda + nu is the same for both pairings
and (-1)^{c_a+c_mu} S >= 0 is the plaquette unitarity constraint.

`build_weight_lattice` holds every edge as an integer over one common
denominator and crosses each cell once, in path order, so each off-path edge
is written once.  The rule is its own inverse (a crossing keeps lambda + nu),
so a filled cell needs no second crossing; the tests hold `_cross` to that and
the fill to an independent sweep reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .gradings import Grading
from .weights import FundamentalWeight


@dataclass(frozen=True)
class LatticeShape:
    p: int
    q: int
    m: int
    steps: tuple  # per index: ("v", row, col) or ("h", level, col)


def lattice_shape(g: Grading) -> LatticeShape:
    """Interpret a grading as a lattice path, or raise ValueError.

    Requirements: all p-odd indices share one c value, and the p-even indices
    split into a lower (relative-c-odd) block followed by an upper block along
    the path -- equivalently the grading has at most one non-compact node.
    """
    ferm_c = {c for (p, c) in g.entries if p == 1}
    if len(ferm_c) > 1:
        raise ValueError("not in the su(p,q|m) family: mixed c on p-odd indices")
    if ferm_c:
        cf = ferm_c.pop()
        low_c = (cf + 1) % 2
    else:
        # m = 0: no fermionic reference; take the first index's class as lower
        low_c = g.entries[0][1]

    rows_c = [c for (p, c) in g.entries if p == 0]
    p_cnt = sum(1 for c in rows_c if c == low_c)
    q_cnt = len(rows_c) - p_cnt
    # lower rows must all precede upper rows
    if rows_c != [low_c] * p_cnt + [(low_c + 1) % 2] * q_cnt:
        raise ValueError("grading is not a lattice path (interior non-compact node)")

    steps = []
    row = 0
    col = 0
    for (p, _c) in g.entries:
        if p == 0:
            row += 1
            steps.append(("v", row, col))
        else:
            col += 1
            steps.append(("h", row, col))
    return LatticeShape(p_cnt, q_cnt, col, tuple(steps))


def _cross(lam, nu, step):
    """The duality rule across one cell: (lam + step, nu - step), or (lam, nu)
    on a shortening cell (lam + nu = 0).  A positive step carries a cell's
    top/left pair of edges to its bottom/right pair, a negative one carries
    them back.  The step is +-1 on values, +-den on numerators over den."""
    if lam + nu == 0:
        return lam, nu
    return lam + step, nu - step


def duality_step(w: FundamentalWeight, node: int) -> FundamentalWeight:
    """Duality transformation at the 1-based Dynkin node `node`.

    Only p-odd nodes are admissible: compact p-even nodes act trivially on
    weights (rejected as a no-op) and non-compact nodes do not preserve the
    highest-weight description (refused).
    """
    g = w.grading
    i = node
    if not 1 <= i < len(g):
        raise ValueError(f"node {i} out of range")
    e1, e2 = g.entries[i - 1], g.entries[i]
    if e1[0] == e2[0]:
        if e1[1] != e2[1]:
            raise ValueError("duality on a non-compact node is not considered")
        raise ValueError("duality on a compact p-even node is a weight no-op")
    v1, v2 = w.m(i), w.m(i + 1)
    if e1[0] == 0:
        # (nu, lambda) order: the new HWS is E_{a mu}|HWS>, raising E_aa
        new_vals_pair = _cross(v2, v1, 1)
    else:
        # (lambda, nu) order: the inverse transformation lowers E_aa
        lam, nu = _cross(v1, v2, -1)
        new_vals_pair = (nu, lam)
    # entries swap; each value stays attached to its oscillator type
    new_entries = list(g.entries)
    new_entries[i - 1], new_entries[i] = e2, e1
    new_vals = list(w.values)
    new_vals[i - 1], new_vals[i] = new_vals_pair
    return FundamentalWeight(Grading(new_entries), new_vals)


@dataclass(frozen=True)
class WeightLattice:
    """All E_ii eigenvalues for every grading of one representation.

    h_edges[(level, col)] with level in 0..p+q, col in 1..m (lambda values);
    v_edges[(row, col)] with row in 1..p+q, col in 0..m (nu values).
    Rows 1..p are the c-odd (nu_L) rows.  The lattice holds each edge as an
    integer numerator over the common denominator `den` (h_num, v_num);
    h_edges and v_edges are their Fraction view, built on first use.
    """

    p: int
    q: int
    m: int
    den: int
    h_num: dict
    v_num: dict

    @cached_property
    def h_edges(self) -> dict:
        return {k: Fraction(x, self.den) for k, x in self.h_num.items()}

    @cached_property
    def v_edges(self) -> dict:
        return {k: Fraction(x, self.den) for k, x in self.v_num.items()}

    def cell_sum(self, row: int, col: int) -> Fraction:
        """S = lambda_top + nu_left (= lambda_bottom + nu_right)."""
        return Fraction(self.h_num[(row, col)] + self.v_num[(row, col - 1)], self.den)


def build_weight_lattice(w: FundamentalWeight) -> WeightLattice:
    """Propagate the duality rule from w's path to every edge.

    Every edge is an integer over den, the lcm of the path values'
    denominators, so a cell's step is +-den.  The fill crosses each cell
    exactly once, in path order: cells right of the path from their top/left
    edges (rows top-down, columns left to right, step +den), cells left of it
    from their bottom/right edges (rows bottom-up, columns right to left,
    step -den).  Each edge off the path is written exactly once.  The tests
    hold this fill to an independent sweep reference.
    """
    shape = lattice_shape(w.grading)
    p, q, m = shape.p, shape.q, shape.m
    den = lcm(*(x.denominator for x in w.values))
    h = {}
    v = {}
    path_col = [0] * (p + q + 1)  # path_col[r]: column of row r's vertical path edge
    for (kind, a, b), val in zip(shape.steps, w.values):
        num = val.numerator * (den // val.denominator)
        if kind == "v":
            v[(a, b)] = num
            path_col[a] = b
        else:
            h[(a, b)] = num
    rows = range(1, p + q + 1)
    for r in reversed(rows):
        for c in range(path_col[r] + 1, m + 1):
            h[(r - 1, c)], v[(r, c)] = _cross(h[(r, c)], v[(r, c - 1)], den)
    for r in rows:
        for c in range(path_col[r], 0, -1):
            h[(r, c)], v[(r, c - 1)] = _cross(h[(r - 1, c)], v[(r, c)], -den)
    return WeightLattice(p, q, m, den, h, v)


@dataclass(frozen=True)
class PlaquetteReport:
    """Signs of (-1)^{c_a+c_mu}(lambda+nu) per cell; rows bottom-up."""

    signs: tuple  # (p+q) rows x m cols, entries "+", "-", "0"
    violations: tuple  # (row, col) with sign "-"
    zeros: tuple  # shortening cells

    @property
    def ok(self):
        return not self.violations


def plaquette_check(lat: WeightLattice) -> PlaquetteReport:
    """The sign of every plaquette (row r, column c), c in 1..m; its
    violations and zeros.  An m = 0 lattice has no plaquette to decide its
    unitarity from, so it is refused (ValueError) rather than reported
    with no violation."""
    if lat.m == 0:
        raise ValueError("an m = 0 weight has no plaquettes")
    signs = []
    violations = []
    zeros = []
    h, v = lat.h_num, lat.v_num
    for r in range(1, lat.p + lat.q + 1):
        row_signs = []
        for c in range(1, lat.m + 1):
            s = h[(r, c)] + v[(r, c - 1)]
            signed = -s if r <= lat.p else s
            if signed > 0:
                row_signs.append("+")
            elif signed < 0:
                row_signs.append("-")
                violations.append((r, c))
            else:
                row_signs.append("0")
                zeros.append((r, c))
        signs.append(tuple(row_signs))
    return PlaquetteReport(tuple(signs), tuple(violations), tuple(zeros))


def weight_in_grading(lat: WeightLattice, target: Grading) -> FundamentalWeight:
    """Read the edge values along the target grading's path."""
    shape = lattice_shape(target)
    if (shape.p, shape.q, shape.m) != (lat.p, lat.q, lat.m):
        raise ValueError("target grading has mismatching lattice dimensions")
    vals = []
    for kind, a, b in shape.steps:
        num = lat.v_num[(a, b)] if kind == "v" else lat.h_num[(a, b)]
        vals.append(Fraction(num, lat.den))
    return FundamentalWeight(target, vals)
