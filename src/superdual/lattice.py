"""Duality transformations and the weight lattice of all gradings.

A grading of the su(p,q|m) family is a monotone staircase path on a
(p+q) x m lattice: p-even indices are vertical steps (one per row, bottom to
top), p-odd indices horizontal steps (one per column, left to right).  The p
lower rows carry the c-odd p-even indices (the nu_L block), the q upper rows
the c-even ones (nu_R); horizontal edges carry the lambda values.

Every edge of the lattice holds one E_ii eigenvalue.  Adjacent paths are
related by duality transformations on p-odd nodes; around each unit cell

    lambda_bottom = lambda_top + 1,  nu_right = nu_left - 1

generically, while on a shortening cell (lambda_top + nu_left = 0) all four
values coincide pairwise.  The cell sum S = lambda + nu is the same for both
pairings and (-1)^{c_a+c_mu} S >= 0 is the plaquette unitarity constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        nu, lam = v1, v2
        if lam + nu != 0:
            lam, nu = lam + 1, nu - 1
        new_vals_pair = (lam, nu)
    else:
        # (lambda, nu) order: the inverse transformation lowers E_aa
        lam, nu = v1, v2
        if lam + nu != 0:
            lam, nu = lam - 1, nu + 1
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
    Rows 1..p are the c-odd (nu_L) rows.
    """

    p: int
    q: int
    m: int
    h_edges: dict
    v_edges: dict

    def cell_sum(self, row: int, col: int) -> Fraction:
        """S = lambda_top + nu_left (= lambda_bottom + nu_right)."""
        return self.h_edges[(row, col)] + self.v_edges[(row, col - 1)]


def build_weight_lattice(w: FundamentalWeight) -> WeightLattice:
    """Propagate the duality rules from w's path to every edge.

    The per-cell relations are deterministic and local, so the result is
    independent of the propagation order; every cell is re-verified at the
    end and any inconsistency raises (it would signal an implementation bug,
    not bad user input).
    """
    shape = lattice_shape(w.grading)
    p, q, m = shape.p, shape.q, shape.m
    rows = p + q
    h = {}
    v = {}
    for step, val in zip(shape.steps, w.values):
        kind, a, b = step
        if kind == "v":
            v[(a, b)] = val
        else:
            h[(a, b)] = val

    def solve_cell(r, c):
        """Return True if new values were assigned for cell (r, c)."""
        top = h.get((r, c))
        bot = h.get((r - 1, c))
        left = v.get((r, c - 1))
        right = v.get((r, c))
        changed = False
        if top is not None and left is not None:
            nb = top if top + left == 0 else top + 1
            nr = left if top + left == 0 else left - 1
            if bot is None:
                h[(r - 1, c)] = nb
                changed = True
            elif bot != nb:
                raise AssertionError("inconsistent lattice propagation")
            if right is None:
                v[(r, c)] = nr
                changed = True
            elif right != nr:
                raise AssertionError("inconsistent lattice propagation")
        elif bot is not None and right is not None:
            nt = bot if bot + right == 0 else bot - 1
            nl = right if bot + right == 0 else right + 1
            if top is None:
                h[(r, c)] = nt
                changed = True
            if left is None:
                v[(r, c - 1)] = nl
                changed = True
        return changed

    for _ in range(rows + m + 1):
        busy = False
        for r in range(1, rows + 1):
            for c in range(1, m + 1):
                busy |= solve_cell(r, c)
        if not busy:
            break

    lat = WeightLattice(p, q, m, h, v)
    _verify_lattice(lat)
    return lat


def _verify_lattice(lat: WeightLattice):
    for r in range(1, lat.p + lat.q + 1):
        for c in range(1, lat.m + 1):
            top, bot = lat.h_edges[(r, c)], lat.h_edges[(r - 1, c)]
            left, right = lat.v_edges[(r, c - 1)], lat.v_edges[(r, c)]
            if top + left == 0:
                ok = bot == top and right == left
            else:
                ok = bot == top + 1 and right == left - 1
            if not ok:
                raise AssertionError(f"cell ({r},{c}) violates the duality rules")


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
    signs = []
    violations = []
    zeros = []
    for r in range(1, lat.p + lat.q + 1):
        row_signs = []
        for c in range(1, lat.m + 1):
            s = lat.cell_sum(r, c)
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
        vals.append(lat.v_edges[(a, b)] if kind == "v" else lat.h_edges[(a, b)])
    return FundamentalWeight(target, vals)
