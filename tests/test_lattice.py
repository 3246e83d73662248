import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdual import lattice
from superdual.gradings import Grading, parse_grading
from superdual.labels import grading_distinguished, grading_pmq
from superdual.lattice import (
    _cross,
    build_weight_lattice,
    duality_step,
    lattice_shape,
    plaquette_check,
    weight_in_grading,
)
from superdual.weights import FundamentalWeight


def su24_weight(beta):
    # compact su(2|4): 2 fermions, 4 bosons; tau = (1,0), mu = (3,1,0,0)
    return FundamentalWeight(grading_pmq(0, 2, 4), (1 + beta, beta, 3, 1, 0, 0))


def test_duality_step_branches():
    g = Grading.from_blocks([(1, 0, 0), (1, 1, 1)])
    w = FundamentalWeight(g, (-2, 2))  # nu = -2, lambda = 2: shortening branch
    w2 = duality_step(w, 1)
    assert w2.values == (2, -2) and w2.grading.entries == ((1, 1), (0, 0))
    w3 = FundamentalWeight(g, (0, 3))  # nu = 0, lambda = 3 -> (4, -1)
    w4 = duality_step(w3, 1)
    assert w4.values == (4, -1)


def test_duality_step_involution():
    rng = random.Random(0)
    g = parse_grading("su(2,|4|2)")
    for _ in range(25):
        vals = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(8))
        w = FundamentalWeight(g, vals)
        for node in (2, 6):  # the p-odd nodes of su(2,|4|2)
            ww = duality_step(duality_step(w, node), node)
            assert ww.values == w.values and ww.grading == w.grading


def test_duality_step_rejections():
    g = parse_grading("su(2,2|4)")
    w = FundamentalWeight(g, (0,) * 8)
    with pytest.raises(ValueError):
        duality_step(w, 1)  # compact p-even
    with pytest.raises(ValueError):
        duality_step(w, 2)  # non-compact


def test_su24_sign_matrices():
    expected = {
        F(1): ((("+", "+"), ("+", "+"), ("+", "-"), ("0", "-")), False),
        F(2): ((("+", "+"), ("+", "+"), ("+", "0"), ("0", "0")), True),
        F(5, 2): ((("+", "+"), ("+", "+"), ("+", "+"), ("+", "-")), False),
        F(3): ((("+", "+"), ("+", "+"), ("+", "+"), ("+", "0")), True),
        F(7, 2): ((("+", "+"), ("+", "+"), ("+", "+"), ("+", "+")), True),
    }
    for beta, (signs, ok) in expected.items():
        rep = plaquette_check(build_weight_lattice(su24_weight(beta)))
        assert rep.signs == signs
        assert rep.ok == ok
    # beta = 5/2 violation sits in the upper-right corner
    rep = plaquette_check(build_weight_lattice(su24_weight(F(5, 2))))
    assert rep.violations == ((4, 2),)


def test_su24_zero_cells_match_fat_hook_rule():
    # independent geometric rule: cell (a, c) is zero iff mu_a = 0 and
    # lambda_c <= a - 1 with lambda = tau + beta
    tau, mu = (1, 0), (3, 1, 0, 0)
    for beta in (2, 3):
        lam = [tau[c] + beta for c in range(2)]
        geo = sorted(
            (a, c + 1)
            for a in range(1, 5)
            for c in range(2)
            if mu[a - 1] == 0 and lam[c] <= a - 1
        )
        rep = plaquette_check(build_weight_lattice(su24_weight(F(beta))))
        assert sorted(rep.zeros) == geo


def test_vacuum_transport():
    w = FundamentalWeight(grading_pmq(2, 4, 2), (-1, -1, 0, 0, 0, 0, 0, 0))
    lat = build_weight_lattice(w)
    out = weight_in_grading(lat, grading_distinguished(2, 2, 4))
    assert out.values == (-1, -1, 0, 0, 0, 0, 0, 0)


def test_identity_path_read_back():
    g = grading_pmq(2, 4, 2)
    w = FundamentalWeight(g, (-1, -1, 1, 0, 0, 0, 0, 0))
    lat = build_weight_lattice(w)
    assert weight_in_grading(lat, g).values == w.values


def test_zero_weight_lattice():
    w = FundamentalWeight(grading_pmq(1, 2, 1), (0, 0, 0, 0))
    lat = build_weight_lattice(w)
    assert all(v == 0 for v in lat.h_edges.values())
    assert all(v == 0 for v in lat.v_edges.values())


def test_interior_noncompact_rejected():
    g = Grading.from_blocks([(1, 0, 0), (1, 0, 1), (1, 0, 0), (2, 1, 1)])
    with pytest.raises(ValueError):
        lattice_shape(g)


def test_mixed_fermion_classes_rejected():
    with pytest.raises(ValueError, match="mixed c on p-odd indices"):
        lattice_shape(Grading([(0, 0), (1, 1), (1, 0)]))


def test_transport_to_another_family_rejected():
    lat = build_weight_lattice(FundamentalWeight(grading_pmq(1, 1, 2), (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="mismatching lattice dimensions"):
        weight_in_grading(lat, grading_pmq(2, 1, 1))


def staircase(p, steps):
    """The grading whose lattice path takes `steps` ("v" up, "h" right) from
    the bottom-left corner, the first p vertical steps in the lower rows."""
    entries = []
    row = 0
    for s in steps:
        if s == "v":
            row += 1
            entries.append((0, 0 if row <= p else 1))
        else:
            entries.append((1, 1))
    return Grading(entries)


def random_paths(p, q, m, rng, count):
    """Random monotone staircases with p lower rows, q upper rows, m columns."""
    out = []
    for _ in range(count):
        steps = ["v"] * (p + q) + ["h"] * m
        rng.shuffle(steps)
        out.append(staircase(p, steps))
    return out


def test_path_independence_random():
    # build the lattice from one grading, re-read along another, rebuild:
    # the two lattices agree edge by edge
    rng = random.Random(42)
    for _ in range(60):
        p, q, m = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3)
        if p + q == 0:
            q = 1
        g0, g1 = random_paths(p, q, m, rng, 2)
        vals = tuple(F(rng.randint(-8, 8), rng.choice([1, 2])) for _ in range(p + q + m))
        w = FundamentalWeight(g0, vals)
        lat0 = build_weight_lattice(w)
        w1 = weight_in_grading(lat0, g1)
        lat1 = build_weight_lattice(w1)
        assert lat0.h_edges == lat1.h_edges
        assert lat0.v_edges == lat1.v_edges


def test_column_monotonicity_long():
    # generic (no-zero) lattices: stepping one row away from the c-even side
    # lowers lambda by one, so S changes by the nu-difference minus one;
    # with equal adjacent nu's that is a unit step per plaquette
    w = su24_weight(F(9, 2))
    lat = build_weight_lattice(w)
    for c in (1, 2):
        for r in (1, 2, 3):
            up = lat.cell_sum(r + 1, c)
            lo = lat.cell_sum(r, c)
            nu_step = lat.v_edges[(r + 1, lat.m)] - lat.v_edges[(r, lat.m)]
            assert up - lo == nu_step - 1


@st.composite
def path_weights(draw):
    """A weight on a random lattice path of a random (p+q) x m lattice; small
    values, so that shortening cells are common."""
    p, q, m = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    q = max(q, 1 - p)
    steps = draw(st.permutations(["v"] * (p + q) + ["h"] * m))
    vals = draw(st.lists(st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6])),
                         min_size=p + q + m, max_size=p + q + m))
    return FundamentalWeight(staircase(p, steps), vals)


def sweep_lattice(w):
    """Reference fill: sweeps of `Fraction` crossings until one stores nothing.

    Each sweep crosses every cell from a known top/left pair, else from a
    known bottom/right pair, stores each unknown far edge and compares each
    known one.  Returns (h_edges, v_edges)."""
    shape = lattice_shape(w.grading)
    h, v = {}, {}
    for (kind, a, b), val in zip(shape.steps, w.values):
        (v if kind == "v" else h)[(a, b)] = val

    def settle(edges, key, val):
        if key not in edges:
            edges[key] = val
            return True
        assert edges[key] == val
        return False

    for _ in range(shape.p + shape.q + shape.m + 1):
        stored = False
        for r in range(1, shape.p + shape.q + 1):
            for c in range(1, shape.m + 1):
                top, left, bot, right = (r, c), (r, c - 1), (r - 1, c), (r, c)
                if top in h and left in v:
                    lam, nu = _cross(h[top], v[left], 1)
                    stored |= settle(h, bot, lam) | settle(v, right, nu)
                elif bot in h and right in v:
                    lam, nu = _cross(h[bot], v[right], -1)
                    stored |= settle(h, top, lam) | settle(v, left, nu)
        if not stored:
            return h, v
    raise AssertionError("the sweeps did not settle the lattice")


@settings(max_examples=300, deadline=None)
@given(path_weights())
def test_path_order_fill_matches_the_sweep_reference(w):
    lat = build_weight_lattice(w)
    assert (lat.h_edges, lat.v_edges) == sweep_lattice(w)


def test_cell_sum_is_the_fraction_sum_of_its_top_and_left_edges():
    w = FundamentalWeight(grading_pmq(2, 2, 2), (F(-1, 3), F(-5, 2), 3, F(1, 6), 0, F(2, 3)))
    lat = build_weight_lattice(w)
    assert lat.den == 6
    for r in range(1, lat.p + lat.q + 1):
        for c in range(1, lat.m + 1):
            s = lat.cell_sum(r, c)
            assert type(s) is F and s == lat.h_edges[(r, c)] + lat.v_edges[(r, c - 1)]


@settings(max_examples=200, deadline=None)
@given(path_weights())
def test_every_cell_obeys_the_duality_rule(w):
    """Every edge is filled, the path keeps its values, and each cell carries
    its top/left pair to its bottom/right pair by `_cross`, and back."""
    lat = build_weight_lattice(w)
    h, v, rows = lat.h_edges, lat.v_edges, lat.p + lat.q
    assert len(h) == (rows + 1) * lat.m and len(v) == rows * (lat.m + 1)
    assert weight_in_grading(lat, w.grading) == w
    for r in range(1, rows + 1):
        for c in range(1, lat.m + 1):
            assert _cross(h[(r, c)], v[(r, c - 1)], 1) == (h[(r - 1, c)], v[(r, c)])
            assert _cross(h[(r - 1, c)], v[(r, c)], -1) == (h[(r, c)], v[(r, c - 1)])


def undoes_itself(cross, lam, nu, step):
    """Crossing a cell with `step` and back with -step returns the pair, and
    the crossing keeps the cell sum lam + nu."""
    lam2, nu2 = cross(lam, nu, step)
    return cross(lam2, nu2, -step) == (lam, nu) and lam2 + nu2 == lam + nu


def wrong_in_one_direction(wrong_step):
    """`_cross` with one extra step on lambda whenever the step has
    wrong_step's sign: right one way, wrong the other."""

    def cross(lam, nu, step):
        lam, nu = _cross(lam, nu, step)
        return (lam + step, nu) if (step > 0) == (wrong_step > 0) else (lam, nu)

    return cross


numerators = st.integers(-12, 12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(numerators, numerators), numerators.map(lambda x: (x, -x))),
       st.sampled_from([1, 2, 3, 6, -1, -2, -3, -6]))
def test_cross_undoes_itself_and_keeps_the_cell_sum(pair, step):
    """The property that lets `build_weight_lattice` cross each cell once:
    the rule is its own inverse for every step +-den (den in 1, 2, 3, 6 on
    the workloads' values), on shortening cells (lam + nu = 0) and off them.
    A rule wrong in either direction breaks it on every draw."""
    assert undoes_itself(_cross, *pair, step)
    for wrong_step in (1, -1):
        assert not undoes_itself(wrong_in_one_direction(wrong_step), *pair, step)


@pytest.mark.parametrize("wrong_step", [1, -1])
def test_a_wrong_rule_in_one_direction_is_caught(monkeypatch, wrong_step):
    # su(2,|2|2): the path is the top/left pair of the lower rows' cells and
    # the bottom/right pair of the upper rows' cells, so both directions run.
    # The second weight is half-integer, so the lattice's step is +-2 on
    # numerators over 2: the wrong rule is keyed on the sign of the step.
    # The one-pass fill crosses each cell once and does not check itself, so
    # the wrong rule is caught by the sweep reference, which keeps the right
    # `_cross` (imported before the patch).
    weights = [
        FundamentalWeight(grading_pmq(2, 2, 2), (-1, -2, 3, 1, 0, 0)),
        FundamentalWeight(grading_pmq(2, 2, 2), (F(-1, 2), F(-5, 2), 3, F(1, 2), 0, 0)),
    ]
    for w in weights:
        lat = build_weight_lattice(w)
        assert (lat.h_edges, lat.v_edges) == sweep_lattice(w)
    monkeypatch.setattr(lattice, "_cross", wrong_in_one_direction(wrong_step))
    for w in weights:
        lat = build_weight_lattice(w)
        assert (lat.h_edges, lat.v_edges) != sweep_lattice(w)
