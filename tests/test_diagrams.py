import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdual.diagrams import (
    ExtendedYoungDiagram,
    Realization,
    carve,
    extend,
    fat_hook,
    from_thook,
    iso_move_lower,
    iso_move_upper,
    read_weight,
    realize,
    render,
    to_thook,
)
from superdual.labels import (
    RepLabel,
    classify_supqm,
    grading_pmq,
    label_from_weight,
    weight_from_label,
)
from superdual.lattice import duality_step
from superdual.partitions import Partition
from test_classify import m0_labels
from test_lattice import random_paths


def test_realize_examples():
    d = realize(RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0))
    assert d.realization == Realization(0, 0, 0, 1)
    gam = F(-1, 4)
    d2 = realize(RepLabel(2, 2, 4, (), (), (3, 0), 0, 2 + gam))
    assert d2.realization == Realization(0, gam, 2, 2)
    gl, gr = F(-1, 2), F(-2, 3)
    d3 = realize(RepLabel(2, 2, 4, (4, 0), (), (5, 0), 2 + gl, 2 + gr))
    assert d3.realization == Realization(gl, gr, 2, 4)


@pytest.mark.parametrize("lab, real", [
    (RepLabel(0, 3, 0, (), (), (1, 0, 0), 0, 0), Realization(-1, 0, 0, 1)),
    (RepLabel(2, 0, 0, (1, 0), (), (), 0, 0), Realization(0, -1, 0, 1)),
    (RepLabel(0, 3, 0, (), (), (2, 1, 0), 0, F(5, 2)), Realization(F(1, 2), 0, 0, 2)),
])
def test_realize_compact_m0(lab, real):
    """A compact m = 0 label takes P from its one non-empty side and puts
    beta - P on the gamma of the empty side, which nothing bounds."""
    assert classify_supqm(lab).unitary
    d = realize(lab)
    assert d.realization == real
    assert read_weight(d) == weight_from_label(lab)


def test_realize_invariants_on_grid():
    rng = random.Random(3)
    for _ in range(100):
        p, q, m = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3)
        if p + q + m < 2:  # RepLabel refuses these
            continue
        mu_l = Partition((rng.randint(0, 3),) if p >= 2 else ())
        mu_r = Partition((rng.randint(0, 3),) if q >= 2 else ())
        tau = Partition(sorted((rng.randint(0, 2) for _ in range(m - 1)), reverse=True))
        bl = F(rng.randint(2 * mu_l.height, 10), 2) if p else F(0)
        br = F(rng.randint(2 * mu_r.height, 10), 2) if q else F(0)
        lab = RepLabel(p, q, m, mu_l, tau, mu_r, bl, br)
        if not classify_supqm(lab).unitary:
            continue
        d = realize(lab)
        d.realization.check(lab)
        assert F(-1) < d.realization.gamma_L <= 0
        assert F(-1) < d.realization.gamma_R <= 0


def _duality_chain(w, target):
    """w carried to the target staircase by adjacent v/h swaps: one
    `duality_step` per swap, each letter moved left to its target place."""
    kinds = [p for p, _c in w.grading.entries]
    for i, (p, _c) in enumerate(target.entries):
        for node in range(kinds.index(p, i), i, -1):
            w = duality_step(w, node)
            kinds[node - 1], kinds[node] = kinds[node], kinds[node - 1]
    assert w.grading == target
    return w


def _random_block(rng, n):
    """A proper partition for a block of n indices, entries 0..3."""
    return Partition(sorted((rng.randint(0, 3) for _ in range(n - 1)), reverse=True))


def _random_beta(rng):
    """A beta in [-3, 12] over denominator 1 (half the draws), 2 or 3."""
    return F(rng.randint(-3, 12), rng.choice([1, 1, 2, 3]))


def test_read_weight_matches_duality_chain():
    """read_weight and weight_from_label in a random staircase grading equal
    the chain of duality steps from the su(p,|m|q) weight, on unitary and
    non-unitary labels."""
    rng = random.Random(9)
    unitary = nonunitary = 0
    for _ in range(300):
        p, q, m = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3)
        if p + q == 0:
            q = 1
        lab = RepLabel(
            p, q, m, _random_block(rng, p), _random_block(rng, m), _random_block(rng, q),
            _random_beta(rng) if p else 0, _random_beta(rng) if q else 0,
        )
        d = realize(lab, allow_nonunitary=True)
        w0 = read_weight(d, grading_pmq(p, m, q))
        for g in random_paths(p, q, m, rng, 2):
            want = _duality_chain(w0, g)
            assert read_weight(d, g) == want
            assert weight_from_label(lab, target=g, allow_nonunitary=True) == want
        if classify_supqm(lab).unitary:
            unitary += 2
        else:
            nonunitary += 2
    assert unitary >= 200 and nonunitary >= 200 and unitary + nonunitary == 600


def test_read_weight_table1():
    d = realize(RepLabel(2, 2, 4, (), (1, 0, 0), (), 0, 0))
    w = read_weight(d, grading_pmq(2, 4, 2))
    assert w.values == (-1, -1, 1, 0, 0, 0, 0, 0)
    assert label_from_weight(w) == d.label


def test_iso_moves():
    lab = RepLabel(1, 2, 2, (), (), (), F(3, 2), 2)
    d = realize(lab, strategy=Realization(F(1, 2), 0, 2, 3))
    low = iso_move_lower(d)
    assert low.realization == Realization(F(-1, 2), 0, 2, 4)
    assert low.label == d.label
    assert iso_move_lower(low, -1).realization == d.realization
    with pytest.raises(ValueError):
        iso_move_upper(d)  # gamma_R pinned at zero
    # beta-invariance through a move, via weights
    g = grading_pmq(1, 2, 2)
    assert label_from_weight(read_weight(low, g)) == label_from_weight(read_weight(d, g))


def test_iso_move_upper_roundtrip():
    # upper moves need gamma_R > 0, which only explicit realizations carry
    lab = RepLabel(1, 2, 2, (), (), (), F(3, 2), F(5, 2))
    d = realize(lab, strategy=Realization(F(-1, 2), F(1, 2), 2, 4))
    up = iso_move_upper(d)
    assert up.label == lab
    assert up.realization == Realization(F(-1, 2), F(-1, 2), 3, 5)
    assert iso_move_upper(up, -1).realization == d.realization


def test_extend_carve_yang_mills():
    d = realize(RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0))
    e = extend(d)
    # boundaries displaced by exactly P = 1 over the strip
    for c in range(1, 5):
        assert e.upper(c) - e.lower(c) == 1
    back = carve(e, 2, 2, 4)
    assert back.label == d.label and back.realization == d.realization


def test_extend_carve_random():
    rng = random.Random(21)
    done = 0
    while done < 50:
        p, q, m = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 4)
        mu_l = Partition((rng.randint(0, 3),) if p == 2 else ())
        mu_r = Partition((rng.randint(0, 3),) if q == 2 else ())
        tau = Partition(sorted((rng.randint(0, 3) for _ in range(m - 1)), reverse=True))
        bl = rng.randint(mu_l.height, 5)
        br = rng.randint(mu_r.height, 5)
        lab = RepLabel(p, q, m, mu_l, tau, mu_r, bl, br)
        if not classify_supqm(lab).unitary:
            continue
        d = realize(lab)
        e = extend(d)
        back = carve(e, p, q, m)
        assert back.label == lab and back.realization == d.realization
        done += 1


@settings(max_examples=100, deadline=None)
@given(m0_labels(offsets=st.integers(0, 4), min_q=1))
def test_m0_extend_carve_round_trip(lab):
    # an integer beta at or above h_L + h_R: unitary, with both gammas zero
    d = realize(lab)
    back = carve(extend(d), lab.p, lab.q, 0)
    assert back.label == lab and back.realization == d.realization


def test_carve_other_algebra():
    # one extended diagram, two hooks, two valid labels of different algebras
    d = realize(RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0))
    e = extend(d)
    other = carve(e, 1, 1, 2)
    assert (other.label.p, other.label.q, other.label.m) == (1, 1, 2)
    assert other.label == RepLabel(1, 1, 2, (), (), (), 0, 1)
    assert classify_supqm(other.label).unitary
    assert classify_supqm(d.label).unitary


# each refusal of `carve`, and `render`'s unknown format
@pytest.mark.parametrize("refused, args, message", [
    (carve, (ExtendedYoungDiagram(1, 1, (0, 1)), 0, 0, 2),
     "upper boundary is not a partition over the strip"),
    (carve, (ExtendedYoungDiagram(1, 1, (-1,)), 0, 0, 1),
     "upper boundary is not a partition over the strip"),
    (carve, (ExtendedYoungDiagram(1, 1, (1,)), 0, 1, 1),
     "upper boundary does not flatten east of the hook"),
    (carve, (ExtendedYoungDiagram(1, 1, (1, 1, 0)), 0, 1, 1), "mu_R not proper for this hook"),
    (carve, (ExtendedYoungDiagram(1, 0, (0, 1)), 1, 0, 1),
     "lower boundary does not flatten west of the hook"),
    (carve, (ExtendedYoungDiagram(2, 0, (2, 2)), 1, 0, 1),
     "hook row 1 is not covered by the diagram"),
    (carve, (ExtendedYoungDiagram(1, -2, (1, 0, 0, 1)), 1, 0, 1), "mu_L not proper for this hook"),
    (render, (realize(RepLabel(1, 1, 2, (), (), (), 0, 0)), "png"), "unknown format 'png'"),
])
def test_inconsistent_inputs_are_refused(refused, args, message):
    with pytest.raises(ValueError) as exc:
        refused(*args)
    assert str(exc.value) == message


def test_thook_round_trips():
    d = realize(RepLabel(2, 2, 4, (1, 0), (2, 1, 0), (1, 0), 2, 3))
    e = extend(d)
    for split in range(e.lo, e.hi + 1):
        t = to_thook(d, split)
        back = from_thook(t, e.P, 2, 2, 4)
        assert back.label == d.label and back.realization == d.realization
    with pytest.raises(ValueError):
        to_thook(d, e.hi + 1)


def test_fat_hook_shading():
    fh = fat_hook((1, 0), (3, 1, 0, 0), 2, q=4, m=2)
    assert fh.shaded == ((3, 2), (4, 1), (4, 2))
    fh_long = fat_hook((1, 0), (3, 1, 0, 0), F(7, 2), q=4, m=2)
    assert fh_long.shaded == ()
    fh_empty = fat_hook((), (), 0, q=4, m=2)
    assert fh_empty.lam == (0, 0) and len(fh_empty.shaded) == 8


def test_render_golden(tmp_path):
    ym = realize(RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0))
    text = render(ym, "ascii")
    assert "[][]" in text and text.splitlines()[0].startswith("#")
    svg = render(ym, "svg")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    cells = "\n".join(text.splitlines()[1:])
    assert svg.count("<rect") == cells.count("[]")
    # empty diagram: trivial label
    triv = realize(RepLabel(1, 1, 2, (), (), (), 0, 0))
    out = render(triv, "ascii")
    assert "[]" not in out


def test_render_byte_goldens():
    import pathlib

    golden_dir = pathlib.Path(__file__).parent.parent / "src" / "superdual" / "goldens"
    ym = realize(RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0))
    assert render(ym, "ascii") + "\n" == (golden_dir / "yangmills_ascii.txt").read_text()
    assert render(ym, "svg") + "\n" == (golden_dir / "yangmills.svg").read_text()
    chir = realize(RepLabel(2, 2, 4, (), (), (2, 0), 0, F(5, 2)))
    assert render(chir, "ascii") + "\n" == (golden_dir / "chiral_ascii.txt").read_text()
