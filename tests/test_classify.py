import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdual.gradings import parse_grading
from superdual.labels import (
    RepLabel,
    classify_contravariant,
    classify_covariant,
    classify_supq,
    classify_supqm,
    grading_pmq,
    label_from_weight,
    mack_classify,
    psu_central_charge,
    weight_from_label,
)
from superdual.partitions import Partition, partitions_bounded
from superdual.weights import FundamentalWeight


def test_supq_examples():
    assert not classify_supq((), (), F(1, 2), 2, 2).unitary
    assert classify_supq((1, 0), (1, 0), 2, 2, 2).unitary
    assert classify_supq((), (), 0, 2, 2).unitary  # trivial


def test_covariant_examples():
    verdicts = [classify_covariant((1, 0), (3, 1, 0, 0), b, 4, 2).status
                for b in (1, 2, F(5, 2), 3, F(7, 2))]
    assert verdicts == [
        "NonUnitary", "UnitaryShort", "NonUnitary", "UnitaryShort", "UnitaryLong",
    ]
    assert classify_covariant((), (), 0, 4, 2).unitary
    assert classify_covariant((1, 0), (), 0, 4, 2).unitary  # defining rep


def test_supqm_examples():
    for n in range(2, 6):
        v = classify_supqm(RepLabel(2, 2, 4, (), (n, n, 0), (), 0, 0))
        assert v.status == "UnitaryShort"
    assert not classify_supqm(RepLabel(2, 2, 4, (), (), (), 0, F(1, 2))).unitary
    v0 = classify_supqm(RepLabel(2, 2, 4, (), (), (), 0, 0))
    assert v0.unitary and v0.short  # zero label: every plaquette vanishes


def test_m0_convention_matches_supq():
    # classify_supq == classify_supqm with the m=0 beta convention
    for hL, hR in itertools.product(range(0, 2), repeat=2):
        mu_l = Partition((2,) * hL)
        mu_r = Partition((1,) * hR)
        for beta in [F(k, 2) for k in range(0, 13)]:
            a = classify_supq(mu_l, mu_r, beta, 2, 3)
            b = classify_supqm(RepLabel(2, 3, 0, mu_l, Partition(), mu_r, 0, beta))
            assert a.unitary == b.unitary


def test_contravariant_mirror():
    assert classify_contravariant((1, 0), (2, 0, 0), 1, 2, 4).unitary
    assert not classify_contravariant((1, 0), (), F(1, 2), 2, 4).unitary


def test_label_from_weight_table1():
    g = grading_pmq(2, 4, 2)
    lab = label_from_weight(FundamentalWeight(g, (-1, -1, 1, 0, 0, 0, 0, 0)))
    assert lab == RepLabel(2, 2, 4, (), (1, 0, 0), (), 0, 0)
    lab5 = label_from_weight(FundamentalWeight(g, (-1, -1, 1, 1, 1, 1, 5, 0)))
    assert lab5 == RepLabel(2, 2, 4, (), (), (5, 0), 0, 1)
    lab0 = label_from_weight(FundamentalWeight(grading_pmq(1, 2, 1), (0, 0, 0, 0)))
    assert lab0 == RepLabel(1, 1, 2, (), (), (), 0, 0)


@pytest.mark.parametrize("grading, values, message", [
    # su(1,1|2) puts both p-even indices before the p-odd ones
    ("su(1,1|2)", (0, 0, 0, 0), "grading; transport it first"),
    # su(1,|2|1) with lambda = (0, 1) or (1/2, 0): no shifted partition
    ("su(1,|2|1)", (0, 0, 1, 0), "lambda block is not a shifted partition"),
    ("su(1,|2|1)", (0, F(1, 2), 0, 0), "lambda block is not a shifted partition"),
], ids=["other-grading", "negative-step", "half-integer-step"])
def test_label_from_weight_refusals(grading, values, message):
    with pytest.raises(ValueError, match=message):
        label_from_weight(FundamentalWeight(parse_grading(grading), values))


def test_weight_from_label_examples():
    lab = RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0)
    w = weight_from_label(lab, grading_pmq(2, 4, 2))
    assert w.values == (-1, -1, 1, 1, 0, 0, 0, 0)
    # deformed chiral: [0,0,(n,0); 0, 2+gamma]
    gam = F(-1, 3)
    lab2 = RepLabel(2, 2, 4, (), (), (3, 0), 0, 2 + gam)
    w2 = weight_from_label(lab2, grading_pmq(2, 4, 2))
    assert w2.values == (-2, -2, 2, 2, 2, 2, 3 + gam, gam)


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(80):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        if p + q == 0:
            q = 1
        m = rng.randint(1, 3)
        mu_l = Partition(sorted((rng.randint(0, 3) for _ in range(max(p - 1, 0))), reverse=True))
        mu_r = Partition(sorted((rng.randint(0, 3) for _ in range(max(q - 1, 0))), reverse=True))
        tau = Partition(sorted((rng.randint(0, 3) for _ in range(m - 1)), reverse=True))
        bl = F(rng.randint(max(2 * mu_l.height, 2 * p), 12), 2) if p else F(0)
        br = F(rng.randint(max(2 * mu_r.height, 2 * q), 12), 2) if q else F(0)
        lab = RepLabel(p, q, m, mu_l, tau, mu_r, bl, br)
        if not classify_supqm(lab).unitary:
            continue
        w = weight_from_label(lab)
        assert label_from_weight(w) == lab


RATIONAL_OFFSETS = st.builds(F, st.integers(-4, 8), st.sampled_from([1, 2, 3]))


@st.composite
def m0_labels(draw, offsets=RATIONAL_OFFSETS, min_q=0):
    """m = 0 labels with p >= 1 (an su(0,q) weight reads back as su(q,0));
    for q >= 1 the single beta sits in beta_R at an offset from the bound
    h_L + h_R."""
    p = draw(st.integers(1, 3))
    q = draw(st.integers(max(min_q, 2 - p), 3))
    mu_l = draw(st.sampled_from(partitions_bounded(p - 1, 3)))
    mu_r = draw(st.sampled_from(partitions_bounded(max(q - 1, 0), 3)))
    beta = mu_l.height + mu_r.height + draw(offsets) if q else 0
    return RepLabel(p, q, 0, mu_l, (), mu_r, 0, beta)


@settings(max_examples=100, deadline=None)
@given(m0_labels())
def test_m0_label_weight_label_round_trip(lab):
    assert label_from_weight(weight_from_label(lab, allow_nonunitary=True)) == lab


def test_psu_central_charge():
    assert psu_central_charge(RepLabel(2, 2, 4, (), (3, 3, 0), (), 0, 0)) == 0
    assert psu_central_charge(RepLabel(2, 2, 4, (), (), (), 0, 0)) == 0
    assert psu_central_charge(RepLabel(2, 2, 4, (), (1, 0, 0), (), 0, 0)) == -1
    with pytest.raises(ValueError):
        psu_central_charge(RepLabel(1, 1, 3, (), (), (), 0, 0))


def test_mack_examples():
    assert not mack_classify(0, 0, F(1, 2)).unitary
    assert mack_classify(F(1, 2), 0, F(3, 2)).unitary  # massless doubleton edge
    assert mack_classify(F(1, 2), F(1, 2), 3).unitary  # beta = 2 threshold
    assert mack_classify(0, 0, 0).unitary  # trivial
    assert not mack_classify(F(1, 2), F(1, 2), F(5, 2)).unitary


def test_mack_grid_agrees_with_supq():
    js = [F(k, 2) for k in range(0, 5)]
    e0s = [F(k, 4) for k in range(0, 20)]
    count = 0
    for jl, jr in itertools.product(js, js):
        for e0 in e0s:
            beta = e0 - jl - jr
            if beta < 0:
                continue
            got = mack_classify(jl, jr, e0)
            want = classify_supq(
                Partition((int(2 * jl),)), Partition((int(2 * jr),)), beta, 2, 2
            )
            assert got.unitary == want.unitary
            count += 1
    assert count >= 200
