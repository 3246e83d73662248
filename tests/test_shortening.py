from fractions import Fraction as F

import pytest

from superdual.diagrams import Realization, realize
from superdual.labels import RepLabel
from superdual.shortening import (
    bps_type_22_4,
    can_recombine,
    dolan_osborn,
    shortening_profile,
    shortening_profile_of,
)

# the four Konishi members (lambda, P): C, B, D, Dbar
KONISHI = {
    "C": realize(RepLabel(2, 2, 4, (), (), (), 1, 1), strategy=Realization(0, 0, 1, 2)),
    "B": realize(RepLabel(2, 2, 4, (), (4, 2, 2), (), 0, 0), strategy=Realization(0, 0, 0, 4)),
    "D": realize(RepLabel(2, 2, 4, (), (2, 0, 0), (), 0, 1), strategy=Realization(0, 0, 1, 3)),
    "Dbar": realize(RepLabel(2, 2, 4, (), (2, 2, 2), (), 1, 0), strategy=Realization(0, 0, 0, 3)),
}


def test_profile_compact_bps():
    # all lambda = 0, all mu = 0: one-step (BPS) shortenings in every column
    prof = shortening_profile(RepLabel(0, 4, 2, (), (), (), 0, 0))
    assert prof.right == (1, 1)
    assert prof.bps_columns() == (1, 2)


def test_profile_semi_short():
    # lambda_a = r - 1 with vanishing mu tail: r-step monomial
    prof = shortening_profile(RepLabel(0, 4, 2, (), (1, 0), (3, 1, 0, 0), 0, 2))
    assert prof.right == (4, 3)


def test_profile_long():
    prof = shortening_profile(RepLabel(0, 4, 2, (), (1, 0), (3, 1, 0, 0), 0, F(7, 2)))
    assert prof.right == (None, None)
    assert not prof.is_short()


def test_profile_noncompact_sides():
    # Yang-Mills: lambda = (1,1,0,0), P = 1: one-step (BPS) shortenings at
    # lambda = 0 resp. P - lambda = 0, two-step ones at value 1
    prof = shortening_profile(RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0))
    assert prof.right == (2, 2, 1, 1)
    assert prof.left == (1, 1, 2, 2)
    assert prof.bps_columns("right") == (3, 4)
    assert prof.bps_columns("left") == (1, 2)


def test_bps_fractions_table1():
    t1 = realize(RepLabel(2, 2, 4, (), (1, 0, 0), (), 0, 0))
    assert bps_type_22_4(t1)[:2] == (F(1, 4), F(3, 4))
    vac = realize(RepLabel(2, 2, 4, (), (), (), 1, 0))
    assert bps_type_22_4(vac)[:2] == (F(0), F(1))
    assert bps_type_22_4(KONISHI["B"])[:2] == (F(1, 4), F(1, 4))


def test_dolan_osborn_examples():
    ym = realize(RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0))
    do = dolan_osborn(ym)
    assert (do.cls, do.dynkin, do.delta) == ("B", (0, 1, 0), 1)
    assert do.fractions == (F(1, 2), F(1, 2))

    do_c = dolan_osborn(KONISHI["C"])
    assert (do_c.cls, do_c.dynkin, do_c.fractions) == ("C", (0, 0, 0), (F(1), F(1)))
    do_d = dolan_osborn(KONISHI["D"])
    assert (do_d.cls, do_d.dynkin, do_d.fractions) == ("D", (2, 0, 0), (F(1, 4), F(3, 4)))
    do_db = dolan_osborn(KONISHI["Dbar"])
    assert (do_db.cls, do_db.dynkin, do_db.fractions) == ("Dbar", (0, 0, 2), (F(3, 4), F(1, 4)))


def test_dolan_osborn_long():
    gam = F(-1, 2)
    long = realize(RepLabel(2, 2, 4, (), (), (), 2 + gam, 2 + gam))
    do = dolan_osborn(long)
    assert do.cls == "A" and do.delta == 4 + 2 * gam


def test_can_recombine():
    for n in (2, 3):
        bps = realize(RepLabel(2, 2, 4, (), (n, n, 0), (), 0, 0))
        assert can_recombine(bps) is False
    q1 = realize(RepLabel(2, 2, 4, (), (2, 1, 1), (), 0, 0))  # lambda (2,1,1,0), q=1
    assert can_recombine(q1) is False
    q2 = KONISHI["B"]  # lambda (4,2,2,0), q=2
    assert can_recombine(q2) is True
    with pytest.raises(ValueError):
        gam = F(-1, 2)
        can_recombine(realize(RepLabel(2, 2, 4, (), (), (), 2 + gam, 2 + gam)))


def _bps_by_lambda(d):
    """(s, sbar, t, tbar) from the definition: sbar and tbar count columns with
    lambda_a = 0 resp. 1 when gamma_R = 0, s and t those with P - lambda_a = 0
    resp. 1 when gamma_L = 0."""
    r = d.realization
    lam = [d.label.tau.part(a) + r.fdelta for a in range(1, 5)]
    left = [r.P - x for x in lam] if r.gamma_L == 0 else []
    right = lam if r.gamma_R == 0 else []
    return tuple(F(side.count(v), 4) for v, side in ((0, left), (0, right), (1, left), (1, right)))


def test_bps_fractions_match_lambda_rule():
    """bps_type_22_4 reads the shortening profile; on unitary MinimalP diagrams
    and on explicit realizations one lower or upper iso move away it agrees
    with the lambda-rule definition."""
    import itertools

    from superdual.diagrams import iso_move_lower, iso_move_upper
    from superdual.labels import classify_supqm

    mus = [(), (1,), (2,)]
    taus = [(a, b, c) for a in range(3) for b in range(a + 1) for c in range(b + 1)]
    betas = [F(k, 2) for k in range(0, 7)]
    checked = nonzero = 0
    for mu_l, tau, mu_r, bl, br in itertools.product(mus, taus, mus, betas, betas):
        lab = RepLabel(2, 2, 4, mu_l, tau, mu_r, bl, br)
        if not classify_supqm(lab).unitary:
            continue
        d = realize(lab)
        diagrams = [d]
        for move, k in itertools.product((iso_move_lower, iso_move_upper), (-1, 1)):
            try:
                diagrams.append(move(d, k))
            except ValueError:
                pass
        for e in diagrams:
            assert bps_type_22_4(e) == _bps_by_lambda(e), e
            checked += 1
            nonzero += any(_bps_by_lambda(e))
    assert (checked, nonzero) == (4480, 1600)


def test_do_invariance_under_iso_move():
    # two realizations of one long label related by the lower iso move keep
    # every Dolan-Osborn field (the move trades gamma_L for P)
    from superdual.diagrams import iso_move_lower

    lab = RepLabel(2, 2, 4, (), (), (), F(7, 2), F(5, 2))
    d = realize(lab, strategy=Realization(F(1, 2), F(-1, 2), 3, 6))
    moved = iso_move_lower(d)
    assert moved.realization == Realization(F(-1, 2), F(-1, 2), 3, 7)
    a, b = dolan_osborn(d), dolan_osborn(moved)
    assert (a.cls, a.dynkin, a.spins, a.delta) == (b.cls, b.dynkin, b.spins, b.delta)


def test_profile_matches_zero_plaquette_columns():
    # finite r_a on the right/left side <=> a zero plaquette in that column
    # among the upper/lower rows, exhaustively over a bounded grid
    import itertools

    from superdual.labels import classify_supqm, weight_from_label
    from superdual.lattice import build_weight_lattice, plaquette_check
    from superdual.partitions import partitions_bounded

    for p, q, m in [(1, 1, 2), (0, 2, 2), (2, 1, 2), (1, 2, 1)]:
        for mu_l in partitions_bounded(max(p - 1, 0), 2):
            for tau in partitions_bounded(max(m - 1, 0), 2):
                for mu_r in partitions_bounded(max(q - 1, 0), 2):
                    for bl in ([0, 1, 2, F(7, 2)] if p else [0]):
                        for br in ([0, 1, 2, F(7, 2)] if q else [0]):
                            try:
                                lab = RepLabel(p, q, m, mu_l, tau, mu_r, bl, br)
                            except ValueError:
                                continue
                            if not classify_supqm(lab).unitary:
                                continue
                            prof = shortening_profile(lab)
                            lat = build_weight_lattice(weight_from_label(lab))
                            zeros = plaquette_check(lat).zeros
                            for a in range(1, m + 1):
                                up = any(r > p and c == a for (r, c) in zeros)
                                low = any(r <= p and c == a for (r, c) in zeros)
                                assert (prof.right[a - 1] is not None) == up, (lab, a)
                                assert (prof.left[a - 1] is not None) == low, (lab, a)


def test_profile_oracle_monomials():
    # for every finite profile entry r_a <= 3 the explicit lowering monomial
    # annihilates the constructed HWS while every proper sub-monomial does not
    import itertools

    from superdual.oscillator.algebra import generator_action
    from superdual.oscillator.module import build_u0

    labels = [
        RepLabel(0, 2, 1, (), (), (), 0, 0),          # su(1|2) trivial: BPS
        RepLabel(0, 2, 1, (), (), (1, 0), 0, 1),      # su(1|2) semi-short
        RepLabel(0, 2, 2, (), (), (), 0, 0),          # su(2|2) trivial
        RepLabel(0, 2, 2, (), (), (), 0, 1),          # su(2|2) weight [1,1;0,0]
        RepLabel(0, 2, 2, (), (1,), (), 0, 0),        # su(2|2) BPS column
        RepLabel(1, 1, 2, (), (1,), (), 1, 0),        # su(1,1|2) both sides
        RepLabel(1, 1, 2, (), (), (), 1, 1),
    ]
    checked = 0
    for lab in labels:
        d = realize(lab)
        prof = shortening_profile_of(d)
        spec, u0 = build_u0(d)
        p, m, q = lab.p, lab.m, lab.q
        for a0, r in enumerate(prof.right):
            if r is None or r > 3:
                continue
            # right monomial: E_{alpha, a} over the r deepest nu_R rows
            fl_a = p + a0
            alphas = [p + m + q - 1 - k for k in range(r)]
            vec = dict(u0)
            for al in alphas:
                vec = generator_action(spec, al, fl_a, vec)
            assert not vec, (lab, a0, "monomial should annihilate")
            for drop in range(r):
                sub = dict(u0)
                for k, al in enumerate(alphas):
                    if k != drop:
                        sub = generator_action(spec, al, fl_a, sub)
                assert sub, (lab, a0, "sub-monomial should survive")
            checked += 1
        for a0, r in enumerate(prof.left):
            if r is None or r > 3:
                continue
            fl_a = p + a0
            betas = list(range(r))  # the r outermost nu_L rows carry mu_L = 0
            vec = dict(u0)
            for bd in betas:
                vec = generator_action(spec, fl_a, bd, vec)
            assert not vec, (lab, a0, "left monomial should annihilate")
            for drop in range(r):
                sub = dict(u0)
                for k, bd in enumerate(betas):
                    if k != drop:
                        sub = generator_action(spec, fl_a, bd, sub)
                assert sub, (lab, a0, "left sub-monomial should survive")
            checked += 1
    assert checked >= 8
