"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion.  Everything is exact rational arithmetic, so "tolerance" always
means equality; runtime bounds are asserted where the criteria state them.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction as F

from superdual.diagrams import (
    NonCompactYoungDiagram,
    Realization,
    carve,
    extend,
    from_thook,
    realize,
    to_thook,
)
from superdual.labels import (
    RepLabel,
    classify_covariant,
    classify_supq,
    classify_supqm,
    grading_pmq,
    label_from_weight,
    mack_classify,
    psu_central_charge,
    weight_from_label,
)
from superdual.lattice import build_weight_lattice, plaquette_check, weight_in_grading
from superdual.oscillator.capelli import (
    capelli_identity_check,
    capelli_norm_factor,
    delta_ladder_norms,
)
from superdual.oscillator.inner import inner_product
from superdual.oscillator.module import (
    build_u0,
    gram_positivity,
    pbw_family,
    u0_k_basis,
    verify_hws,
)
from superdual.oscillator.states import add_into
from superdual.oscillator.tensor import tensor_decompose
from superdual.partitions import Partition, partitions_bounded
from superdual.shortening import bps_type_22_4, can_recombine, dolan_osborn
from superdual.tables import doubleton, label_2244
from superdual.weights import FundamentalWeight
from test_lattice import random_paths


def report(name, cond, detail=""):
    print(f"[{'PASS' if cond else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert cond, name


def test_criterion_1_su24_family():
    """su(2|4) verdicts and sign matrices for beta in {1, 2, 5/2, 3, 7/2}."""
    t0 = time.time()
    expect = {
        F(1): ("NonUnitary", None),
        F(2): ("UnitaryShort", ((3, 2), (4, 1), (4, 2))),
        F(5, 2): ("NonUnitary", None),
        F(3): ("UnitaryShort", ((4, 2),)),
        F(7, 2): ("UnitaryLong", ()),
    }
    signs_expect = {
        F(1): (("+", "+"), ("+", "+"), ("+", "-"), ("0", "-")),
        F(2): (("+", "+"), ("+", "+"), ("+", "0"), ("0", "0")),
        F(5, 2): (("+", "+"), ("+", "+"), ("+", "+"), ("+", "-")),
        F(3): (("+", "+"), ("+", "+"), ("+", "+"), ("+", "0")),
        F(7, 2): (("+", "+"), ("+", "+"), ("+", "+"), ("+", "+")),
    }
    ok = True
    for beta, (status, zeros) in expect.items():
        verdict = classify_covariant((1, 0), (3, 1, 0, 0), beta, q=4, m=2)
        w = FundamentalWeight(grading_pmq(0, 2, 4), (1 + beta, beta, 3, 1, 0, 0))
        rep = plaquette_check(build_weight_lattice(w))
        ok &= verdict.status == status
        ok &= rep.signs == signs_expect[beta]
        if zeros is not None:
            ok &= tuple(rep.zeros) == zeros
    dt = time.time() - t0
    report("criterion 1: su(2|4) beta family", ok and dt < 1.0, f"{dt:.2f}s")


def test_criterion_2_theorem_plaquette_equivalence():
    """Exhaustive p+q+m <= 5 (m >= 1), entries <= 3, beta in {0,1/2,...,6}."""
    t0 = time.time()
    betas = [F(k, 2) for k in range(0, 13)]
    checked = 0
    ok = True
    shapes = [
        (p, q, m)
        for p in range(0, 5)
        for q in range(0, 5)
        for m in range(1, 6)
        if p + q + m <= 5 and p + q >= 1
    ]
    for p, q, m in shapes:
        for mu_l in partitions_bounded(max(p - 1, 0), 3):
            for tau in partitions_bounded(max(m - 1, 0), 3):
                for mu_r in partitions_bounded(max(q - 1, 0), 3):
                    for bl in (betas if p else [F(0)]):
                        for br in (betas if q else [F(0)]):
                            lab = RepLabel(p, q, m, mu_l, tau, mu_r, bl, br)
                            verdict = classify_supqm(lab)
                            w = weight_from_label(lab, allow_nonunitary=True)
                            rep = plaquette_check(build_weight_lattice(w))
                            checked += 1
                            if verdict.unitary != rep.ok:
                                ok = False
                            elif verdict.unitary and verdict.short != bool(rep.zeros):
                                ok = False
    dt = time.time() - t0
    report(
        "criterion 2: theorem <=> plaquette equivalence",
        ok and dt < 120,
        f"{checked} labels, {dt:.1f}s",
    )


def _oracle_cases():
    """>= 20 labels spanning trivial/BPS/semi-short/long and non-integer beta."""
    cases = []

    def add(lab, cutoff=3):
        cases.append((lab, cutoff))

    # trivial and continuous su(1,1) (gamma in {-1/2, 1/2} behind the betas)
    add(RepLabel(1, 1, 0, (), (), (), 0, 0), 6)
    add(RepLabel(1, 1, 0, (), (), (), 0, F(3, 2)), 6)
    add(RepLabel(1, 1, 0, (), (), (), 0, F(1, 2)), 6)
    add(RepLabel(1, 1, 0, (), (), (), 0, 2), 5)
    # su(1,1|1) = su(1,1|1,0): BPS, long, and non-unitary samples
    add(RepLabel(1, 1, 1, (), (), (), 0, 0), 4)
    add(RepLabel(1, 1, 1, (), (), (), 1, F(3, 2)), 4)
    add(RepLabel(1, 1, 1, (), (), (), F(5, 3), F(2, 3)), 4)
    # su(2,1|2) gradings (su(2,|2|1)): gamma = -1/3 and 1/2 samples
    add(RepLabel(2, 1, 2, (), (1, 0), (), 2 + F(-1, 3), 0), 3)
    add(RepLabel(2, 1, 2, (), (), (), 2 + F(1, 2), 1), 3)
    add(RepLabel(2, 1, 2, (1, 0), (), (), 1, 0), 3)
    add(RepLabel(2, 1, 2, (), (), (), F(1, 2), 0), 3)  # non-unitary left window
    # su(2,2): continuous window and a non-unitary non-integer point
    add(RepLabel(2, 2, 0, (), (), (), 0, F(7, 2)), 4)
    add(RepLabel(2, 2, 0, (), (), (), 0, F(1, 2)), 4)
    add(RepLabel(2, 2, 0, (1, 0), (), (1, 0), 0, 2), 3)
    # su(2,2|4) doubletons (BPS), semi-short Konishi members, long continuum
    add(RepLabel(2, 2, 4, (), (), (), 1, 0), 2)
    add(RepLabel(2, 2, 4, (), (1, 0, 0), (), 0, 0), 2)
    add(RepLabel(2, 2, 4, (), (1, 1, 0), (), 0, 0), 2)
    add(RepLabel(2, 2, 4, (), (), (), 1, 1), 2)
    add(RepLabel(2, 2, 4, (), (2, 0, 0), (), 0, 1), 2)
    add(RepLabel(2, 2, 4, (), (), (), 2 + F(-1, 2), 2 + F(-1, 2)), 2)
    add(RepLabel(2, 2, 4, (), (), (), 0, F(1, 2)), 2)  # non-unitary
    # su(2|2) polynomial-shortening label
    add(RepLabel(0, 2, 2, (), (), (), 0, 1), 3)
    return cases


def _expect_kernel(lab: RepLabel) -> bool:
    """Null directions of the generalized Verma on the unitary locus.

    For m >= 1 this is the shortening condition (zero plaquettes).  For
    m = 0 the module degenerates exactly at the integer points inside the
    continuous window (the bosonic analogue; no plaquettes exist there)."""
    if lab.m:
        return classify_supqm(lab).short
    from superdual.rationals import is_int

    beta = lab.beta_R
    window = min(lab.p + lab.mu_R.height, lab.q + lab.mu_L.height) - 1
    return is_int(beta) and beta <= window


def test_criterion_3_oracle_concordance():
    """Gram positivity <=> the classification; kernels exactly at shortenings."""
    t0 = time.time()
    cases = _oracle_cases()
    assert len(cases) >= 20
    ok = True
    details = []
    for lab, cutoff in cases:
        verdict = classify_supqm(lab)
        rep = gram_positivity(realize(lab, allow_nonunitary=True), cutoff=cutoff)
        if verdict.unitary:
            good = not rep.has_negative and (_expect_kernel(lab) == (rep.kernel_total > 0))
        else:
            good = rep.has_negative and rep.negative_witness is not None
        if not good:
            details.append(str(lab))
        ok &= good
    dt = time.time() - t0
    report(
        "criterion 3: oracle concordance",
        ok and dt < 600,
        f"{len(cases)} labels, {dt:.1f}s" + (f" failing: {details}" if details else ""),
    )


def test_negative_witnesses_have_negative_norm():
    """Each negative witness, rebuilt from its (tags, coefficients) through
    `pbw_family`, has a strictly negative norm: the evidence `analyze_gram`
    returns checks out independently of the elimination."""
    cases = [(RepLabel(2, 2, 0, (), (), (), 0, F(1, 2)), 3)]  # test_gram_su22_negative_witness
    cases += [(lab, cut) for lab, cut in _oracle_cases() if not classify_supqm(lab).unitary]
    assert len(cases) >= 4
    for lab, cutoff in cases:
        d = realize(lab, allow_nonunitary=True)
        weight, (tags, coeffs) = gram_positivity(d, cutoff=cutoff).negative_witness
        spec, u0 = build_u0(d)
        slices = pbw_family(spec, u0_k_basis(spec, u0), cutoff)
        family = dict(next(fam for c, fam in slices.items() if spec.charge_weight(c) == weight))
        witness = {}
        for tag, coeff in zip(tags, coeffs):
            for s, c in family[tag].items():
                add_into(witness, s, coeff * c)
        assert inner_product(spec, witness, witness) < 0, str(lab)


# sha256 of repr(GramReport) for each label of `_oracle_cases()` at its
# cutoff, in order: verdicts, kernels, the K-dominant slices' dimensions and
# witnesses
ORACLE_REPORT_DIGESTS = (
    "b78949e19b271ee391e49d24bf1f5cd288898b3f4ecb413cb0d7c9e1ee246eb7",
    "7cab7bc3e4e3b93305b154a727d1aea78f0a0cb4750777aa467da90d55e14fb7",
    "a00c11f9767eae5c4a5016dcd141da835e03d202f05e189acf99bb33a7b7867c",
    "ec3f2a116e47c79f09d593ca7e61a0fa755dcedd6c1d88447adc2cb00a71036e",
    "5782a205ee11e4f50095ebca7a9d9a5eb5e2b9558612f1297c7225c3ea1f265d",
    "c2e2e608db1b1ef52c1f64fd8564227ec6d18f5aeb1da816eb98b9e66d80478b",
    "4139f31486eb55deae4f56a74c62fc0e46388ccf417e3a9485e0d81028aa9dcc",
    "11c7bc2792d8509200ec8f46953c418798d96d12b66537835d5b0c510dd35028",
    "3c3450fe1d3e61b737330dc2a7f0236e97e737f200c42753c19466b460a0380d",
    "b91ee89debf29df055bd2e4efb0cee9a05b88ba977da7a8bca3e4127aa79fc34",
    "5c98d01b3a2815b64e2361f7a2dadf268742faaafadc4d7344ce04ff9732557c",
    "d3e79520a4dd3fd5f63d9f2bd97ee3b61843f3da466a0daf56b9a054cd232188",
    "6b21363ee34bee74a5cc52c7764c56f9a3540d98e1370617f41372455241a003",
    "62878b13b7e60c9565cd4cfaeb6363aff2ff9b3611c17b65f941b3cf1108d71f",
    "568b0832abd561c6809f02dcc361ae86571a2e49c7456ff18655a154fbae23dd",
    "b02be43807cc3f76e799051fe21782f3effe1cc792f9aa6a23272f60c1c47146",
    "80c550e251549a0623d0baad26b30c46dfbb0dbefa296ac1cbb41b9b157097e7",
    "1236dca0997144be6698756109a47badc6dd031b386603be90779b814fed62ba",
    "d55fe8c9537f49ffa8d924245470584dfacad6383c39cc9dda2a051d826159c5",
    "02fdd860ab77049f4e473a7a53418a3aa467e2b19b9726f18c7880dff08ecc58",
    "5a3c683ae7c5efcb88e31a44073809d4acbe2a4724918b257622c54ac061e864",
    "e618827b1442b842866ac0f25586446d12c29f5c0679173a9638ee501effe30d",
)


def test_oracle_reports_match_pinned_digests():
    """Every `_oracle_cases()` report, witnesses included, is byte for byte
    the one pinned: a faster Gram path may not change a single coefficient."""
    cases = _oracle_cases()
    assert len(cases) == len(ORACLE_REPORT_DIGESTS)
    for (lab, cutoff), want in zip(cases, ORACLE_REPORT_DIGESTS):
        rep = gram_positivity(realize(lab, allow_nonunitary=True), cutoff=cutoff)
        assert hashlib.sha256(repr(rep).encode()).hexdigest() == want, str(lab)


def test_criterion_4_capelli_suite():
    """Capelli identity and norm ratios, exact equality."""
    t0 = time.time()
    ok = True
    for P in (2, 3):
        for gamma in (F(0), F(1, 2), F(-1, 3)):
            ok &= capelli_identity_check(P, gamma, cutoff=3 if P == 2 else 2)
    for P in (1, 2, 3):
        for mu in partitions_bounded(P, 3):
            if mu.size > 3 or mu.height > P:
                continue
            for gamma in (F(0), F(1, 2), F(-1, 3)):
                ratios = delta_ladder_norms(P, gamma, mu, 3)
                want = [capelli_norm_factor(mu, gamma, n, P) for n in range(3)]
                ok &= ratios == want
    dt = time.time() - t0
    report("criterion 4: Capelli suite", ok, f"{dt:.1f}s")


TABLE1_GOLDEN = [
    ("vac", 0, (-1, -1, 0, 0, 0, 0, 0, 0), "[0,000,0;1,0]", (F(0), F(1))),
    ("f", 0, (-1, -1, 1, 0, 0, 0, 0, 0), "[0,100,0;0,0]", (F(1, 4), F(3, 4))),
    ("ff", 0, (-1, -1, 1, 1, 0, 0, 0, 0), "[0,110,0;0,0]", (F(1, 2), F(1, 2))),
    ("fff", 0, (-1, -1, 1, 1, 1, 0, 0, 0), "[0,111,0;0,0]", (F(3, 4), F(1, 4))),
    ("am", 3, (-1, -1, 1, 1, 1, 1, 3, 0), "[0,000,3;0,1]", (F(1), F(0))),
    ("bn", 3, (-1, -4, 0, 0, 0, 0, 0, 0), "[3,000,0;1,0]", (F(0), F(1))),
]


def test_criterion_5_table1():
    """All six doubleton rows: weights, tuples and BPS fractions."""
    ok = True
    for kind, n, weight, label_txt, (s, sbar) in TABLE1_GOLDEN:
        d = doubleton(kind, n)
        spec, u0 = build_u0(d)
        rep = verify_hws(spec, u0)
        ok &= rep.raised_to_zero and rep.weight.values == tuple(map(F, weight))
        ok &= label_2244(d.label) == label_txt
        got = bps_type_22_4(d)
        ok &= (got[0], got[1]) == (s, sbar)
        ok &= label_from_weight(rep.weight) == d.label
    report("criterion 5: Table 1 regeneration", ok)


def test_criterion_6_tables_2_to_7():
    """Tables 2-3 in full; tables 6-7 telescoping at (1,1),(2,1),(2,2)."""
    t0 = time.time()
    ok = True

    def decomp(f2, f1):
        return sorted(label_2244(l) for l in tensor_decompose(f2, f1))

    vac, f, ff, fff = (doubleton(k) for k in ("vac", "f", "ff", "fff"))
    table2 = [
        (vac, ["[0,000,0;2,0]"]),
        (f, ["[0,100,0;1,0]"]),
        (ff, ["[0,110,0;1,0]"]),
        (fff, ["[0,111,0;1,0]"]),
        (doubleton("am", 2), ["[0,000,2;1,1]"]),
        (doubleton("bn", 2), ["[2,000,0;2,0]"]),
    ]
    for f1, want in table2:
        ok &= decomp(vac, f1) == sorted(want)
    table3 = [
        (vac, ["[0,100,0;1,0]"]),
        (f, ["[0,200,0;0,0]", "[0,110,0;1,0]"]),
        (ff, ["[0,210,0;0,0]", "[0,111,0;1,0]"]),
        (fff, ["[0,211,0;0,0]", "[0,000,0;1,1]"]),
        (doubleton("am", 2), ["[0,100,2;0,1]"]),
        (doubleton("bn", 2), ["[2,100,0;1,0]"]),
    ]
    for f1, want in table3:
        ok &= decomp(f, f1) == sorted(want)
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        want_a = sorted(f"[0,000,{m + n - 2 * j};0,{2 + j}]" for j in range(n + 1))
        ok &= decomp(doubleton("am", m), doubleton("am", n)) == want_a
        want_b = sorted(f"[{m + n - 2 * j},000,0;{2 + j},0]" for j in range(n + 1))
        ok &= decomp(doubleton("bn", m), doubleton("bn", n)) == want_b
    dt = time.time() - t0
    report("criterion 6: Tables 2-7 spot regeneration", ok, f"{dt:.1f}s")


KONISHI_MEMBERS = {
    "C": realize(RepLabel(2, 2, 4, (), (), (), 1, 1), strategy=Realization(0, 0, 1, 2)),
    "B": realize(RepLabel(2, 2, 4, (), (4, 2, 2), (), 0, 0), strategy=Realization(0, 0, 0, 4)),
    "D": realize(RepLabel(2, 2, 4, (), (2, 0, 0), (), 0, 1), strategy=Realization(0, 0, 1, 3)),
    "Dbar": realize(RepLabel(2, 2, 4, (), (2, 2, 2), (), 1, 0), strategy=Realization(0, 0, 0, 3)),
}


def test_criterion_7_konishi():
    """The four short members, zero central charges, recombination, and the
    K-HW content of the gamma -> -1 long parent."""
    ok = True
    do = {k: dolan_osborn(d) for k, d in KONISHI_MEMBERS.items()}
    ok &= (do["C"].cls, do["C"].dynkin, do["C"].fractions) == ("C", (0, 0, 0), (1, 1))
    ok &= (do["B"].cls, bps_type_22_4(KONISHI_MEMBERS["B"])[:2]) == ("B", (F(1, 4), F(1, 4)))
    lamB = [KONISHI_MEMBERS["B"].label.tau.part(a) for a in range(1, 5)]
    ok &= lamB == [4, 2, 2, 0]
    ok &= (do["D"].cls, do["D"].dynkin, do["D"].fractions) == ("D", (2, 0, 0), (F(1, 4), F(3, 4)))
    ok &= (do["Dbar"].cls, do["Dbar"].dynkin, do["Dbar"].fractions) == (
        "Dbar", (0, 0, 2), (F(3, 4), F(1, 4)))
    for d in KONISHI_MEMBERS.values():
        ok &= psu_central_charge(d.label) == 0
        ok &= can_recombine(d) is True

    # the long parent [0,000,0;2+g,2+g] at gamma -> -1 carries the C label,
    # and every member weight = parent weight + lowering weights (mod Lambda)
    gam = F(-1)
    parent_label_limit = RepLabel(2, 2, 4, (), (), (), 2 + gam, 2 + gam)
    ok &= parent_label_limit == KONISHI_MEMBERS["C"].label
    parent_real = Realization(gam, gam, 2, 4)
    wp = NonCompactYoungDiagram(parent_label_limit, parent_real).weight().values
    # lowering weight vectors on [nu_L(2); lambda(4); nu_R(2)]
    def vec(entries):
        v = [F(0)] * 8
        for idx, val in entries:
            v[idx] += val
        return v

    Q_L = lambda a, bd: vec([(2 + a, 1), (bd, -1)])
    Q_R = lambda a, al: vec([(2 + a, -1), (6 + al, 1)])
    E_m = lambda bd, al: vec([(bd, -1), (6 + al, 1)])
    shift = [1, 1, -1, -1, -1, -1, 1, 1]  # the su Lambda direction
    decomps = {
        "C": ([], 1),
        "B": ([Q_L(0, 0), Q_L(0, 1), Q_R(3, 0), Q_R(3, 1)], 0),
        "D": ([Q_L(0, 0), Q_L(0, 1)], 1),
        "Dbar": ([Q_R(3, 0), Q_R(3, 1)], 0),
    }
    for name, (lows, lam_shift) in decomps.items():
        d = KONISHI_MEMBERS[name]
        wm = d.weight().values
        total = [a - b - lam_shift * s for a, b, s in zip(wm, wp, shift)]
        for lw in lows:
            total = [t - l for t, l in zip(total, lw)]
        ok &= all(t == 0 for t in total)
    report("criterion 7: Konishi mechanism", ok)


def test_criterion_8_mack_grid():
    """mack_classify == classify_supq(p=q=2) on >= 200 grid points."""
    js = [F(k, 2) for k in range(0, 4)]
    count = 0
    ok = True
    for jl, jr in itertools.product(js, js):
        for e0 in [jl + jr + F(k, 4) for k in range(0, 13)]:
            got = mack_classify(jl, jr, e0)
            want = classify_supq(
                Partition((int(2 * jl),)), Partition((int(2 * jr),)), e0 - jl - jr, 2, 2
            )
            ok &= got.unitary == want.unitary
            count += 1
    # the three boundary families of Mack's list
    ok &= mack_classify(0, 0, 0).unitary
    ok &= mack_classify(0, 0, 1).unitary and not mack_classify(0, 0, F(1, 2)).unitary
    ok &= mack_classify(F(1, 2), 0, F(3, 2)).unitary
    ok &= not mack_classify(F(1, 2), 0, F(5, 4)).unitary
    ok &= mack_classify(F(1, 2), F(1, 2), 3).unitary
    ok &= not mack_classify(F(1, 2), F(1, 2), F(11, 4)).unitary
    report("criterion 8: Mack grid", ok and count >= 200, f"{count} points")


def _random_unitary_label(rng):
    while True:
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        if p + q == 0:
            q = 1
        m = rng.randint(1, 3)
        mu_l = Partition(sorted((rng.randint(0, 3) for _ in range(max(p - 1, 0))), reverse=True))
        mu_r = Partition(sorted((rng.randint(0, 3) for _ in range(max(q - 1, 0))), reverse=True))
        tau = Partition(sorted((rng.randint(0, 3) for _ in range(m - 1)), reverse=True))
        if p:
            bl = rng.choice([F(rng.randint(mu_l.height, 6)), p - 1 + F(rng.randint(1, 9), 2)])
        else:
            bl = F(0)
        if q:
            br = rng.choice([F(rng.randint(mu_r.height, 6)), q - 1 + F(rng.randint(1, 9), 2)])
        else:
            br = F(0)
        lab = RepLabel(p, q, m, mu_l, tau, mu_r, bl, br)
        if classify_supqm(lab).unitary:
            return lab


def test_criterion_9_roundtrips():
    """500 duality-order-independent lattices; 500 label round trips;
    100 carve/extend and T-hook identities."""
    t0 = time.time()
    rng = random.Random(2024)
    ok = True

    # 500 randomized lattices: build from one path, re-read along another,
    # rebuild, compare edges (order independence)
    for _ in range(500):
        p, q, m = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3)
        if p + q == 0:
            q = 1
        gradings = random_paths(p, q, m, rng, 2)
        vals = tuple(F(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(p + q + m))
        lat0 = build_weight_lattice(FundamentalWeight(gradings[0], vals))
        w1 = weight_in_grading(lat0, gradings[1])
        lat1 = build_weight_lattice(w1)
        ok &= lat0.h_edges == lat1.h_edges and lat0.v_edges == lat1.v_edges

    # 500 label -> weight -> label identities through random target gradings
    for _ in range(500):
        lab = _random_unitary_label(rng)
        w = weight_from_label(lab)
        lat = build_weight_lattice(w)
        (g,) = random_paths(lab.p, lab.q, lab.m, rng, 1)
        w2 = weight_in_grading(lat, g)
        lat2 = build_weight_lattice(w2)
        back = label_from_weight(weight_in_grading(lat2, grading_pmq(lab.p, lab.m, lab.q)))
        ok &= back == lab

    # 100 carve(extend) and from_thook(to_thook) identities
    done = 0
    while done < 100:
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        m = rng.randint(1, 4)
        mu_l = Partition(sorted((rng.randint(0, 3) for _ in range(p - 1)), reverse=True))
        mu_r = Partition(sorted((rng.randint(0, 3) for _ in range(q - 1)), reverse=True))
        tau = Partition(sorted((rng.randint(0, 3) for _ in range(m - 1)), reverse=True))
        lab = RepLabel(p, q, m, mu_l, tau, mu_r,
                       rng.randint(mu_l.height, 5), rng.randint(mu_r.height, 5))
        if not classify_supqm(lab).unitary:
            continue
        d = realize(lab)
        e = extend(d)
        back = carve(e, p, q, m)
        ok &= back.label == lab and back.realization == d.realization
        split = rng.randint(e.lo, e.hi)
        ok &= from_thook(to_thook(d, split), e.P, p, q, m).label == lab
        done += 1
    dt = time.time() - t0
    report("criterion 9: path independence and round trips", ok, f"{dt:.1f}s")


def test_criterion_10_polynomial_shortening():
    """su(2|2) [1,1;0,0]: the oracle's null vector is the antisymmetrised
    two-operator combination; each monomial acts nonzero on its own."""
    from superdual.oscillator.algebra import generator_action
    from superdual.oscillator.inner import inner_product
    from superdual.oscillator.states import combine

    lab = RepLabel(0, 2, 2, (), (), (), 0, 1)
    d = realize(lab)
    spec, u0 = build_u0(d)
    ok = verify_hws(spec, u0).weight.values == (1, 1, 0, 0)

    g = gram_positivity(d, cutoff=2)
    # kernels: two same-column r=2 monomial shortenings plus the mixed-column
    # polynomial combination of the two cross monomials
    ok &= (not g.has_negative) and g.kernel_total == 3
    mixed = [s for s in g.slices if s.weight == (F(0), F(0), F(1), F(1))]
    ok &= len(mixed) == 1 and mixed[0].dim == 2 and mixed[0].kernel_dim == 1

    m1 = generator_action(spec, 3, 1, generator_action(spec, 2, 0, u0))
    m2 = generator_action(spec, 3, 0, generator_action(spec, 2, 1, u0))
    ok &= bool(m1) and bool(m2)
    null = combine(m1, m2)
    ok &= null == {}  # the combination annihilates the HWS exactly
    ok &= inner_product(spec, m1, m1) != 0
    report("criterion 10: polynomial-shortening regression", ok)
