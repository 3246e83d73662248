"""Monomial shortening structure, BPS typing and Dolan-Osborn labels.

In the su(p,|m|q) grading write lambda_a = tau_a + |F_Delta| for the
fermionic Cartan values.  A length-r monomial of lowering operators in
column a annihilates the HWS iff (on the right side)

    gamma_R = 0,  lambda_a = r - 1,  mu_R^j = 0 for all j >= r   (r <= q)

and mirrored on the left with P - lambda_a in place of lambda_a.  r = 1 is
the BPS case; everything else is detected at the level of weights only (the
explicit oscillator check lives in the oscillator package).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagrams import NonCompactYoungDiagram, realize
from .labels import RepLabel
from .rationals import rat, rat_str


@dataclass(frozen=True)
class ShorteningProfile:
    """Minimal monomial orders r_a per fermionic column, per side.

    right[a] / left[a] (1-based column a) give the minimal length of a
    lowering-operator monomial in column a annihilating the HWS, or None if
    no finite order exists at the monomial level.
    """

    right: tuple
    left: tuple

    def is_short(self):
        return any(r is not None for r in self.right + self.left)

    def bps_columns(self, side="right"):
        vals = self.right if side == "right" else self.left
        return tuple(a + 1 for a, r in enumerate(vals) if r == 1)


def shortening_profile(label: RepLabel) -> ShorteningProfile:
    """Weight-level shortening orders for a unitary label (both sides);
    `realize` refuses a non-unitary one."""
    return shortening_profile_of(realize(label))


def shortening_profile_of(d: NonCompactYoungDiagram) -> ShorteningProfile:
    label, real = d.label, d.realization
    right = []
    left = []
    for a in range(1, label.m + 1):
        lam = d.lam(a)
        r = None
        if real.gamma_R == 0 and lam <= label.q - 1:
            if all(label.mu_R.part(j) == 0 for j in range(lam + 1, label.q + 1)):
                r = lam + 1
        right.append(r)
        colam = real.P - lam  # distance to the lower boundary
        l = None
        if real.gamma_L == 0 and colam <= label.p - 1:
            if all(label.mu_L.part(j) == 0 for j in range(colam + 1, label.p + 1)):
                l = colam + 1
        left.append(l)
    return ShorteningProfile(tuple(right), tuple(left))


# ---------------------------------------------------------------------------
# su(2,2|4) specialisation
# ---------------------------------------------------------------------------

def _lam_2244(d: NonCompactYoungDiagram) -> list:
    """[lambda_1..lambda_4] = tau_a + |F_Delta| of an su(2,2|4) diagram."""
    if (d.label.p, d.label.q, d.label.m) != (2, 2, 4):
        raise ValueError("this operation is specific to su(2,2|4)")
    return [d.lam(a) for a in range(1, 5)]


def bps_type_22_4(d: NonCompactYoungDiagram):
    """(s, sbar, t, tbar): BPS and semi-shortening fractions out of N = 4.

    sbar and tbar count the columns of right shortening order 1 (Q_R BPS)
    and 2 (semi-short); s and t count the left orders 1 and 2.
    """
    _lam_2244(d)  # raises off su(2,2|4)
    prof = shortening_profile_of(d)
    return (
        Fraction(prof.left.count(1), 4),
        Fraction(prof.right.count(1), 4),
        Fraction(prof.left.count(2), 4),
        Fraction(prof.right.count(2), 4),
    )


@dataclass(frozen=True)
class DolanOsbornLabel:
    cls: str  # A, B, C, D, Dbar
    dynkin: tuple  # [k, p, q]
    spins: tuple  # (j, jbar)
    delta: Fraction
    fractions: tuple  # (s or t, sbar or tbar) as displayed in the superscript

    def __str__(self):
        k, p, q = self.dynkin
        j, jb = self.spins
        if self.cls == "A":
            sup = f"^Delta={rat_str(self.delta)}"
        else:
            sup = f"^({rat_str(self.fractions[0])},{rat_str(self.fractions[1])})"
        return f"{self.cls}[{k},{p},{q}]({rat_str(j)},{rat_str(jb)}){sup}"


def dolan_osborn(d: NonCompactYoungDiagram) -> DolanOsbornLabel:
    """Dolan-Osborn class of an su(2,2|4) multiplet.

    A: long; B: BPS on both sides; C: semi-short on both sides; D / Dbar:
    BPS on one side, semi-short on the other.  Mixed long/short sides fall
    outside the five classes and raise.
    """
    lam = _lam_2244(d)
    s, sbar, t, tbar = bps_type_22_4(d)
    dynkin = (lam[0] - lam[1], lam[1] - lam[2], lam[2] - lam[3])
    j = rat(d.label.mu_L.part(1)) / 2
    jb = rat(d.label.mu_R.part(1)) / 2
    delta = (
        rat(d.label.mu_L.part(1) + d.label.mu_R.part(1)) / 2
        + d.realization.gamma_L
        + d.realization.gamma_R
        + d.realization.P
    )

    def side_status(bps, semi):
        if bps > 0:
            return "BPS"
        if semi > 0:
            return "semi"
        return "long"

    left = side_status(s, t)
    right = side_status(sbar, tbar)
    table = {
        ("long", "long"): "A",
        ("BPS", "BPS"): "B",
        ("semi", "semi"): "C",
        ("BPS", "semi"): "D",
        ("semi", "BPS"): "Dbar",
    }
    if (left, right) not in table:
        raise ValueError(f"no Dolan-Osborn class for side statuses {(left, right)}")
    cls = table[(left, right)]
    fractions = {
        "A": (rat(0), rat(0)),
        "B": (s, sbar),
        "C": (t, tbar),
        "D": (s, tbar),
        "Dbar": (t, sbar),
    }[cls]
    return DolanOsbornLabel(cls, dynkin, (j, jb), delta, fractions)


def can_recombine(d: NonCompactYoungDiagram) -> bool:
    """Konishi criterion: a short zero-central-charge su(2,2|4) multiplet can
    join into a long one iff lambda_4 != 0, or lambda_4 = 0 and lambda_3 > 1."""
    lam = _lam_2244(d)
    prof = shortening_profile_of(d)
    if not prof.is_short():
        raise ValueError("recombination is defined for short multiplets")
    return lam[3] != 0 or lam[2] > 1
