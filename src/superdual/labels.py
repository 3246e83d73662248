"""Grading-invariant representation labels and the classification theorems.

A unitary highest-weight representation of the su(p,q|m) *-algebra is
uniquely labelled by [mu_L, tau, mu_R; beta_L, beta_R] with proper integer
partitions (last entry in their block zero) and

    beta_L = -m_1 - m_{p+1},    beta_R = m_{p+m} + m_{p+m+q}

evaluated on the HWS in the su(p,|m|q) grading.  Unitarity holds iff
beta_R >= h(mu_R) with beta_R integer whenever beta_R <= q-1, and the mirror
condition on the left; a representation is short iff its weight lattice has a
zero plaquette, which for unitary labels happens exactly when beta_R <= q-1
or beta_L <= p-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gradings import MAX_INDICES, Grading
from .lattice import lattice_shape
from .partitions import Partition
from .rationals import is_int, rat, rat_str, wire_int
from .weights import FundamentalWeight

NON_UNITARY = "NonUnitary"
UNITARY_LONG = "UnitaryLong"
UNITARY_SHORT = "UnitaryShort"


@dataclass(frozen=True)
class Verdict:
    status: str
    witnesses: tuple = ()

    @property
    def unitary(self):
        return self.status != NON_UNITARY

    @property
    def short(self):
        return self.status == UNITARY_SHORT

    def __str__(self):
        extra = f" [{'; '.join(self.witnesses)}]" if self.witnesses else ""
        return self.status + extra


def _grading_of(*blocks) -> Grading:
    """The grading of the nonempty blocks among the (size, p, c) given."""
    return Grading.from_blocks([b for b in blocks if b[0]])


def grading_pmq(p: int, m: int, q: int) -> Grading:
    """The su(p,|m|q) grading (nu_L block, fermions, nu_R block)."""
    return _grading_of((p, 0, 0), (m, 1, 1), (q, 0, 1))


def grading_distinguished(p: int, q: int, m: int) -> Grading:
    """The su(p,q|m) grading (all bosonic rows first, fermions on top)."""
    return _grading_of((p, 0, 0), (q, 0, 1), (m, 1, 1))


@dataclass(frozen=True)
class RepLabel:
    p: int
    q: int
    m: int
    mu_L: Partition
    tau: Partition
    mu_R: Partition
    beta_L: Fraction
    beta_R: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mu_L", Partition(self.mu_L))
        object.__setattr__(self, "tau", Partition(self.tau))
        object.__setattr__(self, "mu_R", Partition(self.mu_R))
        object.__setattr__(self, "beta_L", rat(self.beta_L))
        object.__setattr__(self, "beta_R", rat(self.beta_R))
        if self.p < 0 or self.q < 0 or self.m < 0:
            raise ValueError("negative dimensions")
        if self.p + self.q + self.m < 2:
            raise ValueError("p + q + m must be at least 2")
        # proper partitions: the last entry of each block vanishes
        if self.mu_L.height >= max(self.p, 1) and self.mu_L:
            raise ValueError(f"mu_L not proper for p={self.p}")
        if self.mu_R.height >= max(self.q, 1) and self.mu_R:
            raise ValueError(f"mu_R not proper for q={self.q}")
        if self.m and self.tau.height >= self.m and self.tau:
            raise ValueError(f"tau not proper for m={self.m}")
        if self.m == 0 and self.tau:
            raise ValueError("tau must be empty for m=0")
        if self.p == 0 and self.beta_L != 0:
            raise ValueError("beta_L must vanish for p=0")
        if self.q == 0 and self.beta_R != 0:
            raise ValueError("beta_R must vanish for q=0")
        if self.m == 0 and self.beta_L != 0:
            raise ValueError("beta_L must vanish for m=0")
        if self.p + self.q + self.m > MAX_INDICES:
            raise ValueError(f"p + q + m must be at most {MAX_INDICES}")

    def __str__(self):
        mu_l = ",".join(str(x) for x in self.mu_L.padded(self.p)) or "-"
        tau = "".join(str(x) for x in self.tau.padded(self.m)) or "-"
        mu_r = ",".join(str(x) for x in self.mu_R.padded(self.q)) or "-"
        return f"[{mu_l},{tau},{mu_r};{rat_str(self.beta_L)},{rat_str(self.beta_R)}]"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "m": self.m,
            "mu_L": list(self.mu_L.padded(self.p)),
            "tau": list(self.tau.padded(self.m)),
            "mu_R": list(self.mu_R.padded(self.q)),
            "beta_L": rat_str(self.beta_L),
            "beta_R": rat_str(self.beta_R),
        }

    @classmethod
    def from_json(cls, d: dict) -> "RepLabel":
        """The label of a `label.schema.json` object; every field is required."""
        return cls(
            wire_int(d["p"]),
            wire_int(d["q"]),
            wire_int(d["m"]),
            Partition(map(wire_int, d["mu_L"])),
            Partition(map(wire_int, d["tau"])),
            Partition(map(wire_int, d["mu_R"])),
            rat(d["beta_L"]),
            rat(d["beta_R"]),
        )


# ---------------------------------------------------------------------------
# classification predicates
# ---------------------------------------------------------------------------

def _side_ok(beta: Fraction, h: int, dim: int):
    """One-sided unitarity condition: beta >= h, integer if beta <= dim-1."""
    if beta < h:
        return False, f"beta={rat_str(beta)} < h={h}"
    if beta <= dim - 1 and not is_int(beta):
        return False, f"beta={rat_str(beta)} non-integer in [h, {dim - 1}]"
    return True, ""


def classify_supqm(label: RepLabel) -> Verdict:
    """Full unitarity test for su(p,q|m) highest-weight labels."""
    if label.m == 0:
        # m = 0 convention: the single beta lives in beta_R
        if label.p >= 1 and label.q >= 1:
            return classify_supq(label.mu_L, label.mu_R, label.beta_R, label.p, label.q)
        return Verdict(UNITARY_LONG)  # compact su(n): any proper partition
    witnesses = []
    ok_r, why_r = _side_ok(label.beta_R, label.mu_R.height, label.q)
    ok_l, why_l = _side_ok(label.beta_L, label.mu_L.height, label.p)
    if not ok_r:
        witnesses.append("right: " + why_r)
    if not ok_l:
        witnesses.append("left: " + why_l)
    if witnesses:
        return Verdict(NON_UNITARY, tuple(witnesses))
    sides = []
    if label.p and label.beta_L <= label.p - 1:
        sides.append("left")
    if label.q and label.beta_R <= label.q - 1:
        sides.append("right")
    if sides:
        sat = tuple(
            f"beta_{s[0].upper()} = {rat_str(label.beta_L if s == 'left' else label.beta_R)}"
            f" <= {label.p - 1 if s == 'left' else label.q - 1} (integer point)"
            for s in sides
        )
        return Verdict(UNITARY_SHORT, sat)
    return Verdict(UNITARY_LONG)


def classify_supq(mu_L: Partition, mu_R: Partition, beta, p: int, q: int) -> Verdict:
    """su(p,q) highest-weight unitarity: beta >= h_L + h_R, and beta
    integer whenever beta <= min(p + h_R, q + h_L) - 1.

    Only the sum beta = P + gamma_L + gamma_R matters; by the m=0 convention
    the label stores it as beta_R with beta_L = 0.
    """
    mu_L, mu_R, beta = Partition(mu_L), Partition(mu_R), rat(beta)
    if p < 1 or q < 1:
        raise ValueError("su(p,q) needs p, q >= 1")
    h = mu_L.height + mu_R.height
    if beta < h:
        return Verdict(NON_UNITARY, (f"beta={rat_str(beta)} < h_L+h_R={h}",))
    window = min(p + mu_R.height, q + mu_L.height) - 1
    if beta <= window and not is_int(beta):
        return Verdict(
            NON_UNITARY, (f"beta={rat_str(beta)} non-integer in [{h}, {window}]",)
        )
    return Verdict(UNITARY_LONG)


def classify_covariant(tau: Partition, mu: Partition, beta_R, q: int, m: int) -> Verdict:
    """Covariant case: finite-dimensional unitary su(m|q) representations."""
    return classify_supqm(
        RepLabel(0, q, m, Partition(), Partition(tau), Partition(mu), 0, rat(beta_R))
    )


def classify_contravariant(mu: Partition, tau: Partition, beta_L, p: int, m: int) -> Verdict:
    """Contra-variant case (su(p,|m))."""
    return classify_supqm(
        RepLabel(p, 0, m, Partition(mu), Partition(tau), Partition(), rat(beta_L), 0)
    )


def mack_classify(j_L, j_R, e0) -> Verdict:
    """Mack's su(2,2) positive-energy classification, via the su(p,q) test.

    j's are nonnegative half-integers; beta = E0 - j_L - j_R.  Unitary iff
    j_L = j_R = 0 and (beta = 0 or beta >= 1); one spin zero and beta >= 1;
    both spins nonzero and beta >= 2.
    """
    j_L, j_R, e0 = rat(j_L), rat(j_R), rat(e0)
    for j in (j_L, j_R):
        if j < 0 or not is_int(2 * j):
            raise ValueError("spins must be nonnegative half-integers")
    beta = e0 - j_L - j_R
    return classify_supq(
        Partition((int(2 * j_L),)), Partition((int(2 * j_R),)), beta, 2, 2
    )


def psu_central_charge(label: RepLabel) -> Fraction:
    """Eigenvalue of the central element sum_i E_ii; zero iff the label
    descends to psu(p,q|p+q)."""
    if label.m != label.p + label.q:
        raise ValueError("psu constraint needs m = p + q")
    return (
        -Fraction(label.mu_L.size)
        + label.tau.size
        + label.mu_R.size
        - label.p * (label.beta_L + label.tau.part(1))
        + label.q * label.beta_R
    )


# ---------------------------------------------------------------------------
# weights <-> labels
# ---------------------------------------------------------------------------

def label_from_weight(w: FundamentalWeight) -> RepLabel:
    """Extract the invariant tuple from a weight in the su(p,|m|q) grading."""
    shape = lattice_shape(w.grading)
    p, q, m = shape.p, shape.q, shape.m
    # the path must run: p verticals, then m horizontals, then q verticals
    if [s[0] for s in shape.steps] != ["v"] * p + ["h"] * m + ["v"] * q:
        raise ValueError("weight is not in the su(p,|m|q) grading; transport it first")

    nu_L = w.values[:p]
    lam = w.values[p : p + m]
    nu_R = w.values[p + m :]

    if m:
        beta_L = -nu_L[0] - lam[0] if p else rat(0)
        beta_R = lam[-1] + nu_R[-1] if q else rat(0)
    else:
        # m = 0 convention: the single beta = nu_R^q - nu_L^1 sits in beta_R
        beta_L = rat(0)
        beta_R = nu_R[-1] - nu_L[0] if p and q else rat(0)

    def as_partition(diffs, what):
        for d in diffs:
            if not is_int(d) or d < 0:
                raise ValueError(f"{what} block is not a shifted partition")
        return Partition(tuple(int(d) for d in diffs))

    mu_L = as_partition([nu_L[0] - nu_L[p - 1 - j] for j in range(p)], "nu_L") if p else Partition()
    tau = as_partition([x - lam[-1] for x in lam], "lambda") if m else Partition()
    mu_R = as_partition([x - nu_R[-1] for x in nu_R], "nu_R") if q else Partition()
    return RepLabel(p, q, m, mu_L, tau, mu_R, beta_L, beta_R)


def weight_from_label(
    label: RepLabel, target: Grading | None = None, allow_nonunitary: bool = False
) -> FundamentalWeight:
    """The weight of the label's MinimalP diagram in `target` (its su(p,|m|q)
    weight when target is None): `diagrams.read_weight(realize(...), target)`.

    `realize` refuses a non-unitary label unless allow_nonunitary=True (the
    lattice machinery is well-defined there and is how violations are
    exhibited).
    """
    from .diagrams import read_weight, realize  # local import to avoid a cycle

    return read_weight(realize(label, allow_nonunitary=allow_nonunitary), target)
