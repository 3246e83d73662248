"""Non-compact, extended, T-hook and fat-hook Young diagrams.

A non-compact Young diagram encodes a label [mu_L, tau, mu_R; beta_L, beta_R]
together with oscillator realisation data (gamma_L, gamma_R, |F_Delta|, P).
In lattice coordinates (columns 1..m over the fermionic strip, the row-0 line
between the nu_L and nu_R blocks) it is the region

  strip column c:  lambda_c - P <= y <= lambda_c,   lambda_c = tau_c + |F_Delta|
  upper row a:     0 <= x <= m + mu_R^a + gamma_R   (a = 1..q above the line)
  lower row d:     -(mu_L^d + P + gamma_L) <= x <= m   (d = 1..p below)

Two realisations of the same label are related by the iso moves
(gamma_L, P) -> (gamma_L - 1, P + 1) and
(gamma_R, |F_Delta|, P) -> (gamma_R - 1, |F_Delta| + 1, P + 1).

For m = 0 there is no fermionic strip; the label then carries the single
single parameter beta = P + gamma_L + gamma_R (stored in beta_R) and
fdelta is fixed to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .gradings import Grading
from .labels import RepLabel, classify_supqm, grading_pmq
from .lattice import build_weight_lattice, weight_in_grading
from .partitions import Partition
from .rationals import is_int, rat, rat_str, wire_int
from .weights import FundamentalWeight


def _ceil(x: Fraction) -> int:
    x = rat(x)
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class Realization:
    """Oscillator data (gamma_L, gamma_R, |F_Delta|, P) behind a label.

    Admissibility: gamma > -1 on each non-empty side (p > 0 for gamma_L,
    q > 0 for gamma_R; an empty side's determinant is 1); the deformed
    determinant blocks are square, so |A_Delta| = q when gamma_R != 0 (else
    h(mu_R)), |B_Delta| = p when gamma_L != 0 (else h(mu_L)); A_Delta sits
    inside F_Delta, and F_Delta, F, B_Delta are pairwise disjoint colour
    sets, which bounds P from below (`layout`).
    """

    gamma_L: Fraction
    gamma_R: Fraction
    fdelta: int
    P: int

    def __post_init__(self):
        object.__setattr__(self, "gamma_L", rat(self.gamma_L))
        object.__setattr__(self, "gamma_R", rat(self.gamma_R))

    def layout(self, label: RepLabel):
        """The colour layout and its fit: ((B_Delta, A_Delta, F_Delta, tau
        columns) as ranges of colours, None) when it fits, else (None, the
        rule it breaks).

        Colours count from 0: B_Delta, then F_Delta, whose first |A_Delta|
        colours are A_Delta, then one colour per tau column.  For m = 0 there
        is no F_Delta and A_Delta follows B_Delta.  It fits when |A_Delta| <=
        |F_Delta| and it uses at most P colours.
        """
        nB = label.p if self.gamma_L != 0 else label.mu_L.height
        nA = label.q if self.gamma_R != 0 else label.mu_R.height
        B_delta = range(nB)
        if label.m == 0:
            if nB + nA > self.P:
                return None, "colour sets A_Delta, B_Delta overlap (P too small)"
            return (B_delta, range(nB, nB + nA), range(0), range(0)), None
        if nA > self.fdelta:
            return None, "|A_Delta| <= |F_Delta| violated"
        top = nB + self.fdelta
        if top + label.tau.part(1) > self.P:
            return None, "colour sets F_Delta, F, B_Delta overlap (P too small)"
        F_delta = range(nB, top)
        return (B_delta, F_delta[:nA], F_delta, range(top, top + label.tau.part(1))), None

    def check(self, label: RepLabel):
        if (label.p and self.gamma_L <= -1) or (label.q and self.gamma_R <= -1):
            raise ValueError("gammas must exceed -1")
        if self.fdelta < 0 or self.P < 0:
            raise ValueError("fdelta and P are nonnegative integers")
        if label.m == 0:
            if self.fdelta != 0:
                raise ValueError("fdelta must vanish for m = 0")
            if label.beta_R != self.P + self.gamma_L + self.gamma_R:
                raise ValueError("beta inconsistent with realization")
        _colours, misfit = self.layout(label)
        if misfit:
            raise ValueError(misfit)
        if label.m == 0:
            return
        if label.beta_L != self.gamma_L + self.P - self.fdelta - label.tau.part(1):
            raise ValueError("beta_L inconsistent with realization")
        if label.beta_R != self.gamma_R + self.fdelta:
            raise ValueError("beta_R inconsistent with realization")

    def to_json(self):
        return {
            "gamma_L": rat_str(self.gamma_L),
            "gamma_R": rat_str(self.gamma_R),
            "fdelta": self.fdelta,
            "P": self.P,
        }

    @classmethod
    def from_json(cls, d):
        return cls(rat(d["gamma_L"]), rat(d["gamma_R"]), wire_int(d["fdelta"]), wire_int(d["P"]))


@dataclass(frozen=True)
class NonCompactYoungDiagram:
    label: RepLabel
    realization: Realization

    # boundary data in lattice coordinates -----------------------------------
    def lam(self, c: int) -> int:
        """Upper boundary over fermionic column c (1-based): tau_c + |F_Delta|."""
        return self.label.tau.part(c) + self.realization.fdelta

    def upper_row_end(self, a: int) -> Fraction:
        """Right end of upper row a (1-based, counted up from the centre)."""
        return self.label.mu_R.part(a) + self.realization.gamma_R + self.label.m

    def lower_row_start(self, d: int) -> Fraction:
        """Left end of lower row d (1-based, counted down from the centre)."""
        return -(self.label.mu_L.part(d) + self.realization.P + self.realization.gamma_L)

    def weight(self) -> FundamentalWeight:
        """The HWS weight in the su(p,|m|q) grading, read off the boundary:
        nu_L from the lower row starts (bottom row first), lambda from the
        strip, nu_R from the upper row ends less the strip width m."""
        label = self.label
        return FundamentalWeight(
            grading_pmq(label.p, label.m, label.q),
            tuple(self.lower_row_start(d) for d in range(label.p, 0, -1))
            + tuple(self.lam(c) for c in range(1, label.m + 1))
            + tuple(self.upper_row_end(a) - label.m for a in range(1, label.q + 1)),
        )

    def to_json(self):
        out = self.label.to_json()
        out.update(self.realization.to_json())
        return out


def realize(label: RepLabel, strategy=None, allow_nonunitary=False) -> NonCompactYoungDiagram:
    """Attach realisation data to a label.

    A Realization `strategy` is checked and used as given.  Without one,
    MinimalP keeps the gamma of each non-empty side in (-1, 0], picking the
    smallest admissible fdelta and then the smallest P.  With
    allow_nonunitary the same arithmetic runs for non-unitary labels; a gamma
    may then fall at or below -1 (exactly how the Gram oracle exhibits
    negative norms) and the Realization invariants are not enforced.
    """
    if strategy is not None:
        strategy.check(label)
        return NonCompactYoungDiagram(label, strategy)
    if not allow_nonunitary and not classify_supqm(label).unitary:
        raise ValueError(f"no admissible realization: {label} is not unitary")
    real = _realize_m0(label) if label.m == 0 else _realize_generic(label)
    if not allow_nonunitary:
        real.check(label)
    return NonCompactYoungDiagram(label, real)


def _realize_generic(label: RepLabel) -> Realization:
    # right side: beta_R = gamma_R + fdelta
    if is_int(label.beta_R):
        fd = max(int(label.beta_R), 0)
        gam_R = label.beta_R - fd
    else:
        fd = max(_ceil(label.beta_R), label.q)
        gam_R = label.beta_R - fd
    # left side: beta_L = gamma_L + P - fdelta - tau_1
    if is_int(label.beta_L):
        gam_L = rat(0)
        P = fd + label.tau.part(1) + int(label.beta_L)
        if P < 0:
            P = fd + label.tau.part(1)
            gam_L = label.beta_L
    else:
        k = max(_ceil(label.beta_L), label.p)
        gam_L = label.beta_L - k
        P = k + fd + label.tau.part(1)
    return Realization(gam_L, gam_R, fd, P)


def _realize_m0(label: RepLabel) -> Realization:
    """m = 0 realisation: beta = P + gamma_L + gamma_R, fdelta = 0.

    For p = 0, P is mu_R's height and beta - P goes on the gamma of the empty
    left side.  For q = 0 the label has beta = 0 and an empty mu_R, so the
    integer branch gives P = h_L with gamma_R = -h_L on the empty right side."""
    beta = label.beta_R
    h_L, h_R = label.mu_L.height, label.mu_R.height
    if label.p == 0:
        return Realization(beta - h_R, rat(0), 0, h_R)
    if is_int(beta):
        P = max(int(beta), h_L + h_R)
        gam = beta - P  # 0 on the unitary locus, <= -1 off it
        return Realization(rat(0), gam, 0, P)
    cost_right = label.q + h_L
    cost_left = label.p + h_R
    if cost_right <= cost_left:
        P = cost_right
        return Realization(rat(0), beta - P, 0, P)
    P = cost_left
    return Realization(beta - P, rat(0), 0, P)


# ---------------------------------------------------------------------------
# weight read-off along an arbitrary grading
# ---------------------------------------------------------------------------

def read_weight(d: NonCompactYoungDiagram, g: Grading | None = None) -> FundamentalWeight:
    """The diagram's weight in grading g.

    `NonCompactYoungDiagram.weight`, carried to g along the weight lattice
    (`lattice.weight_in_grading`); returned as is when g is None or its own
    grading.
    """
    w0 = d.weight()
    if g is None or g == w0.grading:
        return w0
    return weight_in_grading(build_weight_lattice(w0), g)


# ---------------------------------------------------------------------------
# iso moves
# ---------------------------------------------------------------------------

def iso_move_lower(d: NonCompactYoungDiagram, k: int = 1) -> NonCompactYoungDiagram:
    """(gamma_L, P) -> (gamma_L - k, P + k); label unchanged, k = -1 undoes it."""
    r = replace(d.realization, gamma_L=d.realization.gamma_L - k, P=d.realization.P + k)
    r.check(d.label)
    return NonCompactYoungDiagram(d.label, r)


def iso_move_upper(d: NonCompactYoungDiagram, k: int = 1) -> NonCompactYoungDiagram:
    """(gamma_R, fdelta, P) -> (gamma_R - k, fdelta + k, P + k); label unchanged,
    k = -1 undoes it."""
    r = replace(
        d.realization,
        gamma_R=d.realization.gamma_R - k,
        fdelta=d.realization.fdelta + k,
        P=d.realization.P + k,
    )
    r.check(d.label)
    return NonCompactYoungDiagram(d.label, r)


# ---------------------------------------------------------------------------
# extended diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedYoungDiagram:
    """Upper boundary of the P-thick ribbon over a finite column window.

    heights[j] is the upper boundary over column lo + j; the boundary
    continues flat on both sides of the window (value heights[0] to the west,
    heights[-1] to the east).  The lower boundary is the upper one shifted
    down by exactly P.  Only integer-weight diagrams extend.
    """

    P: int
    lo: int
    heights: tuple

    @property
    def hi(self) -> int:
        return self.lo + len(self.heights) - 1

    def upper(self, col: int) -> int:
        if col < self.lo:
            return self.heights[0]
        if col > self.hi:
            return self.heights[-1]
        return self.heights[col - self.lo]

    def lower(self, col: int) -> int:
        return self.upper(col) - self.P


def extend(d: NonCompactYoungDiagram) -> ExtendedYoungDiagram:
    """Merge the strip, row and tail data into one windowed boundary."""
    label, r = d.label, d.realization
    if not (is_int(r.gamma_L) and is_int(r.gamma_R)):
        raise ValueError("extension is defined for integer-weight diagrams only")
    if r.gamma_L != 0 or r.gamma_R != 0:
        raise ValueError("absorb integer gammas into fdelta and P first")
    p, q, m, P = label.p, label.q, label.m, r.P
    west = -(label.mu_L.part(1) + P)
    east = m + label.mu_R.part(1) + 1
    heights = []
    for col in range(west, east + 1):
        if col < 1:
            covered = sum(1 for dd in range(1, p + 1) if label.mu_L.part(dd) + P >= 1 - col)
            heights.append(P - covered)
        elif col <= m:
            heights.append(label.tau.part(col) + r.fdelta)
        else:
            heights.append(sum(1 for a in range(1, q + 1) if label.mu_R.part(a) >= col - m))
    return ExtendedYoungDiagram(P, west, tuple(heights))


def carve(e: ExtendedYoungDiagram, p: int, q: int, m: int) -> NonCompactYoungDiagram:
    """Cut the (p,q|m) hook out of an extended diagram (inverse of extend).

    Raises if the hook does not cut the boundary consistently (non-proper
    partitions, or tails that fail to flatten outside the hook).
    """
    P = e.P
    lam = [e.upper(c) for c in range(1, m + 1)]
    if any(a < b for a, b in zip(lam, lam[1:])) or (m and lam[-1] < 0):
        raise ValueError("upper boundary is not a partition over the strip")
    fdelta = lam[-1] if m else 0
    tau = Partition([x - fdelta for x in lam])

    if q and e.heights[-1] >= 1:
        raise ValueError("upper boundary does not flatten east of the hook")
    mu_R = Partition(
        [sum(1 for t in range(1, e.hi - m + 1) if e.upper(m + t) >= a) for a in range(1, q + 1)]
    ) if q else Partition()
    if q and mu_R and mu_R.height >= q:
        raise ValueError("mu_R not proper for this hook")

    mu_L_rows = []
    for dd in range(1, p + 1):
        if e.lower(e.lo - 1) <= -dd:
            raise ValueError("lower boundary does not flatten west of the hook")
        covered = sum(1 for j in range(e.lo, 1) if e.lower(j) <= -dd)
        if covered < P:
            raise ValueError(f"hook row {dd} is not covered by the diagram")
        mu_L_rows.append(covered - P)
    mu_L = Partition(mu_L_rows)
    if p and mu_L and mu_L.height >= p:
        raise ValueError("mu_L not proper for this hook")

    if m:
        label = RepLabel(p, q, m, mu_L, tau, mu_R, rat(P - lam[0]), rat(fdelta))
    else:
        label = RepLabel(p, q, 0, mu_L, Partition(), mu_R, rat(0), rat(P))
    return NonCompactYoungDiagram(label, Realization(rat(0), rat(0), fdelta, P))


# ---------------------------------------------------------------------------
# T-hook diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class THookDiagram:
    """Windowed boundary with the columns up to `split` flipped (y -> P - y)."""

    split: int
    lo: int
    left_flipped: tuple
    right: tuple


def to_thook(d: NonCompactYoungDiagram, split: int) -> THookDiagram:
    e = extend(d)
    if not e.lo <= split <= e.hi:
        raise ValueError(f"split {split} outside diagram window [{e.lo}, {e.hi}]")
    left = tuple(e.P - e.upper(c) for c in range(e.lo, split + 1))
    right = tuple(e.upper(c) for c in range(split + 1, e.hi + 1))
    return THookDiagram(split, e.lo, left, right)


def from_thook(t: THookDiagram, P: int, p: int, q: int, m: int) -> NonCompactYoungDiagram:
    heights = tuple(P - y for y in t.left_flipped) + t.right
    return carve(ExtendedYoungDiagram(P, t.lo, heights), p, q, m)


# ---------------------------------------------------------------------------
# compact fat-hook diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FatHookDiagram:
    """Compact (m|q)-fat-hook data over the q x m weight lattice.

    lam holds the fermionic column heights tau_c + beta_R, mu the bosonic row
    lengths; shaded lists the shortening cells (row, col), rows bottom-up.
    """

    q: int
    m: int
    lam: tuple
    mu: tuple
    shaded: tuple


def fat_hook(tau: Partition, mu: Partition, beta_R, q: int, m: int) -> FatHookDiagram:
    """Fat-hook diagram of a covariant label with shortening cells shaded.

    Cell (row a, col c) is shaded iff it lies outside the Young diagram:
    mu_a = 0 and lambda_c <= a - 1 (possible only for integer beta_R); these
    are exactly the zero plaquettes of the weight lattice.
    """
    tau, mu, beta_R = Partition(tau), Partition(mu), rat(beta_R)
    lam = tuple(tau.part(c) + beta_R for c in range(1, m + 1))
    shaded = []
    if is_int(beta_R):
        for a in range(1, q + 1):
            for c in range(1, m + 1):
                if mu.part(a) == 0 and lam[c - 1] <= a - 1:
                    shaded.append((a, c))
    return FatHookDiagram(q, m, lam, tuple(mu.padded(q)), tuple(shaded))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

CELL = 10  # svg units per lattice cell
MAX_RENDER_CELLS = 100_000  # largest window (columns x rows) that `render` draws


def render(d: NonCompactYoungDiagram, format: str = "ascii") -> str:
    if format == "ascii":
        return _render_ascii(d)
    if format == "svg":
        return _render_svg(d)
    raise ValueError(f"unknown format {format!r}")


def _covers(d: NonCompactYoungDiagram, col: int, row: int) -> bool:
    """Whole-cell membership for the unit cell in column `col`, row `row`.

    Rows count from the centre line (row 1 is y in [0,1], row -1 is y in
    [-1,0]); cells only partially covered by fractional boundaries are out.
    """
    label, r = d.label, d.realization
    y_hi = row if row > 0 else row + 1
    y_lo = y_hi - 1
    if 1 <= col <= label.m:
        lam = d.lam(col)
        if lam - r.P <= y_lo and y_hi <= lam:
            return True
    # row tails live strictly outside the fermionic strip
    if 0 < row <= label.q and col > label.m:
        if col <= d.upper_row_end(row):
            return True
    if row < 0 and -row <= label.p and col <= 0:
        if col - 1 >= d.lower_row_start(-row):
            return True
    return False


def _window(d: NonCompactYoungDiagram):
    label = d.label
    west = 0
    if label.p:
        west = min(west, int(d.lower_row_start(1)))
    east = label.m
    if label.q:
        east = max(east, _ceil(d.upper_row_end(1)))
    lams = [d.lam(c) for c in range(1, label.m + 1)]
    top = max(lams + [label.q, 1])
    bot = min([lam - d.realization.P for lam in lams] + [-label.p, -1])
    if (east - west) * (top - bot) > MAX_RENDER_CELLS:
        raise ValueError(
            f"a window of {east - west} x {top - bot} cells is larger than "
            f"{MAX_RENDER_CELLS} cells to render"
        )
    return west, east, bot, top


def _render_ascii(d: NonCompactYoungDiagram) -> str:
    west, east, bot, top = _window(d)
    lines = [f"# {d.label} @ {d.realization.to_json()}"]
    for row in range(top, bot - 1, -1):
        if row == 0:
            lines.append("--" * (east - west))
            continue
        cells = "".join(
            "[]" if _covers(d, col, row) else " ." for col in range(west + 1, east + 1)
        )
        lines.append(cells.rstrip())
    return "\n".join(lines)


def _render_svg(d: NonCompactYoungDiagram) -> str:
    west, east, bot, top = _window(d)
    width = (east - west) * CELL
    height = (top - bot) * CELL

    def xpix(x):
        return (x - west) * CELL

    def ypix(y):
        return (top - y) * CELL

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for row in range(top, bot - 1, -1):
        if row == 0:
            continue
        y_hi = row if row > 0 else row + 1
        for col in range(west + 1, east + 1):
            if _covers(d, col, row):
                out.append(
                    f'<rect x="{xpix(col - 1)}" y="{ypix(y_hi)}" width="{CELL}" '
                    f'height="{CELL}" fill="#99b4ff" stroke="#333355"/>'
                )
    out.append(
        f'<line x1="0" y1="{ypix(0)}" x2="{width}" y2="{ypix(0)}" '
        'stroke="#888888" stroke-dasharray="4 2"/>'
    )
    out.append("</svg>")
    return "\n".join(out)
