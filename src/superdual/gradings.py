"""Borel gradings of sl(n|m) and their Kac-Dynkin-Vogan diagrams.

A grading assigns to every index i a pair (p_i, c_i) of Z_2 values: p is the
parity grading (odd generators have p_i + p_j = 1) and c the conjugation
grading defining the *-operation E_ij* = (-1)^{c_i+c_j} E_ji.  Only the sums
p_i + p_j, c_i + c_j matter, which is resolved by normalising the first index
to (0, 0) in the text grammar.

Text grammar:  su( INT (SEP INT)* )  with SEP one of "," "|" ",|".
A separator flips the running (p, c) of the next block: "," flips c only
(non-compact boundary), "|" flips p only, ",|" flips both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


# node kinds of adjacent index pairs
COMPACT_EVEN = "CompactEven"        # p equal, c equal  -> su(2)
NON_COMPACT = "NonCompact"          # p equal, c differ -> su(1,1)
FERMIONIC_C_EVEN = "FermionicCEven"  # p differ, c equal
FERMIONIC_C_ODD = "FermionicCOdd"    # p differ, c differ


def node_kind(pc1, pc2) -> str:
    p_odd = (pc1[0] + pc2[0]) % 2
    c_odd = (pc1[1] + pc2[1]) % 2
    if p_odd:
        return FERMIONIC_C_ODD if c_odd else FERMIONIC_C_EVEN
    return NON_COMPACT if c_odd else COMPACT_EVEN


# 8 times su(2,2|4); the bound makes a grading like su(1000000000000) a
# ValueError (a usage error at the CLI) before it is expanded, not a MemoryError
MAX_INDICES = 64


class Grading:
    """Ordered sequence of (p, c) pairs, one per gl(n|m) index."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple((int(p) % 2, int(c) % 2) for (p, c) in entries)
        if len(entries) < 2:
            raise ValueError("grading needs at least two indices")
        self.entries = entries

    @classmethod
    def from_blocks(cls, blocks):
        """blocks: iterable of (size, p, c), the sizes summing to at most MAX_INDICES."""
        ent = []
        for size, p, c in blocks:
            if size <= 0:
                raise ValueError(f"zero-sized block in {blocks}")
            if len(ent) + size > MAX_INDICES:
                raise ValueError(f"a grading has at most {MAX_INDICES} indices")
            ent.extend([(p % 2, c % 2)] * size)
        return cls(ent)

    # -- basic data ---------------------------------------------------------
    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, Grading) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        try:
            return f"Grading({render_grading(self)!r})"
        except ValueError:
            return f"Grading({self.entries})"

    def p(self, i: int) -> int:
        """1-based parity."""
        return self.entries[i - 1][0]

    def c(self, i: int) -> int:
        return self.entries[i - 1][1]

    def counts(self):
        """Occurrences of each (p, c) class: dict {(p,c): count}."""
        n = {(0, 0): 0, (0, 1): 0, (1, 1): 0, (1, 0): 0}
        for e in self.entries:
            n[e] += 1
        return n

    def blocks(self):
        """Maximal runs of constant (p, c) as a list of (size, p, c)."""
        out = []
        for p, c in self.entries:
            if out and out[-1][1] == p and out[-1][2] == c:
                out[-1][0] += 1
            else:
                out.append([1, p, c])
        return [tuple(b) for b in out]

    def node_kinds(self):
        """Kind of each of the len-1 adjacent Dynkin nodes."""
        return tuple(
            node_kind(self.entries[i], self.entries[i + 1])
            for i in range(len(self.entries) - 1)
        )


_GRADING_RE = re.compile(r"su\(([0-9]+(?:(?:,\||,|\|)[0-9]+)*)\)")


def parse_grading(text: str) -> Grading:
    """Parse the su(...) block notation; the first block is (p,c) = (0,0)."""
    m = _GRADING_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed grading {text!r}")
    blocks = []
    p = c = 0
    for sep, size in re.findall(r"([,|]*)([0-9]+)", m.group(1)):
        c ^= "," in sep
        p ^= "|" in sep
        blocks.append((int(size), p, c))
    return Grading.from_blocks(blocks)


def render_grading(g: Grading) -> str:
    """Inverse of parse_grading; defined for gradings whose first entry is (0,0)."""
    blocks = g.blocks()
    if blocks[0][1:] != (0, 0):
        raise ValueError("renderable gradings start with a (0,0) block")
    parts = [str(blocks[0][0])]
    for prev, cur in zip(blocks, blocks[1:]):
        dp = (prev[1] + cur[1]) % 2
        dc = (prev[2] + cur[2]) % 2
        sep = {(0, 1): ",", (1, 0): "|", (1, 1): ",|"}[(dp, dc)]
        parts.append(sep + str(cur[0]))
    return "su(" + "".join(parts) + ")"


# ---------------------------------------------------------------------------
# real-form signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealFormSignature:
    """Canonical (p, q | r, s) = counts of (p,c) classes (00, 01, 11, 10).

    Canonical under the Z_2-shift identifications
    (p,q|r,s) ~ (q,p|s,r) ~ (s,r|q,p): the representative with the smallest
    s, ties broken by the lexicographically largest (p,q,r,s).  This matches
    the su(p,q|m) display convention (fermionic c-odd block listed, s = 0).
    """

    p: int
    q: int
    r: int
    s: int

    def __str__(self):
        return f"({self.p},{self.q}|{self.r},{self.s})"

    @property
    def m(self):
        return self.r + self.s


def _shift_orbit(t):
    p, q, r, s = t
    return {(p, q, r, s), (q, p, s, r), (s, r, q, p), (r, s, p, q)}


def canonical_signature(p, q, r, s) -> RealFormSignature:
    orbit = _shift_orbit((p, q, r, s))
    smin = min(t[3] for t in orbit)
    best = max(t for t in orbit if t[3] == smin)
    return RealFormSignature(*best)


def signature(g: Grading) -> RealFormSignature:
    n = g.counts()
    return canonical_signature(n[(0, 0)], n[(0, 1)], n[(1, 1)], n[(1, 0)])


# ---------------------------------------------------------------------------
# extended diagrams and canonical forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedDiagram:
    """Kac-Dynkin-Vogan diagram with the wrap-around node appended."""

    base: Grading
    kinds: tuple  # len(base) kinds; last one is the extended node

    @property
    def wrap_kind(self):
        return self.kinds[-1]

    def p_odd_count(self):
        return sum(1 for k in self.kinds if k in (FERMIONIC_C_EVEN, FERMIONIC_C_ODD))

    def c_odd_count(self):
        return sum(1 for k in self.kinds if k in (NON_COMPACT, FERMIONIC_C_ODD))


def extended_diagram(g: Grading) -> ExtendedDiagram:
    kinds = g.node_kinds() + (node_kind(g.entries[-1], g.entries[0]),)
    ext = ExtendedDiagram(g, kinds)
    # parity bookkeeping: flips around a cycle come in pairs
    if ext.p_odd_count() % 2 or ext.c_odd_count() % 2:
        raise AssertionError(f"an odd number of parity flips around the cycle of {kinds}")
    return ext


@dataclass(frozen=True)
class CanonicalWitness:
    """How the canonical grading was reached.

    canonical.entries[i] == shifted source entries[perm[i]], where the shift
    adds (p_shift, c_shift) to every (p, c); both operations are *-algebra
    isomorphisms.
    """

    perm: tuple
    p_shift: int
    c_shift: int


# cyclic class order realising the canonical shapes: each adjacent transition
# (including the wrap) flips exactly one of p, c
_CANONICAL_ORDER = ((0, 0), (0, 1), (1, 1), (1, 0))


def canonical_form(g: Grading):
    """Permute (and globally shift) g into the canonical block form.

    Returns (canonical Grading, CanonicalWitness).  The canonical form is the
    block sequence 00^p 01^q 11^r 10^s for the canonical signature, so its
    extended diagram has at most two p-odd and two c-odd nodes.
    """
    sig = signature(g)
    target_counts = {
        (0, 0): sig.p,
        (0, 1): sig.q,
        (1, 1): sig.r,
        (1, 0): sig.s,
    }
    target = []
    for cls in _CANONICAL_ORDER:
        target.extend([cls] * target_counts[cls])
    target = tuple(target)

    n = g.counts()
    for dp in (0, 1):
        for dc in (0, 1):
            shifted = {((p + dp) % 2, (c + dc) % 2): v for (p, c), v in n.items()}
            if shifted == target_counts:
                # stable matching: for each class, source indices in order
                pools = {cls: [] for cls in target_counts}
                for i, (p, c) in enumerate(g.entries):
                    pools[((p + dp) % 2, (c + dc) % 2)].append(i)
                perm = tuple(pools[cls].pop(0) for cls in target)
                return Grading(target), CanonicalWitness(perm, dp, dc)
    raise AssertionError("no shift matches the canonical signature")


# ---------------------------------------------------------------------------
# real forms with only trivial unitary representations
# ---------------------------------------------------------------------------

_FORM_RE = re.compile(
    r"""^(?:
        (?P<su>su\((?P<a1>\d+),(?P<a2>\d+)\|(?P<a3>\d+),(?P<a4>\d+)\)) |
        (?P<slr>sl\((?P<b1>\d+),(?:R|ℝ)\|(?P<b2>\d+),(?:R|ℝ)\)) |
        (?P<sustar>su\*\((?P<c1>\d+)\|(?P<c2>\d+)\)) |
        (?P<psl>psl'\((?P<d1>\d+)\|(?P<d2>\d+)\))
    )$""",
    re.VERBOSE,
)


def admits_nontrivial_unitary(form) -> bool:
    """True iff the real form is su(p,q|m), i.e. r*s = 0 when m != 0.

    `form` is a RealFormSignature or one of the strings su(p,q|r,s),
    sl(n,R|m,R), su*(2n|2m), psl'(n|n).  The other three families admit only
    the trivial unitary representation.
    """
    if isinstance(form, RealFormSignature):
        return form.r == 0 or form.s == 0
    if isinstance(form, Grading):
        return admits_nontrivial_unitary(signature(form))
    m = _FORM_RE.match(str(form).replace(" ", ""))
    if not m:
        raise ValueError(f"unrecognised real form {form!r}")
    if m.group("su"):
        r, s = (int(m.group(k)) for k in ("a3", "a4"))
        return r == 0 or s == 0
    return False
