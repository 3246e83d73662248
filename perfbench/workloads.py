"""Seeded workloads of the superdual benchmark.

Each workload draws its items from `random.Random(seed)` in rounds of fixed
composition (the seed picks the parameters inside each slot of a round and
the order of the round), so two seeds do the same kind and amount of work and
differ only in the exact labels.  The program receives only these generated
inputs; every item's output is checked against a reference, and an item that
raises, disagrees with its reference, exits with the wrong code or differs
from its golden counts as failed.

`superdual` is imported in `load()`, which the worker calls inside the set-up
it times.  Layer functions are always looked up through their modules at call
time (`labels.classify_supqm(...)`), so the traced run's patched attributes are
the ones called.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from fractions import Fraction as F

SD = {}  # superdual modules, filled by load()

REFUSED = "refused"
OK = "ok"

# beta offsets above/below a side's unitary bound, in halves and thirds
OFFSETS = tuple(sorted({F(k, 2) for k in range(-4, 9)} | {F(k, 3) for k in range(-6, 13)}))
THIRDS_HALVES = (F(1, 3), F(1, 2), F(2, 3))


def load():
    import importlib

    for name in (
        "labels", "lattice", "diagrams", "shortening", "partitions", "rationals",
        "oscillator.algebra", "oscillator.module", "oscillator.inner",
        "oscillator.capelli", "oscillator.tensor",
    ):
        SD[name] = importlib.import_module("superdual." + name)


def _partitions(height, entry):
    return SD["partitions"].partitions_bounded(max(height, 0), entry)


def _label(p, q, m, mu_l=(), tau=(), mu_r=(), bl=0, br=0):
    return SD["labels"].RepLabel(p, q, m, mu_l, tau, mu_r, F(bl), F(br))


def _algebra(lab):
    return f"su({lab.p},{lab.q}|{lab.m})"


def _rounds(n_items, slots, rng, make):
    """Rounds of one item per slot, in seeded order, until n_items are drawn.

    The worker stops only at a round boundary, so every run does whole rounds
    and its mix of item kinds is the same whatever the seed."""
    rounds, count = [], 0
    while count < n_items:
        rounds.append([make(*slot) for slot in rng.sample(slots, len(slots))])
        count += len(slots)
    return rounds


# ---------------------------------------------------------------------------
# theorem-sweep: closed-form theorem against the plaquette lattice
# ---------------------------------------------------------------------------

class TheoremSweep:
    name = "theorem-sweep"
    shapes = tuple(
        (p, q, m)
        for m in range(1, 7)
        for p in range(0, 7)
        for q in range(0, 7)
        if p + q >= 1 and p + q + m <= 7
    )
    rate_cap = 4000  # items/s the pre-generated input covers (about 2x today)

    def generate(self, rng, seconds):
        """Label fields as plain data; each item builds (validates) its RepLabel."""
        parts = {h: _partitions(h, 3) for h in range(0, 7)}
        zero = F(0)

        def item(p, q, m):
            mu_l = rng.choice(parts[p - 1]) if p else ()
            tau = rng.choice(parts[m - 1])
            mu_r = rng.choice(parts[q - 1]) if q else ()
            bl = len(mu_l) + rng.choice(OFFSETS) if p else zero
            br = len(mu_r) + rng.choice(OFFSETS) if q else zero
            return (p, q, m, mu_l, tau, mu_r, bl, br)

        return _rounds(self.rate_cap * seconds, self.shapes, rng, item)

    def props(self, item):
        p, q, m, *_rest, bl, br = item
        return {"algebra": f"su({p},{q}|{m})", "cells": (p + q) * m, "beta": [str(bl), str(br)]}

    def run(self, item):
        labels, lattice = SD["labels"], SD["lattice"]
        lab = labels.RepLabel(*item)
        verdict = labels.classify_supqm(lab)
        w = labels.weight_from_label(lab, allow_nonunitary=True)
        rep = lattice.plaquette_check(lattice.build_weight_lattice(w))
        if verdict.unitary:
            SD["shortening"].shortening_profile(lab)
        if verdict.unitary != rep.ok:
            return f"mismatch: theorem unitary={verdict.unitary}, plaquettes ok={rep.ok}"
        if verdict.unitary and verdict.short != bool(rep.zeros):
            return f"mismatch: theorem short={verdict.short}, zero plaquettes={rep.zeros}"
        return OK


# ---------------------------------------------------------------------------
# oracle-verify: the deformed-Fock Gram oracle against the theorem
# ---------------------------------------------------------------------------

def _beta(rng, h, spec):
    """A beta at offset `spec` from the bound h: ("int", k) is h + k, and
    ("frac", k) lies strictly between h + k and h + k + 1 (halves/thirds)."""
    kind, k = spec
    if kind == "int":
        return h + k
    return h + k + rng.choice(THIRDS_HALVES)


def I(k):  # noqa: E743 - spec shorthands for the table below
    return ("int", k)


def Q(k):
    return ("frac", k)


# One round of oracle-verify: (p, q, m, cutoff, mu_L, tau, mu_R, left spec,
# right spec); for m = 0 the right spec sets the single beta.  The seed draws
# only the non-integer parts (halves or thirds, hence the gammas) and the
# order, so a slot keeps its colour count P and deformed blocks and costs
# about the same whatever the seed.  The heaviest slot appears three times so
# that p90 falls inside one cluster of costs rather than between two.  p, q <= 2
# keeps deformed blocks at n <= 2; labels one below the bound are refused by
# the oscillator.
ORACLE_ROUND = (
    (1, 1, 0, 6, (), (), (), None, I(-1)),
    (1, 1, 0, 6, (), (), (), None, I(1)),
    (1, 1, 0, 6, (), (), (), None, Q(0)),
    (1, 1, 0, 6, (), (), (), None, Q(-1)),
    (1, 1, 1, 4, (), (), (), I(0), I(0)),
    (1, 1, 1, 4, (), (), (), I(1), Q(0)),
    (1, 1, 1, 4, (), (), (), Q(0), I(1)),
    (1, 1, 1, 4, (), (), (), Q(-1), I(0)),
    (1, 1, 1, 4, (), (), (), I(-1), I(1)),
    (2, 2, 0, 3, (), (), (), None, I(1)),
    (2, 2, 0, 3, (), (), (), None, Q(0)),
    (2, 2, 0, 3, (), (), (), None, Q(1)),
    (2, 2, 0, 3, (1,), (), (), None, Q(0)),
    (2, 2, 0, 3, (), (), (1,), None, I(1)),
    (2, 1, 2, 3, (), (), (), I(0), I(0)),
    (2, 1, 2, 3, (), (), (), I(1), Q(0)),
    (2, 1, 2, 3, (), (), (), Q(0), I(1)),
    (2, 1, 2, 3, (), (), (), Q(-1), Q(0)),
    (2, 1, 2, 3, (), (), (), Q(-1), Q(0)),
    (2, 1, 2, 3, (), (), (), Q(-1), Q(0)),
    (2, 2, 4, 2, (), (), (), I(1), I(0)),
    (2, 2, 4, 2, (), (), (), I(0), Q(0)),
)


def _expect_kernel(lab):
    """Criterion 3's kernel rule: for m >= 1 a kernel exactly at shortenings;
    for m = 0 exactly at the integer points inside the continuous window."""
    if lab.m:
        return SD["labels"].classify_supqm(lab).short
    window = min(lab.p + lab.mu_R.height, lab.q + lab.mu_L.height) - 1
    return lab.beta_R.denominator == 1 and lab.beta_R <= window


def _refused_by_realization(exc):
    """A realization the oscillator cannot place on colours is a refusal."""
    frames = traceback.extract_tb(exc.__traceback__)
    return bool(frames) and frames[-1].name in ("realize", "from_diagram")


def draw_oracle_label(rng, slot):
    p, q, m, cutoff, mu_l, tau, mu_r, spec_l, spec_r = slot
    bl = _beta(rng, len(mu_l), spec_l) if spec_l else 0
    # for m = 0 the single su(p,q) beta is stored in beta_R, bounded by h_L + h_R
    br = _beta(rng, len(mu_r) + (len(mu_l) if m == 0 else 0), spec_r)
    return _label(p, q, m, mu_l, tau, mu_r, bl, br), cutoff


def block_keys(real, lab):
    """(block size, gamma) of each deformed block of a realization."""
    keys = []
    if real.gamma_R != 0:
        keys.append((lab.q, str(real.gamma_R)))
    if real.gamma_L != 0:
        keys.append((lab.p, str(real.gamma_L)))
    return keys


class OracleVerify:
    name = "oracle-verify"
    rate_cap = 200

    def generate(self, rng, seconds):
        return _rounds(self.rate_cap * seconds, ORACLE_ROUND, rng,
                       lambda *slot: draw_oracle_label(rng, slot))

    def props(self, item):
        lab, cutoff = item
        real = SD["diagrams"].realize(lab, allow_nonunitary=True).realization
        return {"algebra": _algebra(lab), "label": str(lab), "cutoff": cutoff, "P": real.P,
                "gamma": [str(real.gamma_L), str(real.gamma_R)],
                "block_keys": block_keys(real, lab)}

    def run(self, item):
        lab, cutoff = item
        self.last_report = None
        try:
            d = SD["diagrams"].realize(lab, allow_nonunitary=True)
            rep = SD["oscillator.module"].gram_positivity(d, cutoff=cutoff)
        except ValueError as exc:
            if _refused_by_realization(exc):
                return REFUSED
            raise
        self.last_report = rep
        unitary = SD["labels"].classify_supqm(lab).unitary
        if unitary:
            if rep.has_negative:
                return "mismatch: unitary label has a negative norm"
            if _expect_kernel(lab) != (rep.kernel_total > 0):
                return f"mismatch: kernel {rep.kernel_total}, expected kernel={_expect_kernel(lab)}"
        elif not (rep.has_negative and rep.negative_witness is not None):
            return "mismatch: non-unitary label without a negative-norm witness"
        return OK

    @staticmethod
    def expected_inner_calls(rep):
        """One call for |u0|^2 plus d(d+1)/2 per Gram slice of dimension d."""
        return 1 + sum(s.dim * (s.dim + 1) // 2 for s in rep.slices)


# ---------------------------------------------------------------------------
# capelli-ladder: one deformed block, single-component fast path
# ---------------------------------------------------------------------------

# gamma = 0 is the undeformed Fock block, which skips the deformed form
GAMMAS = (F(1, 2), F(-1, 3), F(2, 3), F(-1, 2), F(1, 3))


# Identity-check truncation per P.  Criterion 4 checks P = 3 at cutoff 2,
# which takes 1.3 s, so that a run would hold only a dozen such lumps.
IDENTITY_CUTOFF = {2: 3, 3: 1}


def _capelli_round():
    """Every ladder of criterion 4 at P = 2, 3 and one identity check per P.

    The P = 3, mu = (3) ladder appears twice: with the P = 3 identity check
    the three make one cluster of the heaviest items, so p90 falls inside it
    rather than at its edge."""
    slots = [("ladder", 3, (3,))]
    for P in (2, 3):
        for mu in _partitions(P, 3):
            if sum(mu) <= 3:
                slots.append(("ladder", P, tuple(mu)))
        slots.append(("identity", P, None))
    return slots


class CapelliLadder:
    name = "capelli-ladder"
    rate_cap = 300
    nmax = 3

    def generate(self, rng, seconds):
        """Whole rounds in blocks of len(GAMMAS): within a block every slot
        meets every gamma once, in a seeded order."""
        slots = _capelli_round()
        rounds, count = [], 0
        while count < self.rate_cap * seconds:
            gammas = [rng.sample(GAMMAS, len(GAMMAS)) for _ in slots]
            for r in range(len(GAMMAS)):
                order = rng.sample(range(len(slots)), len(slots))
                rounds.append([(slots[j][0], slots[j][1], gammas[j][r], slots[j][2])
                               for j in order])
                count += len(slots)
        return rounds

    def props(self, item):
        kind, P, gamma, mu = item
        return {"kind": kind, "P": P, "gamma": str(gamma), "mu": mu,
                "block_keys": [(P, str(gamma))]}

    def run(self, item):
        kind, P, gamma, mu = item
        capelli = SD["oscillator.capelli"]
        if kind == "identity":
            ok = capelli.capelli_identity_check(P, gamma, cutoff=IDENTITY_CUTOFF[P])
            return OK if ok is True else "mismatch: Capelli identity fails"
        got = capelli.delta_ladder_norms(P, gamma, mu, self.nmax)
        want = [capelli.capelli_norm_factor(mu, gamma, n, P) for n in range(self.nmax)]
        return OK if got == want else f"mismatch: ladder {got} != {want}"


# ---------------------------------------------------------------------------
# cli-mixed: one fresh `superdual` interpreter per item
# ---------------------------------------------------------------------------

# criterion 6: tensor rows of tables 2, 3 and the telescoping tables 6, 7,
# in the compact su(2,2|4) notation [n_L,t1t2t3,n_R;beta_L,beta_R]
TENSOR_ROWS = [
    (("vac", 0), ("vac", 0), ["[0,000,0;2,0]"]),
    (("vac", 0), ("f", 0), ["[0,100,0;1,0]"]),
    (("vac", 0), ("ff", 0), ["[0,110,0;1,0]"]),
    (("vac", 0), ("fff", 0), ["[0,111,0;1,0]"]),
    (("vac", 0), ("am", 2), ["[0,000,2;1,1]"]),
    (("vac", 0), ("bn", 2), ["[2,000,0;2,0]"]),
    (("f", 0), ("vac", 0), ["[0,100,0;1,0]"]),
    (("f", 0), ("f", 0), ["[0,200,0;0,0]", "[0,110,0;1,0]"]),
    (("f", 0), ("ff", 0), ["[0,210,0;0,0]", "[0,111,0;1,0]"]),
    (("f", 0), ("fff", 0), ["[0,211,0;0,0]", "[0,000,0;1,1]"]),
    (("f", 0), ("am", 2), ["[0,100,2;0,1]"]),
    (("f", 0), ("bn", 2), ["[2,100,0;1,0]"]),
] + [
    ((kind, m), (kind, n), [
        f"[0,000,{m + n - 2 * j};0,{2 + j}]" if kind == "am" else f"[{m + n - 2 * j},000,0;{2 + j},0]"
        for j in range(n + 1)
    ])
    for kind in ("am", "bn")
    for m, n in ((1, 1), (2, 1), (2, 2))
]

DOUBLETONS = {
    "vac": lambda n: _label(2, 2, 4, (), (), (), 1, 0),
    "f": lambda n: _label(2, 2, 4, (), (1,), (), 0, 0),
    "ff": lambda n: _label(2, 2, 4, (), (1, 1), (), 0, 0),
    "fff": lambda n: _label(2, 2, 4, (), (1, 1, 1), (), 0, 0),
    "am": lambda n: _label(2, 2, 4, (), (), (n,), 0, 1),
    "bn": lambda n: _label(2, 2, 4, (n,), (), (), 1, 0),
}


def _compact_to_label(text):
    head, betas = text.strip("[]").split(";")
    n_l, tau, n_r = head.split(",")
    bl, br = betas.split(",")
    return _label(2, 2, 4, (int(n_l),), tuple(int(t) for t in tau), (int(n_r),), F(bl), F(br))


# the oracle slots whose non-unitary labels already show a negative norm at
# depth 2, which `superdual verify --cutoff 2` needs to agree with the theorem
VERIFY_SLOTS = tuple(dict.fromkeys(
    s for s in ORACLE_ROUND if s[:3] in ((1, 1, 0), (1, 1, 1), (2, 1, 2))))

CLI_COMMANDS = ("classify", "lattice", "shorten", "verify", "tensor") + tuple(
    f"tables{k}" for k in range(1, 8))
CLI_SHAPES = tuple(s for s in TheoremSweep.shapes if sum(s) <= 5)


class CliMixed:
    name = "cli-mixed"
    rate_cap = 15

    def __init__(self, root):
        self.child = os.path.join(root, "perfbench", "cli_child.py")
        self.goldens = os.path.join(root, "src", "superdual", "goldens")
        self.last_trace = None
        self.trace_dir = None

    def _theorem_label(self, rng):
        parts = self.parts
        p, q, m = rng.choice(CLI_SHAPES)
        mu_l = rng.choice(parts[p - 1]) if p else ()
        tau = rng.choice(parts[m - 1])
        mu_r = rng.choice(parts[q - 1]) if q else ()
        bl = len(mu_l) + rng.choice(OFFSETS) if p else 0
        br = len(mu_r) + rng.choice(OFFSETS) if q else 0
        return _label(p, q, m, mu_l, tau, mu_r, bl, br)

    def generate(self, rng, seconds):
        self.parts = {h: _partitions(h, 2) for h in range(0, 5)}
        return _rounds(self.rate_cap * seconds, [(c,) for c in CLI_COMMANDS], rng,
                       lambda cmd: self._make(cmd, rng))

    def _make(self, cmd, rng):
        """(command, argv, reference) with the reference computed in-process."""
        labels = SD["labels"]
        if cmd.startswith("tables"):
            k = int(cmd[6:])
            with open(os.path.join(self.goldens, f"table{k}.txt")) as fh:
                golden = fh.read()
            return "tables", ["tables", "--table", str(k), "--check"], (0, golden)
        if cmd == "tensor":
            left, right, rows = rng.choice(TENSOR_ROWS)
            argv = ["tensor", "--left", json.dumps(DOUBLETONS[left[0]](left[1]).to_json()),
                    "--right", json.dumps(DOUBLETONS[right[0]](right[1]).to_json())]
            return "tensor", argv, (0, sorted(f"{_compact_to_label(r)}\n" for r in rows))
        if cmd == "verify":
            lab, _cutoff = draw_oracle_label(rng, rng.choice(VERIFY_SLOTS))
            argv = ["verify", "--cutoff", "2", "--label", json.dumps(lab.to_json())]
            try:
                SD["oscillator.algebra"].OscillatorSpec.from_diagram(
                    SD["diagrams"].realize(lab, allow_nonunitary=True))
            except ValueError:
                return "verify", argv, (2, None)
            return "verify", argv, (0 if labels.classify_supqm(lab).unitary else 3, None)
        lab = self._theorem_label(rng)
        argv = [cmd, "--label", json.dumps(lab.to_json())]
        unitary = labels.classify_supqm(lab).unitary
        if cmd in ("classify", "lattice"):
            return cmd, argv, (0 if unitary else 3, None)
        if not unitary:
            return cmd, argv, (2, None)  # no admissible realization: usage error
        prof = SD["shortening"].shortening_profile(lab)
        fmt = lambda rs: " ".join("inf" if r is None else str(r) for r in rs)
        return cmd, argv, (0, f"right: {fmt(prof.right)}\nleft:  {fmt(prof.left)}\n")

    def props(self, item):
        cmd, argv, _ref = item
        out = {"command": cmd}
        if "--label" in argv:
            lab = json.loads(argv[argv.index("--label") + 1])
            out["algebra"] = f"su({lab['p']},{lab['q']}|{lab['m']})"
            out["cells"] = (lab["p"] + lab["q"]) * lab["m"]
        if cmd == "tables":
            out["table"] = int(argv[2])
        return out

    def run(self, item):
        cmd, argv, (want_code, want_out) = item
        env = None
        if self.trace_dir is not None:
            self.last_trace = os.path.join(self.trace_dir, f"child-{time.monotonic_ns()}.json")
            env = dict(os.environ, PERFBENCH_TRACE_OUT=self.last_trace)
        proc = subprocess.run([sys.executable, self.child, *argv], env=env,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != want_code:
            return f"mismatch: exit {proc.returncode}, expected {want_code}: {proc.stderr[-300:]}"
        if want_out is None:
            return OK
        got = proc.stdout
        if cmd == "shorten":  # su(2,2|4) adds a Dolan-Osborn line
            got = "".join(got.splitlines(keepends=True)[:2])
        if cmd == "tensor":
            got = sorted(got.splitlines(keepends=True))
        return OK if got == want_out else f"mismatch: {cmd} output differs from its reference"


WORKLOADS = {w.name: w for w in (TheoremSweep, OracleVerify, CapelliLadder, CliMixed)}
