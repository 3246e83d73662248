"""Command-line front end.

Exit codes: 0 ok / unitary, 3 non-unitary, 2 usage error (malformed input,
or a request the package refuses with ValueError), 4 internal error,
inconsistency or golden mismatch.  A closed stdout ends the process by
SIGPIPE, with no message.  `verify` exits 3 on a non-unitary label
even when the oracle finds no negative direction up to its cutoff, since
truncation can hide one; a negative norm on a unitary label is exit 4.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from fractions import Fraction

from .diagrams import NonCompactYoungDiagram, Realization, realize, render
from .gradings import Grading, parse_grading, render_grading
from .labels import RepLabel, classify_supqm, weight_from_label
from .lattice import build_weight_lattice, plaquette_check
from .rationals import rat, rat_str, wire_int
from .shortening import bps_type_22_4, dolan_osborn, shortening_profile_of
from .weights import FundamentalWeight

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NON_UNITARY = 3
EXIT_INTERNAL = 4

def _load_json_arg(text: str):
    if os.path.exists(text):
        try:
            with open(text) as fh:
                return json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read JSON file {text!r} ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"--label/--weight expects a JSON file or literal ({exc})"
        ) from exc


def _from_json(what: str, build, data):
    """build(data), reporting malformed JSON input as a ValueError (exit 2)."""
    try:
        return build(data)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {what} JSON ({type(exc).__name__}: {exc})") from exc


# the fields of schemas/label.schema.json, and those diagram.schema.json adds
_LABEL_KEYS = frozenset(("p", "q", "m", "mu_L", "tau", "mu_R", "beta_L", "beta_R"))
_REALIZATION_KEYS = frozenset(("gamma_L", "gamma_R", "fdelta", "P"))
# the fields of schemas/weight.schema.json (grading_text is optional) and
# of a block of schemas/grading.schema.json
_WEIGHT_KEYS = frozenset(("grading", "values"))
_BLOCK_KEYS = frozenset(("size", "p", "c"))


def _check_fields(what: str, data, want, optional=frozenset()):
    """Refuse a JSON value that is not an object with the fields `want`,
    and perhaps some of `optional`, and no others."""
    if not isinstance(data, dict):
        raise ValueError(f"malformed {what} JSON (not a JSON object)")
    keys = set(data)
    if not want <= keys <= want | optional:
        raise ValueError(
            f"malformed {what} JSON (missing fields {sorted(want - keys)}, "
            f"unknown fields {sorted(keys - want - optional)})"
        )


def _label_json(text: str):
    """(label, realization or None) from a label or diagram JSON argument.

    The object must carry exactly the label fields, or exactly the label
    and realization fields: a missing or unknown field is a usage error.
    """
    data = _load_json_arg(text)
    want = _LABEL_KEYS
    if isinstance(data, dict) and set(data) & _REALIZATION_KEYS:
        want = _LABEL_KEYS | _REALIZATION_KEYS
    _check_fields("label", data, want)
    label = _from_json("label", RepLabel.from_json, data)
    if want == _LABEL_KEYS:
        return label, None
    return label, _from_json("realization", Realization.from_json, data)


def _label_arg(text: str) -> RepLabel:
    return _label_json(text)[0]


def _grading_block(b) -> tuple:
    _check_fields("grading block", b, _BLOCK_KEYS)
    size, p, c = (wire_int(b[k]) for k in ("size", "p", "c"))
    if p not in (0, 1) or c not in (0, 1):
        raise ValueError(f"malformed grading block JSON (p and c are 0 or 1, got {b})")
    return size, p, c


def _weight_from_json(d) -> FundamentalWeight:
    _check_fields("weight", d, _WEIGHT_KEYS, optional={"grading_text"})
    if isinstance(d["grading"], str):
        g = parse_grading(d["grading"])
    else:
        _check_fields("grading", d["grading"], {"blocks"})
        g = Grading.from_blocks([_grading_block(b) for b in d["grading"]["blocks"]])
    if not isinstance(d["values"], list) or not isinstance(d.get("grading_text", ""), str):
        raise ValueError("malformed weight JSON (values is a list, grading_text a string)")
    return FundamentalWeight(g, tuple(rat(v) for v in d["values"]))


def _weight_arg(text: str) -> FundamentalWeight:
    return _from_json("weight", _weight_from_json, _load_json_arg(text))


def weight_to_json(w: FundamentalWeight) -> dict:
    blocks = [{"size": s, "p": p, "c": c} for (s, p, c) in w.grading.blocks()]
    out = {"grading": {"blocks": blocks}, "values": [rat_str(v) for v in w.values]}
    try:
        out["grading_text"] = render_grading(w.grading)
    except ValueError:
        pass
    return out


def _diagram_arg(text: str) -> NonCompactYoungDiagram:
    """The diagram of a diagram JSON, or the MinimalP realization of a label JSON."""
    label, realization = _label_json(text)
    if realization is None:
        return realize(label)
    return realize(label, strategy=realization)


def cmd_classify(args):
    label = _label_arg(args.label)
    verdict = classify_supqm(label)
    extra = ""
    if verdict.unitary and (label.p, label.q, label.m) == (2, 2, 4):
        d = realize(label)
        s, sbar, t, tbar = bps_type_22_4(d)
        if s or sbar:
            extra = f" ({rat_str(s)},{rat_str(sbar)})-BPS"
    if args.format == "json":
        print(json.dumps({"status": verdict.status, "witnesses": list(verdict.witnesses)}))
    else:
        print(str(verdict) + extra)
    return EXIT_OK if verdict.unitary else EXIT_NON_UNITARY


def cmd_weight(args):
    label = _label_arg(args.label)
    target = parse_grading(args.grading) if args.grading else None
    w = weight_from_label(label, target, allow_nonunitary=True)
    if args.format == "json":
        print(json.dumps(weight_to_json(w)))
    else:
        print("[" + ",".join(rat_str(v) for v in w.values) + "]")
    return EXIT_OK


def cmd_lattice(args):
    if args.weight is not None:
        w = _weight_arg(args.weight)
    else:
        label = _label_arg(args.label)
        w = weight_from_label(label, allow_nonunitary=True)
    lat = build_weight_lattice(w)
    rep = plaquette_check(lat)
    if args.format == "json":
        out = {
            "p": lat.p,
            "q": lat.q,
            "m": lat.m,
            "h_edges": {f"{k[0]},{k[1]}": rat_str(v) for k, v in sorted(lat.h_edges.items())},
            "v_edges": {f"{k[0]},{k[1]}": rat_str(v) for k, v in sorted(lat.v_edges.items())},
            "violations": [list(v) for v in rep.violations],
            "zeros": [list(z) for z in rep.zeros],
        }
        print(json.dumps(out))
    else:
        # rows printed top-to-bottom: c-even (upper) block first
        for row in reversed(rep.signs):
            print(" ".join(row))
        if rep.violations:
            print("violations:", " ".join(f"({r},{c})" for r, c in rep.violations))
        else:
            print("violations: none")
    return EXIT_OK if not rep.violations else EXIT_NON_UNITARY


def cmd_diagram(args):
    d = _diagram_arg(args.label)
    if args.format == "json":
        print(json.dumps(d.to_json()))
    elif args.format == "svg":
        print(render(d, "svg"))
    else:
        print(render(d, "ascii"))
    return EXIT_OK


def cmd_shorten(args):
    d = _diagram_arg(args.label)
    prof = shortening_profile_of(d)
    print("right:", " ".join("inf" if r is None else str(r) for r in prof.right))
    print("left: ", " ".join("inf" if r is None else str(r) for r in prof.left))
    if (d.label.p, d.label.q, d.label.m) == (2, 2, 4):
        try:
            print("DO:", str(dolan_osborn(d)))
        except ValueError as exc:
            print(f"DO: n/a ({exc})")
    return EXIT_OK


def cmd_do_label(args):
    d = _diagram_arg(args.label)
    print(str(dolan_osborn(d)))
    return EXIT_OK


def cmd_verify(args):
    from .oscillator.module import gram_positivity

    label = _label_arg(args.label)
    d = realize(label, allow_nonunitary=True)
    report = gram_positivity(d, cutoff=args.cutoff)
    verdict = classify_supqm(label)
    print(f"classify: {verdict.status}")
    print(
        f"gram: positive_definite={report.positive_definite} "
        f"negative={report.has_negative} kernel={report.kernel_total}"
    )
    flagged = [s for s in report.slices if s.kernel_dim or s.negative]
    for s in flagged[:8]:
        tag = "NEGATIVE" if s.negative else f"kernel {s.kernel_dim}"
        print(f"  slice {tuple(rat_str(x) for x in s.weight)} dim {s.dim}: {tag}")
    if len(flagged) > 8:
        print(f"  ... {len(flagged) - 8} more flagged slices")
    # truncation can hide a negative direction but cannot create one
    if verdict.unitary and report.has_negative:
        print("MISMATCH between classify and the oscillator oracle")
        return EXIT_INTERNAL
    if not verdict.unitary and not report.has_negative:
        print(f"oracle: no negative direction up to depth {args.cutoff}")
    return EXIT_OK if verdict.unitary else EXIT_NON_UNITARY


def cmd_tables(args):
    from . import tables

    gm, gn = tables.GOLDEN_M, tables.GOLDEN_N
    if args.check and (args.m not in (None, gm) or args.n not in (None, gn)):
        raise ValueError(f"--check compares with the goldens rendered at --m {gm} --n {gn}")
    text = tables.render_table(args.table, m=args.m, n=args.n)
    sys.stdout.write(text)
    if args.check:
        golden = os.path.join(os.path.dirname(__file__), "goldens", f"table{args.table}.txt")
        with open(golden) as fh:
            want = fh.read()
        if want != text:
            print("golden mismatch", file=sys.stderr)
            return EXIT_INTERNAL
    return EXIT_OK


def cmd_tensor(args):
    left = _diagram_arg(args.left)
    right = _diagram_arg(args.right)
    from .oscillator.tensor import tensor_decompose

    for lab in tensor_decompose(left, right):
        print(str(lab))
    return EXIT_OK


def cmd_selfcheck(args):
    from .partitions import partitions_bounded

    bad = 0
    checked = 0
    betas = [Fraction(k, 2) for k in range(0, 7)]
    for p, q, m in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (0, 2, 2), (2, 2, 1)]:
        for mu_l in partitions_bounded(max(p - 1, 0), 2):
            for tau in partitions_bounded(max(m - 1, 0), 2):
                for mu_r in partitions_bounded(max(q - 1, 0), 2):
                    for bl in betas if p else [Fraction(0)]:
                        for br in betas if q else [Fraction(0)]:
                            lab = RepLabel(p, q, m, mu_l, tau, mu_r, bl, br)
                            w = weight_from_label(lab, allow_nonunitary=True)
                            rep = plaquette_check(build_weight_lattice(w))
                            v = classify_supqm(lab)
                            checked += 1
                            if v.unitary != rep.ok or (
                                v.unitary and v.short != bool(rep.zeros)
                            ):
                                bad += 1
    print(f"plaquette/theorem agreement: {checked - bad}/{checked}")

    from .oscillator.capelli import capelli_identity_check

    cap = all(
        capelli_identity_check(P, g, 2)
        for P in (2,)
        for g in (Fraction(0), Fraction(1, 2))
    )
    print(f"capelli spot checks: {'ok' if cap else 'FAILED'}")

    from .oscillator.module import gram_positivity

    gram_ok = True
    for lab, expect in [
        (RepLabel(1, 1, 0, (), (), (), 0, Fraction(3, 2)), True),
        (RepLabel(2, 2, 0, (), (), (), 0, Fraction(1, 2)), False),
    ]:
        rep = gram_positivity(realize(lab, allow_nonunitary=True), cutoff=3)
        gram_ok &= (not rep.has_negative) == expect
    print(f"gram spot checks: {'ok' if gram_ok else 'FAILED'}")

    if bad or not cap or not gram_ok:
        return EXIT_INTERNAL
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="superdual",
        description="Exact unitarity classification for su(p,q|m) highest-weight representations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("classify", cmd_classify, help="unitarity verdict for a label")
    sp.add_argument("--label", required=True, help="label JSON (file or literal)")
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = add("weight", cmd_weight, help="fundamental weight of a label in a grading")
    sp.add_argument("--label", required=True)
    sp.add_argument("--grading", help='target grading, e.g. "su(2,2|4)"')
    sp.add_argument("--format", choices=["text", "json"], default="json")

    sp = add("lattice", cmd_lattice, help="plaquette sign matrix of a weight")
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("--weight", help="weight JSON (file or literal)")
    one.add_argument("--label", help="or a label JSON (file or literal)")
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = add("diagram", cmd_diagram, help="non-compact Young diagram of a label")
    sp.add_argument("--label", required=True, help="label or diagram JSON (file or literal)")
    sp.add_argument("--format", choices=["ascii", "svg", "json"], default="ascii")

    sp = add("shorten", cmd_shorten, help="monomial shortening profile")
    sp.add_argument("--label", required=True, help="label or diagram JSON (file or literal)")

    sp = add("do-label", cmd_do_label, help="Dolan-Osborn label (su(2,2|4))")
    sp.add_argument("--label", required=True, help="label or diagram JSON (file or literal)")

    sp = add("verify", cmd_verify, help="oscillator-module Gram verification")
    sp.add_argument("--label", required=True)
    sp.add_argument("--cutoff", type=int, default=3)

    sp = add("tables", cmd_tables, help="regenerate the multiplet tables")
    sp.add_argument("--table", type=int, required=True, choices=range(1, 8))
    sp.add_argument("--m", type=int, help="tables 6 and 7 only (default: the goldens' m)")
    sp.add_argument("--n", type=int, help="tables 2..7 only (default: the goldens' n)")
    sp.add_argument("--check", action="store_true", help="diff against the shipped golden")

    sp = add("tensor", cmd_tensor, help="decompose a K-module tensor product")
    sp.add_argument("--left", required=True, help="label or diagram JSON (file or literal)")
    sp.add_argument("--right", required=True, help="label or diagram JSON (file or literal)")

    add("selfcheck", cmd_selfcheck, help="run the bounded equivalence suites")
    return ap


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`superdual verify ... | head -5`): end
        # silently by SIGPIPE, as `cat` does (Python's "Note on SIGPIPE")
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGPIPE)
        return 128 + signal.SIGPIPE


def _run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # any other failure is a bug, never a usage error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
