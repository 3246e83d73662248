"""Run one workload in this (fresh) interpreter and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only] [--items K] [--record PATH]

run.py starts it with PYTHONPATH pointing at the checkout's `src`.  Set-up
(the superdual imports and the seeded input generation) happens before the
timed phase, with no warm-up pass: module caches start empty and fill only as
the run's own inputs share keys.  The timed phase is a closed loop: the next
item starts when the previous one has returned.  It stops at the first round
boundary after S reference-normalised seconds (see workloads._rounds and
calibrate.py), or after exactly K items with --items (used to replay a
traced run's prefix untraced).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import tempfile
import time

import workloads as W
from calibrate import Calibrator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RAW_CAP = 1.3  # wall-time cap on a run, as a multiple of --seconds
CLI_CMDS = ("classify", "lattice", "shorten", "verify", "tables", "tensor")


def _git_commit():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentiles(latencies_ms):
    lat = sorted(latencies_ms)
    p50 = statistics.median(lat)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    return p50, p90, sum(1 for x in lat if x > p90)


def _block_key_repeat_share(props):
    seen, repeats = set(), 0
    for pr in props:
        keys = [tuple(k) for k in pr.get("block_keys", ())]
        if any(k in seen for k in keys):
            repeats += 1
        seen.update(keys)
    return repeats / len(props)


def _per_layer(summary, n, factor, refused, props, latencies, commands):
    """Per-layer metrics; times are normalised by the run's median factor."""
    self_s, counters = summary["self_s"], summary["counters"]

    def per_item(span):
        return self_s.get(span, 0.0) * factor / n

    vectors = counters.get("module.pbw_vectors", 0)
    out = {
        "labels.classify_s": per_item("labels.classify"),
        "labels.weight_s": per_item("labels.weight"),
        "lattice.build_s": per_item("lattice.build"),
        "lattice.cells": counters.get("lattice.cells", 0),
        "lattice.plaquette_s": per_item("lattice.plaquette"),
        "diagrams.realize_s": per_item("diagrams.realize"),
        "diagrams.refused": refused,
        "shortening.profile_s": per_item("shortening.profile"),
        "module.build_u0_s": per_item("module.build_u0"),
        "module.k_orbit_s": per_item("module.k_orbit"),
        "module.k_orbit_dim": counters.get("module.k_orbit_dim", 0),
        "module.pbw_s": per_item("module.pbw"),
        "module.pbw_vectors": vectors,
        "module.pbw_null_share": counters.get("module.pbw_null", 0) / vectors if vectors else 0.0,
        "module.gram_elim_s": per_item("module.gram_elim"),
        "module.gram_entries": counters.get("module.gram_entries", 0),
        "module.gram_dim_max": counters.get("module.gram_dim_max", 0),
        "module.gram_slices": counters.get("module.gram_slices", 0),
        "inner.calls": counters.get("inner.calls", 0),
        "inner.s": per_item("inner.product"),
        "inner.block_key_repeat_share": _block_key_repeat_share(props),
        "capelli.identity_s": per_item("capelli.identity"),
        "capelli.identity_items": counters.get("capelli.identity_items", 0),
        "capelli.ladder_s": per_item("capelli.ladder"),
        "tensor.decompose_s": per_item("tensor.decompose"),
        "tensor.k_hws_s": per_item("tensor.k_hws"),
        "tensor.products": counters.get("tensor.products", 0),
        "tables.render_s": per_item("tables.render"),
        "cli.import_s": counters.get("cli.import_s", 0.0) * factor / n,
        "trace.items": n,
    }
    for cmd in CLI_CMDS:
        lat = [t for t, c in zip(latencies, commands) if c == cmd]
        out[f"cli.{cmd}_p50_ms"] = statistics.median(lat) if lat else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--items", type=int)
    ap.add_argument("--record")
    args = ap.parse_args(argv)

    W.load()
    cls = W.WORKLOADS[args.workload]
    wl = cls(ROOT) if cls is W.CliMixed else cls()
    rounds = wl.generate(random.Random(args.seed), args.seconds)
    if args.setup_only:
        os._exit(0)

    rec = None
    tmp = None
    child_summaries = []
    if args.trace:
        from spans import Recorder

        rec = Recorder()
        rec.install()
        if cls is W.CliMixed:
            tmp = tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "perfbench", "runs"))
            wl.trace_dir = tmp.name

    outcomes, latencies, raw_ms, factors, ends = [], [], [], [], []
    expected_inner = 0
    items, starts = [], set()
    for rnd in rounds:
        starts.add(len(items))
        items += rnd
    limit = args.items if args.items is not None else len(items)
    cal = Calibrator()
    now = time.perf_counter
    t_start = now()
    paused = 0.0  # calibration time, left out of every timing
    wall = 0.0  # reference-normalised seconds of the timed phase
    for i, item in enumerate(items[:limit]):
        # the budget is in normalised seconds, so a slow phase of the machine
        # does not cut a run short by whole rounds; RAW_CAP bounds the wall time
        if args.items is None and i in starts and (
                wall >= args.seconds or now() - t_start - paused >= RAW_CAP * args.seconds):
            break
        sampled = cal.maybe_sample(now())
        if sampled:
            paused += sampled
            mark = now()
        factor = cal.factor()
        span = rec.open("item") if rec else None
        t0 = now()
        try:
            outcome = wl.run(item)
        except Exception as exc:  # every exception in a timed call is a failure
            outcome = f"exception: {type(exc).__name__}: {exc}"
        t1 = now()
        if span is not None:
            rec.close(span)
            if cls is W.OracleVerify and wl.last_report is not None:
                expected_inner += wl.expected_inner_calls(wl.last_report)
            if cls is W.CliMixed and os.path.exists(wl.last_trace):
                with open(wl.last_trace) as fh:
                    child_summaries.append(json.load(fh))
                os.remove(wl.last_trace)
        outcomes.append(outcome)
        raw_ms.append((t1 - t0) * 1e3)
        factors.append(factor)
        latencies.append((t1 - t0) * 1e3 * factor)
        t_end = now()
        wall += (t_end - mark) * factor
        mark = t_end
        ends.append(wall)
    raw_wall = now() - t_start - paused

    who = resource.RUSAGE_CHILDREN if cls is W.CliMixed else resource.RUSAGE_SELF
    n = len(outcomes)
    failed = [o for o in outcomes if o not in (W.OK, W.REFUSED)]
    refused = outcomes.count(W.REFUSED)
    p50, p90, beyond = _percentiles(latencies)
    half = max(1, sum(1 for e in ends if e <= wall / 2))
    result = {
        "attempted": n,
        "failed": len(failed),
        "refused": refused,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "calibration_ms": statistics.median(cal.samples),
        "half_items": half,
        "half_wall_s": ends[half - 1],
        "items_per_s": n / wall,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "beyond_p90": beyond,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "first_failures": failed[:5],
    }

    if rec is not None:
        from spans import merge

        summary = merge([rec.summary()] + child_summaries)
        if tmp is not None:
            tmp.cleanup()
    if args.record or rec is not None:
        props = [wl.props(item) for item in items[:n]]
    if rec is not None:
        commands = [p.get("command") for p in props]
        result["per_layer"] = _per_layer(summary, n, statistics.median(factors), refused,
                                         props, latencies, commands)
        if cls is W.OracleVerify:
            got = summary["counters"].get("inner.calls", 0)
            result["selfcheck"] = {"inner_calls": got, "expected": expected_inner,
                                   "ok": got == expected_inner}
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(), "result": result,
            "calibration_ms": cal.samples,
            "items": [dict(p, latency_ms=t, raw_ms=r, factor=f, outcome=o)
                      for p, t, r, f, o in zip(props, latencies, raw_ms, factors, outcomes)],
        }
        if rec is not None:
            rec.dump(args.record + ".spans")
        with open(args.record, "w") as fh:
            json.dump(record, fh, default=str)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
