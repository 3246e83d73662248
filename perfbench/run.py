"""superdual benchmark: one command, seeded workloads, correctness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/superdual`.  The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

--trace 0  end-to-end metrics.  `setup_s` is the median over SETUP_REPEATS
           fresh interpreters of the time from process start to the first
           timed item (superdual imports plus input generation); the other
           metrics come from one more fresh interpreter that runs the timed
           phase for S seconds.  Times are reference-normalised against the
           machine's momentary speed (calibrate.py).
--trace 1  per-layer metrics from a run with span-recording wrappers, then an
           untraced replay of the traced run's first half, whose wall time
           gives `trace.overhead_share`.

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_MS, reference_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("theorem-sweep", "oracle-verify", "capelli-ladder", "cli-mixed")
SETUP_REPEATS = 5
DEADLINE_S = 170  # every run ends well inside 180 s

UNITS = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


def _run(argv, env, timeout):
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(argv[1:4])} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.monotonic()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "superdual", "__init__.py")):
        print(f"error: no superdual sources under {src}", file=sys.stderr)
        return 2
    # the build: byte-compile the sources once, outside every timed region
    if not compileall.compile_dir(os.path.join(src, "superdual"), quiet=1):
        print("error: superdual sources do not compile", file=sys.stderr)
        return 2

    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    record = os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")

    def left():
        return DEADLINE_S - (time.monotonic() - t_begin)

    try:
        if args.trace == 0:
            setups = []  # each normalised by the reference times around it
            for _ in range(SETUP_REPEATS):
                before = reference_ms()
                t0 = time.perf_counter()
                _run(worker + ["--setup-only"], env, left())
                raw = time.perf_counter() - t0
                setups.append(raw * REFERENCE_MS * 2 / (before + reference_ms()))
            res = json.loads(_run(worker + ["--record", record], env, left()).splitlines()[-1])
            metrics = {"setup_s": statistics.median(setups)}
            metrics.update({k: res[k] for k in UNITS if k != "setup_s"})
            units = UNITS
            correct = res["failed"] == 0
        else:
            res = json.loads(_run(worker + ["--trace", "1", "--record", record], env,
                                  left()).splitlines()[-1])
            replay = json.loads(_run(worker + ["--items", str(res["half_items"])], env,
                                     left()).splitlines()[-1])
            metrics = dict(res["per_layer"])
            metrics["trace.overhead_share"] = (res["half_wall_s"] - replay["wall_s"]) / replay["wall_s"]
            units = {k: per_layer_unit(k) for k in metrics}
            correct = res["failed"] == 0 and replay["failed"] == 0
            check = res.get("selfcheck")
            if check is not None:
                print(f"trace self-check: inner.calls {check['inner_calls']} "
                      f"expected {check['expected']} -> {'ok' if check['ok'] else 'MISMATCH'}")
                correct = correct and check["ok"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n = res["attempted"]
    print(f"{args.workload} seed {args.seed}: {n} items in {res['raw_wall_s']:.2f} s "
          f"(reference loop {res['calibration_ms']:.2f} ms, nominal {REFERENCE_MS} ms), "
          f"{res['beyond_p90']} beyond p90, failed_share {res['failed'] / n:.4g}, "
          f"diagrams.refused {res['refused']}, record {os.path.relpath(record, ROOT)}")
    for failure in res["first_failures"]:
        print(f"  failed: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
