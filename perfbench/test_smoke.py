"""Smoke run of the benchmark: `python3 -m pytest -q perfbench/test_smoke.py`.

Checks that every metric the benchmark defines is emitted with a unit, and
that a deliberately wrong expectation is counted as a failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "items_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}
PER_LAYER = {
    "labels.classify_s", "labels.weight_s",
    "lattice.build_s", "lattice.cells", "lattice.plaquette_s",
    "diagrams.realize_s", "diagrams.refused",
    "shortening.profile_s",
    "module.build_u0_s", "module.k_orbit_s", "module.k_orbit_dim", "module.pbw_s",
    "module.pbw_vectors", "module.pbw_null_share", "module.gram_elim_s",
    "module.gram_entries", "module.gram_dim_max", "module.gram_slices",
    "inner.calls", "inner.s", "inner.block_key_repeat_share",
    "capelli.identity_s", "capelli.identity_items", "capelli.ladder_s",
    "tensor.decompose_s", "tensor.k_hws_s", "tensor.products",
    "tables.render_s",
    "cli.import_s", "cli.classify_p50_ms", "cli.lattice_p50_ms", "cli.shorten_p50_ms",
    "cli.verify_p50_ms", "cli.tables_p50_ms", "cli.tensor_p50_ms",
    "trace.overhead_share", "trace.items",
}


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_every_metric_is_emitted_with_its_unit():
    for trace, names, kind in ((0, END_TO_END, "end_to_end"), (1, PER_LAYER, "per_layer")):
        out = _bench("theorem-sweep", trace)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        declared = _declared(kind)
        assert set(out["metrics"]) == names == set(declared)
        for name, metric in out["metrics"].items():
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))


def test_wrong_expectation_counts_as_failed(monkeypatch, capsys):
    right = workloads._expect_kernel
    monkeypatch.setattr(workloads, "_expect_kernel", lambda lab: not right(lab))
    worker.main(["--workload", "oracle-verify", "--seed", "1", "--seconds", "1",
                 "--items", "20"])
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert res["attempted"] == 20
    assert res["failed"] > 0
    assert all(f.startswith("mismatch: kernel") for f in res["first_failures"])
