"""In-memory span recorder for the traced benchmark run.

Only the traced run imports this module.  It replaces layer functions of
`superdual` with wrappers that record a span (name, start, end, parent) per
call.  Every module attribute that the program looks the function up through
is patched, so `inner_product` is caught whether it is reached through
`superdual.oscillator.module`, `superdual.oscillator.inner` or the package
re-export.  Per-monomial hot functions (`generator_action`, `mul_a`, ...) are
deliberately not wrapped.

Spans stay in memory; `summary()` turns them into self times (span time minus
the time of its child spans) and counters, and `dump()` writes them out.
"""

from __future__ import annotations

import json
import sys
import time

_now = time.perf_counter_ns


def _cells(rec, result, args, kwargs):
    rec.count("lattice.cells", (result.p + result.q) * result.m)


def _k_orbit(rec, result, args, kwargs):
    rec.count("module.k_orbit_dim", len(result))


def _pbw(rec, result, args, kwargs):
    vectors = [vec for fam in result.values() for _tag, vec in fam]
    rec.count("module.pbw_vectors", len(vectors))
    rec.count("module.pbw_null", sum(1 for vec in vectors if not vec))


def _gram(rec, result, args, kwargs):
    d = len(args[0])
    rec.count("module.gram_entries", d * (d + 1) // 2)
    rec.count("module.gram_slices", 1)
    rec.maximum("module.gram_dim_max", d)


def _inner(rec, result, args, kwargs):
    rec.count("inner.calls", 1)


def _identity(rec, result, args, kwargs):
    rec.count("capelli.identity_items", 1)


def _product(rec, result, args, kwargs):
    rec.count("tensor.products", 1)


# (module, function, span name, counter hook); one span name per layer stage.
TARGETS = (
    ("superdual.labels", "classify_supqm", "labels.classify", None),
    ("superdual.labels", "weight_from_label", "labels.weight", None),
    ("superdual.lattice", "build_weight_lattice", "lattice.build", _cells),
    ("superdual.lattice", "plaquette_check", "lattice.plaquette", None),
    ("superdual.diagrams", "realize", "diagrams.realize", None),
    ("superdual.shortening", "shortening_profile", "shortening.profile", None),
    ("superdual.shortening", "shortening_profile_of", "shortening.profile", None),
    ("superdual.oscillator.module", "gram_positivity", "module.gram_positivity", None),
    ("superdual.oscillator.module", "build_u0", "module.build_u0", None),
    ("superdual.oscillator.module", "u0_k_basis", "module.k_orbit", _k_orbit),
    ("superdual.oscillator.module", "pbw_family", "module.pbw", _pbw),
    ("superdual.oscillator.module", "analyze_gram", "module.gram_elim", _gram),
    ("superdual.oscillator.inner", "inner_product", "inner.product", _inner),
    ("superdual.oscillator.capelli", "capelli_identity_check", "capelli.identity", _identity),
    ("superdual.oscillator.capelli", "delta_ladder_norms", "capelli.ladder", None),
    ("superdual.oscillator.tensor", "tensor_decompose", "tensor.decompose", None),
    ("superdual.oscillator.tensor", "k_hws_in_span", "tensor.k_hws", None),
    ("superdual.oscillator.tensor", "product_vector", "tensor.product", _product),
    ("superdual.tables", "render_table", "tables.render", None),
)


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_index] plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name, n):
        self.counters[name] = max(self.counters.get(name, 0), n)

    def open(self, name):
        span = [name, _now(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span[2] = _now()
        self._stack.pop()

    def wrap(self, name, fn, hook):
        rec = self

        def traced(*args, **kwargs):
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if hook is not None:
                hook(rec, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every `superdual` module attribute bound to a target function."""
        import importlib

        for module_name, _fn, _name, _hook in TARGETS:
            importlib.import_module(module_name)
        importlib.import_module("superdual.cli")
        loaded = [m for k, m in sys.modules.items() if k.split(".")[0] == "superdual"]
        for module_name, fn_name, span_name, hook in TARGETS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self.wrap(span_name, original, hook)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def summary(self):
        """Self seconds per span name, span counts and the counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s = {}
        calls = {}
        for (name, start, end, _parent), inner in zip(self.spans, child_ns):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner) / 1e9
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls, "counters": dict(self.counters)}

    def dump(self, path):
        """Write every span (columnar) and the summary to a JSON file."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        out = {
            "names": names,
            "spans": [[code[n], s, e, p] for n, s, e, p in self.spans],
            "summary": self.summary(),
        }
        with open(path, "w") as fh:
            json.dump(out, fh, separators=(",", ":"))


def merge(summaries):
    """Sum several `Recorder.summary()` dicts (one per CLI child)."""
    total = {"self_s": {}, "calls": {}, "counters": {}}
    for s in summaries:
        for key in ("self_s", "calls"):
            for name, v in s[key].items():
                total[key][name] = total[key].get(name, 0) + v
        for name, v in s["counters"].items():
            if name.endswith("_max"):
                total["counters"][name] = max(total["counters"].get(name, 0), v)
            else:
                total["counters"][name] = total["counters"].get(name, 0) + v
    return total
