"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the entry points of each grassvar layer by
rebinding every module attribute that refers to the original function (the
defining module, every grassvar module that imported it, and the package
namespace), so calls between layers and the benchmark's own calls pass
through the wrapper.  Each call records a span (name, start, end, parent) in
memory; `metrics()` derives per-layer self times and counts from the spans
after the run and `write()` saves them.  The arguments and results needed
for the counters are kept by reference and read only after the run, so the
wrappers themselves do no work beyond the clock and the span list.

An entry point that no longer exists is reported in `absent` and skipped.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("fp", "poly", "rankvariety", "homology", "grassmann", "modules")

# (layer, defining module, function name) for every wrapped entry point.
ENTRY_POINTS = (
    ("fp", "grassvar.fp", "_rref"),
    ("fp", "grassvar.fp", "_kernel_free"),
    ("fp", "grassvar.fp", "_matmul"),
    ("poly", "grassvar.poly", "buchberger_reduced"),
    ("poly", "grassvar.poly", "normal_form"),
    ("poly", "grassvar.poly", "eliminate"),
    ("poly", "grassvar.poly", "saturate"),
    ("poly", "grassvar.poly", "saturate_wrt_ideal"),
    ("poly", "grassvar.poly", "ideal_intersect"),
    ("poly", "grassvar.poly", "ideal_dimension"),
    ("poly", "grassvar.poly", "radical_member"),
    ("rankvariety", "grassvar.rankvariety", "rank_variety_ideal"),
    ("rankvariety", "grassvar.rankvariety", "pair_variety_ideal"),
    ("rankvariety", "grassvar.rankvariety", "point_in_rank_variety"),
    ("homology", "grassvar.homology", "resolve"),
    ("homology", "grassvar.homology", "ext_dims"),
    ("homology", "grassvar.homology", "ext_eventually_zero"),
    ("grassmann", "grassvar.grassmann", "higher_variety_ideal"),
    ("grassmann", "grassvar.grassmann", "project_incidence"),
    ("grassmann", "grassvar.grassmann", "incidence_ideal"),
    ("grassmann", "grassvar.grassmann", "variety_dim_projective"),
    ("grassmann", "grassvar.grassmann", "oracle_membership"),
    ("grassmann", "grassvar.grassmann", "enumerate_subspaces"),
    ("grassmann", "grassvar.grassmann", "pluecker_embed"),
    ("grassmann", "grassvar.grassmann", "point_on_variety"),
    ("modules", "grassvar.modules", "validate"),
    ("modules", "grassvar.modules", "restrict_to_subspace"),
    ("modules", "grassvar.modules", "action_of"),
    ("modules", "grassvar.modules", "quotient_by_linear_forms"),
    ("modules", "grassvar.modules", "regular_module"),
    ("modules", "grassvar.modules", "direct_sum"),
    ("modules", "grassvar.modules", "dual"),
)

# Arguments kept for the counters: name -> indices of positional arguments.
_KEEP_ARGS = {
    "buchberger_reduced": (0,),
    "rank_variety_ideal": (0,),
    "resolve": (0, 1),
    "project_incidence": (0, 1),
    "validate": (0,),
}
_KEEP_RESULT = {"buchberger_reduced", "rank_variety_ideal", "resolve", "enumerate_subspaces"}

# The per-layer metrics, in report order, with their units.
METRICS = {
    "fp.self_s": "s",
    "fp.rref_calls": "count",
    "fp.rref_cells": "count",
    "fp.rref_max_cells": "count",
    "fp.rref_gf2_s": "s",
    "fp.rref_modp_s": "s",
    "fp.kernel_calls": "count",
    "fp.kernel_s": "s",
    "fp.matmul_calls": "count",
    "fp.matmul_s": "s",
    "poly.self_s": "s",
    "poly.gb_calls": "count",
    "poly.gb_s": "s",
    "poly.gb_in_gens": "count",
    "poly.gb_out_gens": "count",
    "poly.gb_max_degree": "count",
    "poly.gb_max_vars": "count",
    "poly.gb_distinct_ratio": "ratio",
    "poly.eliminate_calls": "count",
    "poly.saturate_calls": "count",
    "poly.intersect_calls": "count",
    "poly.dimension_calls": "count",
    "rankvariety.self_s": "s",
    "rankvariety.calls": "count",
    "rankvariety.pair_calls": "count",
    "rankvariety.minors": "count",
    "rankvariety.distinct_ratio": "ratio",
    "homology.self_s": "s",
    "homology.resolve_calls": "count",
    "homology.resolve_s": "s",
    "homology.betti_sum": "count",
    "homology.betti_max": "count",
    "homology.ext_calls": "count",
    "homology.ext_s": "s",
    "homology.window_calls": "count",
    "homology.resolve_distinct_ratio": "ratio",
    "grassmann.self_s": "s",
    "grassmann.project_calls": "count",
    "grassmann.project_s": "s",
    "grassmann.project_distinct_ratio": "ratio",
    "grassmann.oracle_calls": "count",
    "grassmann.subspaces": "count",
    "grassmann.embed_calls": "count",
    "modules.self_s": "s",
    "modules.validate_calls": "count",
    "modules.validate_distinct_ratio": "ratio",
    "modules.restrict_calls": "count",
}


class Tracer:
    """Spans of the wrapped calls of one traced round."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.payload: dict[int, tuple] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._layer_of: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, payload = self.spans, self._stack, self.payload
        keep_args = _KEEP_ARGS.get(name)
        keep_result = name in _KEEP_RESULT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "_rref":
                payload[idx] = (args[0].shape, args[1] if len(args) > 1 else kwargs.get("p"))
            elif keep_args is not None or keep_result:
                kept = tuple(args[i] if i < len(args) else None for i in keep_args or ())
                payload[idx] = (kept, result if keep_result else None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "grassvar" or n.startswith("grassvar.")]
        for layer, home, name in ENTRY_POINTS:
            self._layer_of[name] = layer
            original = getattr(sys.modules.get(home), name, None)
            if original is None:
                self.absent.append(f"{home}.{name}")
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def metrics(self, scale=lambda t: 1.0) -> dict[str, float]:
        """Per-layer metrics; a span's time is multiplied by `scale(start)`,
        the speed normalisation of the operation it belongs to."""
        spans, layer_of = self.spans, self._layer_of
        out: dict[str, float] = {}
        self_s = defaultdict(float)
        count = defaultdict(int)
        total = defaultdict(float)
        for name, start, end, parent in spans:
            dur = (end - start) * scale(start)
            count[name] += 1
            total[name] += dur
            layer = layer_of[name]
            parent_layer = layer_of[spans[parent][0]] if parent >= 0 else None
            if parent_layer == layer:
                continue
            # a layer entry: its time counts for its layer and not for the
            # layer that called it
            self_s[layer] += dur
            if parent_layer is not None:
                self_s[parent_layer] -= dur
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]

        def kept(name: str) -> list:
            """Payloads of the calls of `name` that returned."""
            return [self.payload[i] for i, s in enumerate(spans) if s[0] == name and i in self.payload]

        rref = [
            (*self.payload[i], (s[2] - s[1]) * scale(s[1]))
            for i, s in enumerate(spans)
            if s[0] == "_rref" and i in self.payload
        ]
        cells = [shape[0] * shape[1] for shape, _, _ in rref]
        out["fp.rref_calls"] = count["_rref"]
        out["fp.rref_cells"] = sum(cells)
        out["fp.rref_max_cells"] = max(cells, default=0)
        out["fp.rref_gf2_s"] = sum(dur for _, p, dur in rref if p == 2)
        out["fp.rref_modp_s"] = sum(dur for _, p, dur in rref if p != 2)
        out["fp.kernel_calls"] = count["_kernel_free"]
        out["fp.kernel_s"] = total["_kernel_free"]
        out["fp.matmul_calls"] = count["_matmul"]
        out["fp.matmul_s"] = total["_matmul"]

        gb = kept("buchberger_reduced")
        out["poly.gb_calls"] = count["buchberger_reduced"]
        out["poly.gb_s"] = total["buchberger_reduced"]
        out["poly.gb_in_gens"] = sum(len(args[0].gens) for args, _ in gb)
        out["poly.gb_out_gens"] = sum(len(res.gens) for _, res in gb)
        out["poly.gb_max_degree"] = max((g.total_degree() for _, res in gb for g in res.gens), default=0)
        out["poly.gb_max_vars"] = max((args[0].ring.nvars for args, _ in gb), default=0)
        out["poly.gb_distinct_ratio"] = _ratio({_ideal_key(args[0]) for args, _ in gb}, len(gb))
        out["poly.eliminate_calls"] = count["eliminate"]
        out["poly.saturate_calls"] = count["saturate"] + count["saturate_wrt_ideal"]
        out["poly.intersect_calls"] = count["ideal_intersect"]
        out["poly.dimension_calls"] = count["ideal_dimension"]

        rv = kept("rank_variety_ideal")
        out["rankvariety.calls"] = count["rank_variety_ideal"]
        out["rankvariety.pair_calls"] = count["pair_variety_ideal"]
        out["rankvariety.minors"] = sum(len(res.raw.gens) for _, res in rv)
        out["rankvariety.distinct_ratio"] = _ratio({_module_key(args[0]) for args, _ in rv}, len(rv))

        res = kept("resolve")
        out["homology.resolve_calls"] = count["resolve"]
        out["homology.resolve_s"] = total["resolve"]
        out["homology.betti_sum"] = sum(sum(r.betti) for _, r in res)
        out["homology.betti_max"] = max((max(r.betti) for _, r in res), default=0)
        out["homology.ext_calls"] = count["ext_dims"]
        out["homology.ext_s"] = total["ext_dims"]
        out["homology.window_calls"] = count["ext_eventually_zero"]
        out["homology.resolve_distinct_ratio"] = _ratio({(_module_key(args[0]), args[1]) for args, _ in res}, len(res))

        proj = kept("project_incidence")
        out["grassmann.project_calls"] = count["project_incidence"]
        out["grassmann.project_s"] = total["project_incidence"]
        out["grassmann.project_distinct_ratio"] = _ratio({(_ideal_key(args[0].gb), args[1]) for args, _ in proj}, len(proj))
        out["grassmann.oracle_calls"] = count["oracle_membership"]
        out["grassmann.subspaces"] = sum(len(subs) for _, subs in kept("enumerate_subspaces"))
        out["grassmann.embed_calls"] = count["pluecker_embed"]

        val = kept("validate")
        out["modules.validate_calls"] = count["validate"]
        out["modules.validate_distinct_ratio"] = _ratio({_module_key(args[0]) for args, _ in val}, len(val))
        out["modules.restrict_calls"] = count["restrict_to_subspace"]
        return {name: out[name] for name in METRICS}


def _ratio(distinct: set, calls: int) -> float:
    """Distinct inputs per call; 0 when the layer was not called."""
    return len(distinct) / calls if calls else 0.0


def _ideal_key(I) -> tuple:
    return (I.ring.names, I.ring.order, tuple(g.terms for g in I.gens))


def _module_key(M) -> tuple:
    return (M.p, M.c, M.n, tuple(a.array.tobytes() for a in M.actions))
