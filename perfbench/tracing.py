"""Spans around the calls into cupweb's layers, recorded from outside.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
wrapper, in every cupweb module that holds a reference to it, so calls
between modules (``transition_matrix`` -> ``resolve_full``, ``verify_psi``
-> ``inverse_matrix``, ...) are recorded too.  Calls a module makes to its
own private helpers are not.  A span is ``[name, start, end, parent]``;
spans stay in memory and are written out when the session ends.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

LAYERS = {
    "young": ("enumerate_syt", "build_tableau_graph"),
    "resolution": ("resolve_full", "witness_path", "check_witness"),
    "transition": (
        "transition_matrix", "inverse_matrix", "verify_unitriangular",
        "verify_positivity", "verify_psi", "order_conjecture_report",
    ),
    "actions": ("garnir_straighten", "act_web"),
}

# Inclusive seconds of the named spans.
TIME_METRICS = {
    "young.enumerate_s": ("young.enumerate_syt",),
    "young.graph_s": ("young.build_tableau_graph",),
    "resolution.resolve_s": ("resolution.resolve_full",),
    "resolution.witness_s": ("resolution.witness_path", "resolution.check_witness"),
    "transition.matrix_s": ("transition.transition_matrix",),
    "transition.inverse_s": ("transition.inverse_matrix",),
    "transition.unitriangular_s": ("transition.verify_unitriangular",),
    "transition.positivity_s": ("transition.verify_positivity",),
    "transition.psi_s": ("transition.verify_psi",),
    "transition.conjecture_s": ("transition.order_conjecture_report",),
    "actions.straighten_s": ("actions.garnir_straighten",),
    "actions.act_s": ("actions.act_web",),
}
# Self seconds: span time not covered by a traced child span.
SELF_METRICS = {
    "transition.matrix_self_s": ("transition.transition_matrix",),
    "cli.self_s": ("cli.main",),
}
COUNT_METRICS = (
    "young.vertices", "young.edges",
    "resolution.resolve_calls", "resolution.sinks",
    "resolution.witness_calls", "resolution.witness_moves",
    "transition.nonzeros", "transition.matrix_rss_mb",
    "actions.straighten_calls", "actions.terms",
)
UNITS = {
    "young.vertices": "count", "young.edges": "count",
    "resolution.resolve_calls": "count", "resolution.sinks": "count",
    "resolution.witness_calls": "count", "resolution.witness_moves": "count",
    "transition.nonzeros": "count", "transition.matrix_rss_mb": "MB",
    "actions.straighten_calls": "count", "actions.terms": "count",
    "cli.output_bytes": "bytes", "trace.spans": "count",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack: list[int] = []
        self._matrices: list = []

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][1] = start
                spans[index][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _hooks(self):
        counts = self.counts

        def graph(g):
            counts["young.vertices"] = max(counts["young.vertices"], len(g.vertices))
            counts["young.edges"] = max(counts["young.edges"], len(g.edges))

        def resolve(sinks):
            counts["resolution.resolve_calls"] += 1
            counts["resolution.sinks"] += len(sinks)

        def witness(script):
            counts["resolution.witness_calls"] += 1
            counts["resolution.witness_moves"] += len(script)

        def matrix(m):
            # Nonzeros are counted in summary(), outside the timed region.
            self._matrices.append(m)
            counts["transition.matrix_rss_mb"] = peak_rss_mb()

        def straighten(vec):
            counts["actions.straighten_calls"] += 1
            counts["actions.terms"] += len(vec.terms)

        return {
            "build_tableau_graph": graph,
            "resolve_full": resolve,
            "witness_path": witness,
            "transition_matrix": matrix,
            "garnir_straighten": straighten,
        }

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever cupweb binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "cupweb" or name.startswith("cupweb.")]
        hooks = self._hooks()
        for layer, names in LAYERS.items():
            home = sys.modules[f"cupweb.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", original, hooks.get(fname))
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, traced)

    def summary(self, scale: float = 1.0) -> dict:
        """Per-layer metrics of the spans so far; seconds are multiplied by ``scale``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time = end - start - child_time[k]
            own[name] = own.get(name, 0.0) + self_time
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_time
        out = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = scale * sum(total.get(n, 0.0) for n in names)
        for metric, names in SELF_METRICS.items():
            out[metric] = scale * sum(own.get(n, 0.0) for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = scale * layer_self.get(layer, 0.0)
        out.update(self.counts)
        out["transition.nonzeros"] = max(
            (sum(1 for row in m.entries for e in row if e) for m in self._matrices),
            default=0,
        )
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
