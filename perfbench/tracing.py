"""Span tracing from the benchmark's own code, and the per-layer split.

:func:`install` replaces the repo's public entry points with timing
wrappers *where callers look the names up* (``repro.flow.nsflow``'s
imported ``build_dataflow_graph``, class attributes for methods), so no
source file changes. A span is ``(id, parent, name, start, end, op,
thread, tag)``; spans stay in memory until the run ends. A layer's self
time is the time its spans cover minus the time their child spans
cover. Untraced runs never call :func:`install`.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "Recorder", "Span", "TIME_LAYERS", "install", "layer_metrics",
    "self_times", "format_layer_table",
]


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int          # 0 for a root span of its thread
    name: str
    t0: float
    t1: float
    op: int
    thread: str
    tag: object = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(name, value, time, op)`` counter events.
        self.events: list[tuple[str, float, float, int]] = []
        #: Index of the op in progress; -1 while warming up.
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, tag=None):
        """``fn`` timed as a span named ``name``.

        ``tag(args, result)`` optionally labels the span (e.g. with the
        artifact key a load looked up and whether it hit).
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            op = rec.op
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append(Span(
                    sid, parent, name, t0, t1, op,
                    threading.current_thread().name,
                    None if tag is None else tag(args, result),
                ))

        return traced

    def count(self, name: str, value: float) -> None:
        self.events.append((name, value, time.perf_counter(), self.op))

    def counting(self, name: str, fn, measure):
        """``fn`` untimed, adding ``measure(args, result)`` to counter ``name``."""
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.count(name, measure(args, result))
            return result

        return counted


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: Stage counters the DSE engine records through ``record_stage``.
_STAGE_COUNTERS = {
    "phase1.sweep": "dse.geometries",
    "phase1.model_probes": "model.probes",
    "phase1.mf_screened": "dse.mf_screened",
    "phase1.mf_priced": "dse.mf_priced",
}


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points with ``rec``'s spans."""
    import repro.dse.accuracy as accuracy
    import repro.dse.engine as engine
    import repro.flow.nsflow as nsflow
    import repro.flow.sweep as sweep
    from repro.arch.controller import Controller
    from repro.flow.artifacts import ArtifactStore
    from repro.flow.ledger import RunLedger
    from repro.model.backend import EvaluationBackend
    from repro.workloads.base import NSAIWorkload

    targets = [
        (sweep, "build_workload", "workloads.build"),
        (accuracy, "deployed_workload", "workloads.build"),
        (nsflow, "build_dataflow_graph", "graph.build"),
        (nsflow, "fuse_loops", "graph.build"),
        (nsflow, "evaluate_accuracy", "dse.accuracy"),
        (engine.DseEngine, "explore", "dse.explore"),
        # The exhaustive and the multi-fidelity Phase I entry points, so
        # the layer is timed whichever search is the default.
        (engine.DseEngine, "evaluate", "dse.phase1"),
        (engine.DseEngine, "_evaluate_multifidelity", "dse.phase1"),
        (engine, "run_phase2", "dse.phase2"),
        (Controller, "schedule", "arch.schedule"),
        (nsflow, "estimate_resources", "arch.resources"),
        (nsflow, "generate_rtl_parameters", "arch.codegen"),
        (nsflow, "generate_host_code", "arch.codegen"),
        (nsflow.NSFlow, "compile", "flow.nsflow"),
        (RunLedger, "acquire", "flow.ledger.acquire"),
        (RunLedger, "append", "flow.ledger.append"),
        (ArtifactStore, "store", "flow.artifacts.store"),
        (ArtifactStore, "entry_digest", "flow.artifacts.digest"),
    ]
    targets += [(cls, "build_trace", "trace.build")
                for cls in _subclasses(NSAIWorkload) if "build_trace" in vars(cls)]
    targets += [(cls, "evaluate_design", "model.evaluate_design")
                for cls in _subclasses(EvaluationBackend)
                if "evaluate_design" in vars(cls)]
    for owner, attr, name in targets:
        if hasattr(owner, attr):
            setattr(owner, attr, rec.wrap(name, getattr(owner, attr)))
    ArtifactStore.load = rec.wrap(
        "flow.artifacts.load", ArtifactStore.load,
        tag=lambda args, result: (args[1], result is not None),
    )
    RunLedger.entries = rec.counting(
        "flow.ledger.rows_read", RunLedger.entries, lambda args, rows: len(rows)
    )
    record_stage = engine.record_stage

    def recording_stage(name: str, seconds: float = 0.0, items: int = 0) -> None:
        record_stage(name, seconds, items)
        if name in _STAGE_COUNTERS:
            rec.count(_STAGE_COUNTERS[name], items)

    engine.record_stage = recording_stage


#: Span layers in pipeline order; each reports self ms per op.
TIME_LAYERS = (
    "workloads.build", "trace.build", "graph.build", "dse.accuracy",
    "dse.phase1", "dse.phase2", "dse.explore", "model.evaluate_design",
    "arch.schedule", "arch.resources", "arch.codegen", "flow.nsflow",
    "flow.ledger.acquire", "flow.ledger.append", "flow.artifacts.load",
    "flow.artifacts.store", "flow.artifacts.digest", "flow.sweep", "flow.server",
)
#: Layers that wrap other traced layers are reported as self time.
_METRIC_NAMES = {
    "dse.explore": "dse.explore_self_ms",
    "flow.nsflow": "flow.nsflow.self_ms",
    "flow.sweep": "flow.sweep.self_ms",
    "flow.server": "flow.server.self_ms",
}


def _metric_name(layer: str) -> str:
    return _METRIC_NAMES.get(layer, f"{layer}_ms")


def layer_metrics(spans, events, keep_span, keep_event, n_ops: int,
                  op_seconds: float, residual: str | None):
    """Per-layer metrics over the kept spans/events of ``n_ops`` timed ops.

    ``op_seconds`` is the summed latency of those ops; the part no root
    span covers is charged to the ``residual`` layer (the code that
    called into the traced layers: ``run_sweep``'s own loop, the
    server's HTTP path). Returns ``(metrics, table rows)``.
    """
    self_s, roots = self_times(spans, keep_span)
    if residual is not None:
        self_s[residual] = self_s.get(residual, 0.0) + op_seconds - roots
    counts: dict[str, float] = defaultdict(float)
    for name, value, t, op in events:
        if keep_event(t, op):
            counts[name] += value
    metrics = {_metric_name(layer): self_s.get(layer, 0.0) / n_ops * 1e3
               for layer in TIME_LAYERS}
    rows = [(layer, self_s[layer] / n_ops * 1e3, self_s[layer] / op_seconds)
            for layer in TIME_LAYERS if layer in self_s]
    if residual is None:
        untraced = op_seconds - roots
        rows.append(("(untraced)", untraced / n_ops * 1e3, untraced / op_seconds))
    loads = [s.tag[1] for s in spans if s.name == "flow.artifacts.load" and keep_span(s)]
    geometries = counts["dse.geometries"]
    metrics.update({
        "dse.accuracy_executed": counts["dse.accuracy_executed"] / n_ops,
        "dse.geometries": geometries / n_ops,
        "dse.mf_priced_ratio": (
            counts["dse.mf_priced"] / counts["dse.mf_screened"]
            if counts["dse.mf_screened"] else 1.0 if geometries else 0.0
        ),
        "model.probes": counts["model.probes"] / n_ops,
        "flow.ledger.rows_read": counts["flow.ledger.rows_read"] / n_ops,
        "flow.artifacts.hit_ratio": sum(loads) / len(loads) if loads else 0.0,
    })
    return metrics, rows


def self_times(spans, keep) -> tuple[dict[str, float], float]:
    """Per-layer self seconds of the kept spans, and their root total."""
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            children[s.parent] += s.seconds
    by_layer: dict[str, float] = defaultdict(float)
    roots = 0.0
    for s in spans:
        if keep(s):
            by_layer[s.name] += s.seconds - children[s.sid]
            if not s.parent:
                roots += s.seconds
    return dict(by_layer), roots


def format_layer_table(title: str, rows: list[tuple[str, float, float]],
                       op_ms: float) -> str:
    """One row per layer with ms per op and share of op time."""
    width = max([len(r[0]) for r in rows] + [len("layer")])
    rule = f"+-{'-' * width}-+------------+---------+"
    out = [title, rule, f"| {'layer':<{width}} |      ms/op |   share |", rule]
    for name, ms, share in rows:
        out.append(f"| {name:<{width}} | {ms:10.3f} | {share:6.1%} |")
    out.append(rule)
    out.append(f"| {'op time':<{width}} | {op_ms:10.3f} | {1:6.1%} |")
    out.append(rule)
    return "\n".join(out)
