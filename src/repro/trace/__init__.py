"""Execution-trace extraction (the frontend's input, paper Sec. V-B).

NSFlow "first extracts an execution trace from input program through
compilation" — Listing 1 shows a torch.fx-style trace of NVSA with neural
ops (``call_module[conv2d]``) and symbolic ops
(``call_function[nvsa.inv_binding_circular]``). This package provides the
equivalent: :class:`~repro.trace.opnode.TraceOp` records one operator with
its dependencies, shapes, lowering hints and cost counters;
:class:`~repro.trace.tracer.Tracer` builds traces; and
:mod:`~repro.trace.serialize` round-trips them through JSON and renders the
Listing-1-style text form.

Names resolve on first use (:mod:`repro._lazy`); a compile never
serializes a trace, so it never loads :mod:`.serialize`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "opnode": ["TraceOp", "Trace", "OpDomain", "ExecutionUnit", "VsaDims"],
    "tracer": ["Tracer"],
    "serialize": ["trace_to_json", "trace_from_json", "trace_to_listing"],
})
