"""Dataflow-graph generation (paper Sec. V-B, Fig. 4).

The Design Architecture Generator turns an execution trace into a
*dataflow graph*: ① DFS identifies the critical path of a single loop,
② BFS attaches same-depth operations to their critical-path stations
(inner-loop parallelism), ③ the next loop's graph is fused in at the point
its first compute unit frees (inter-loop parallelism), ④⑤ runtime
functions and memory footprints are attached per node.

Names resolve on first use (:mod:`repro._lazy`); a compile never runs
:mod:`.analysis`, so it never loads it.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "dataflow": ["DataflowGraph", "DataflowNode", "NodeKind"],
    "build": ["build_dataflow_graph", "fuse_loops"],
    "analysis": ["GraphStats", "graph_stats"],
})
