"""Dataflow-graph construction from a trace (paper Fig. 4 steps ①-③).

① *Critical path identification*: depth-first longest-path search through
the execution graph, weighted by each op's standalone work estimate, for a
single loop of the workload.

② *Inner-loop parallelism identification*: a breadth-first pass assigns
every node its dependency depth; non-critical nodes are attached to the
deepest critical-path station at or before their depth — their earliest
possible execution point.

③ *Inter-loop parallelism identification*: :func:`fuse_loops` replicates
the single-loop graph and chains each unit's nodes across loop copies, so
loop ``i+1``'s first NN layer can start as soon as loop ``i``'s last NN
layer frees the unit (while loop ``i``'s symbolic tail is still running).
"""

from __future__ import annotations

from ..errors import GraphError
from ..trace.opnode import ExecutionUnit, Trace, TraceOp
from .dataflow import DataflowGraph, DataflowNode

__all__ = ["build_dataflow_graph", "fuse_loops"]


def _work_estimate(op: TraceOp) -> float:
    """Standalone work weight used for critical-path extraction.

    FLOPs are the natural weight: the critical path of an NSAI loop is its
    layer chain (strict dependencies, heavy GEMMs), which FLOP weighting
    identifies without needing a hardware config.
    """
    if op.unit is ExecutionUnit.HOST:
        return 0.0
    return float(max(op.flops, 1))


def build_dataflow_graph(trace: Trace) -> DataflowGraph:
    """Build the single-loop dataflow graph for a trace."""
    graph = DataflowGraph(trace.workload)
    produced = {op.name for op in trace}
    for op in trace:
        graph.add_node(DataflowNode(name=op.name, op=op, loop_index=op.loop_index))
    for op in trace:
        for dep in op.inputs:
            if dep in produced:
                graph.add_edge(dep, op.name)
    graph.validate()
    topo = graph.topological_order()

    # ② BFS depths: longest dependency distance from any source.
    depth: dict[str, int] = {}
    for name in topo:
        preds = graph.predecessors(name)
        depth[name] = 0 if not preds else 1 + max(depth[p] for p in preds)
    for name, d in depth.items():
        graph.node(name).depth = d

    # ① DFS longest path by work weight (computed over the DAG in
    # topological order, which is the memoized form of the DFS search).
    dist: dict[str, float] = {}
    parent: dict[str, str | None] = {}
    for name in topo:
        w = _work_estimate(graph.node(name).op)
        preds = graph.predecessors(name)
        if not preds:
            dist[name] = w
            parent[name] = None
        else:
            best = max(preds, key=lambda p: dist[p])
            dist[name] = dist[best] + w
            parent[name] = best
    if not dist:
        raise GraphError("cannot build a dataflow graph from an empty trace")
    tail = max(dist, key=lambda n: dist[n])
    path: list[str] = []
    cur: str | None = tail
    while cur is not None:
        path.append(cur)
        cur = parent[cur]
    path.reverse()
    graph.critical_path = path
    cp_set = set(path)
    for name in path:
        graph.node(name).on_critical_path = True

    # ② attach non-critical nodes to their earliest critical-path station.
    cp_by_depth = sorted(path, key=lambda n: depth[n])
    cp_depths = [depth[n] for n in cp_by_depth]
    for name in topo:
        if name in cp_set:
            continue
        d = depth[name]
        # Deepest critical-path station with depth <= d.
        station = cp_by_depth[0]
        for cname, cd in zip(cp_by_depth, cp_depths):
            if cd <= d:
                station = cname
            else:
                break
        graph.node(station).attached.append(name)

    return graph


def fuse_loops(trace: Trace, n_loops: int) -> DataflowGraph:
    """Fuse ``n_loops`` back-to-back iterations into one dataflow graph.

    Within each execution unit, loop ``k``'s first node gains a dependency
    on loop ``k-1``'s last node of the same unit — the "attach the next
    loop at the time its compute unit is available" rule of Fig. 4 step ③.
    Cross-unit edges stay within each loop, so loop ``k``'s NN chain runs
    concurrently with loop ``k-1``'s symbolic tail.
    """
    if n_loops < 1:
        raise GraphError(f"n_loops must be >= 1, got {n_loops}")
    graph = DataflowGraph(trace.workload)
    produced = {op.name for op in trace}

    def loop_name(name: str, k: int) -> str:
        return name if k == 0 else f"{name}@loop{k}"

    unit_nodes: dict[ExecutionUnit, list[list[str]]] = {
        unit: [[] for _ in range(n_loops)] for unit in ExecutionUnit
    }
    for k in range(n_loops):
        for op in trace:
            node = DataflowNode(name=loop_name(op.name, k), op=op, loop_index=k)
            graph.add_node(node)
            unit_nodes[op.unit][k].append(node.name)
        for op in trace:
            for dep in op.inputs:
                if dep in produced:
                    graph.add_edge(loop_name(dep, k), loop_name(op.name, k))
    # Serialize each unit across loops (resource dependency).
    for unit, per_loop in unit_nodes.items():
        for k in range(1, n_loops):
            if per_loop[k - 1] and per_loop[k]:
                graph.add_edge(per_loop[k - 1][-1], per_loop[k][0])
    graph.validate()

    # Depth annotation over the fused graph.
    depth: dict[str, int] = {}
    for name in graph.topological_order():
        preds = graph.predecessors(name)
        depth[name] = 0 if not preds else 1 + max(depth[p] for p in preds)
        graph.node(name).depth = depth[name]
    return graph
