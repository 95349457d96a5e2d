"""Dataflow-graph data model.

A :class:`DataflowGraph` is the frontend's working representation: a DAG of
:class:`DataflowNode` over the trace ops, with the critical path marked and
same-depth parallel ops *attached* to critical-path stations (paper Fig. 4
steps 1-2). The DSE consumes its ``layer_nodes`` (``R_l``) and
``vsa_nodes`` (``R_v``) orderings; the backend controller schedules the
full graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator

from ..errors import GraphError
from ..nn.gemm import GemmDims
from ..trace.opnode import ExecutionUnit, OpDomain, TraceOp, VsaDims

__all__ = ["NodeKind", "DataflowNode", "DataflowGraph"]


#: Mapping from execution unit to the DSE's node classification.
NodeKind = ExecutionUnit


@dataclass
class DataflowNode:
    """One operator in the dataflow graph."""

    name: str
    op: TraceOp
    depth: int = 0
    on_critical_path: bool = False
    #: Names of non-critical ops attached to this station (BFS step ②).
    attached: list[str] = field(default_factory=list)
    loop_index: int = 0

    @property
    def unit(self) -> ExecutionUnit:
        return self.op.unit

    @property
    def domain(self) -> OpDomain:
        return self.op.domain

    @property
    def gemm(self) -> GemmDims | None:
        return self.op.gemm

    @property
    def vsa(self) -> VsaDims | None:
        return self.op.vsa

    @property
    def output_bytes(self) -> int:
        return self.op.bytes_written


class DataflowGraph:
    """DAG over trace ops with critical-path and parallelism annotations.

    Adjacency lives in insertion-ordered successor/predecessor dicts. The
    topological order and the per-unit node lists are derived on first
    read and dropped by :meth:`add_node`/:meth:`add_edge`.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self._nodes: dict[str, DataflowNode] = {}
        # Dicts used as ordered sets: a repeated edge is a no-op and
        # keeps its first position.
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}
        self._views: tuple[tuple[str, ...], dict[ExecutionUnit, tuple]] | None = None
        self.critical_path: list[str] = []

    # -- construction (used by graph.build) -----------------------------------

    def add_node(self, node: DataflowNode) -> None:
        if node.name in self._nodes:
            raise GraphError(f"duplicate dataflow node {node.name!r}")
        self._nodes[node.name] = node
        self._succ[node.name] = {}
        self._pred[node.name] = {}
        self._views = None

    def add_edge(self, producer: str, consumer: str) -> None:
        if producer not in self._nodes or consumer not in self._nodes:
            raise GraphError(f"edge references unknown node: {producer} -> {consumer}")
        self._succ[producer][consumer] = None
        self._pred[consumer][producer] = None
        self._views = None

    def validate(self) -> None:
        """Check the graph is a DAG (the controller depends on this)."""
        self._derived()

    # -- access ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[DataflowNode]:
        return iter(self._nodes.values())

    def node(self, name: str) -> DataflowNode:
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise GraphError(f"no dataflow node named {name!r}") from exc

    def predecessors(self, name: str) -> list[str]:
        """Producers of ``name``, in edge-insertion order."""
        self.node(name)  # GraphError for an unknown name
        return list(self._pred[name])

    def successors(self, name: str) -> list[str]:
        """Consumers of ``name``, in edge-insertion order."""
        self.node(name)
        return list(self._succ[name])

    def edges(self) -> list[tuple[str, str]]:
        """Every ``(producer, consumer)`` pair, by producer insertion order."""
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def topological_order(self) -> list[str]:
        return list(self._derived()[0])

    def _derived(self) -> tuple[tuple[str, ...], dict[ExecutionUnit, tuple]]:
        """The topological order and per-unit node lists, cached until mutated.

        Kahn's algorithm one generation at a time: the zero-in-degree
        nodes in insertion order are the first generation, and each
        generation's nodes release their successors, in edge-insertion
        order, into the next. This is the order networkx 3.x's
        ``topological_sort`` yields, which the reports and goldens were
        recorded under.
        """
        if self._views is None:
            indegree = {v: len(p) for v, p in self._pred.items() if p}
            generation = [v for v, p in self._pred.items() if not p]
            order: list[str] = []
            while generation:
                order += generation
                released = []
                for u in generation:
                    for v in self._succ[u]:
                        indegree[v] -= 1
                        if not indegree[v]:
                            released.append(v)
                            del indegree[v]
                generation = released
            if indegree:
                raise GraphError(
                    "dataflow graph has a cycle; nodes on or after it: "
                    f"{sorted(indegree)}"
                )
            by_unit: dict[ExecutionUnit, list[DataflowNode]] = {u: [] for u in ExecutionUnit}
            for name in order:
                by_unit[self._nodes[name].unit].append(self._nodes[name])
            self._views = (tuple(order), {u: tuple(n) for u, n in by_unit.items()})
        return self._views

    # -- DSE-facing selections -------------------------------------------------------

    def nodes_by_unit(self, unit: ExecutionUnit) -> list[DataflowNode]:
        """Nodes of one execution unit, in topological order."""
        return list(self._derived()[1][unit])

    @property
    def layer_nodes(self) -> list[DataflowNode]:
        """``R_l``: the GEMM layer nodes (paper Eq. 2)."""
        return self.nodes_by_unit(ExecutionUnit.ARRAY_NN)

    @property
    def vsa_nodes(self) -> list[DataflowNode]:
        """``R_v``: the VSA circular-convolution nodes (paper Eq. 5)."""
        return self.nodes_by_unit(ExecutionUnit.ARRAY_VSA)

    @property
    def simd_nodes(self) -> list[DataflowNode]:
        return self.nodes_by_unit(ExecutionUnit.SIMD)

    def vsa_span_for_layer(self, layer_name: str) -> tuple[int, int]:
        """VSA-node index range [j', j'') concurrent with a layer node.

        Algorithm 1 Phase II needs, for each layer ``i``, the VSA nodes
        whose execution overlaps that layer. In the fused-loop steady
        state (Fig. 4 step ③) loop ``k``'s NN chain overlaps loop
        ``k−1``'s symbolic tail, so the alignment is *proportional*: the
        layer occupying work fraction ``[a, b)`` of the NN chain overlaps
        the VSA nodes occupying the same fraction of the symbolic chain.
        Returns half-open indices into :attr:`vsa_nodes` (never empty).
        """
        layers = self.layer_nodes
        names = [n.name for n in layers]
        if layer_name not in names:
            raise GraphError(f"{layer_name!r} is not a layer node")
        vsa = self.vsa_nodes
        if not vsa:
            raise GraphError("graph has no VSA nodes")
        idx = names.index(layer_name)
        work = [max(n.op.flops, 1) for n in layers]
        total = sum(work)
        before = sum(work[:idx])
        after = before + work[idx]
        j_lo = int(len(vsa) * before / total)
        j_hi = int(len(vsa) * after / total)
        j_lo = min(j_lo, len(vsa) - 1)
        j_hi = max(j_hi, j_lo + 1)
        j_hi = min(j_hi, len(vsa))
        return j_lo, j_hi
