"""Unit tests for dataflow-graph construction (Fig. 4 steps ①-③)."""

import pytest

from repro.errors import GraphError
from repro.graph import DataflowGraph, DataflowNode, build_dataflow_graph, fuse_loops
from repro.nn.gemm import GemmDims
from repro.trace import ExecutionUnit, OpDomain, Trace, Tracer
from repro.trace.opnode import TraceOp
from repro.workloads import build_workload


def _chain_with_fanout() -> Trace:
    """conv → conv → [3 parallel VSA ops] → sum."""
    t = Tracer("toy")
    c1 = t.record("conv2d", OpDomain.NEURAL, ExecutionUnit.ARRAY_NN,
                  ("%input",), (1, 8, 8, 8), gemm=GemmDims(64, 8, 9))
    c2 = t.record("conv2d", OpDomain.NEURAL, ExecutionUnit.ARRAY_NN,
                  (c1.name,), (1, 8, 8, 8), gemm=GemmDims(64, 8, 72))
    binds = [
        t.record_binding((c2.name,), n_vectors=2, dim=16) for _ in range(3)
    ]
    t.record_simd("sum", tuple(b.name for b in binds), (3,))
    return t.finish()


def _reads_one_producer_twice() -> Trace:
    """A binding reads the conv twice; the double read is one edge."""
    t = Tracer("twice")
    a = t.record("conv2d", OpDomain.NEURAL, ExecutionUnit.ARRAY_NN,
                 ("%input",), (1, 8, 8, 8), gemm=GemmDims(64, 8, 9))
    b = t.record_binding((a.name, a.name), n_vectors=2, dim=16)
    c = t.record_simd("mul", (a.name,), (2, 16))
    d = t.record_binding((b.name, c.name), n_vectors=2, dim=16)
    t.record_simd("sum", (a.name, d.name), (1,))
    return t.finish()


def _simd_node(name: str) -> DataflowNode:
    op = TraceOp(name=name, kind="add", domain=OpDomain.SYMBOLIC,
                 unit=ExecutionUnit.SIMD, inputs=(), output_shape=(1,))
    return DataflowNode(name=name, op=op)


def _reachable(graph, src: str, dst: str) -> bool:
    seen, stack = {src}, [src]
    while stack:
        for succ in graph.successors(stack.pop()):
            if succ == dst:
                return True
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


class TestBuild:
    def test_structure(self):
        g = build_dataflow_graph(_chain_with_fanout())
        assert len(g) == 6
        g.validate()

    def test_critical_path_is_a_path(self):
        g = build_dataflow_graph(_chain_with_fanout())
        cp = g.critical_path
        for a, b in zip(cp, cp[1:]):
            assert b in g.successors(a)

    def test_critical_path_contains_heavy_chain(self):
        """FLOP weighting puts the conv chain on the critical path."""
        g = build_dataflow_graph(_chain_with_fanout())
        assert "%conv2d_1" in g.critical_path
        assert "%conv2d_2" in g.critical_path

    def test_every_noncritical_node_attached_once(self):
        g = build_dataflow_graph(_chain_with_fanout())
        cp = set(g.critical_path)
        attached = [name for node in g if node.on_critical_path for name in node.attached]
        off_path = [n.name for n in g if not n.on_critical_path]
        assert sorted(attached) == sorted(off_path)
        assert not (set(attached) & cp)

    def test_depths_monotone_along_edges(self):
        g = build_dataflow_graph(_chain_with_fanout())
        for node in g:
            for succ in g.successors(node.name):
                assert g.node(succ).depth > node.depth

    def test_empty_trace_rejected(self):
        with pytest.raises(GraphError):
            build_dataflow_graph(Trace("empty", []))

    def test_layer_and_vsa_selectors_ordered(self, small_nvsa_graph):
        layers = small_nvsa_graph.layer_nodes
        assert all(n.gemm is not None for n in layers)
        order = {n: i for i, n in enumerate(small_nvsa_graph.topological_order())}
        indices = [order[n.name] for n in layers]
        assert indices == sorted(indices)

    def test_vsa_span_covers_all_nodes(self, small_nvsa_graph):
        """Union of per-layer spans covers the whole VSA node set."""
        n_vsa = len(small_nvsa_graph.vsa_nodes)
        covered = set()
        for layer in small_nvsa_graph.layer_nodes:
            lo, hi = small_nvsa_graph.vsa_span_for_layer(layer.name)
            assert 0 <= lo < hi <= n_vsa
            covered.update(range(lo, hi))
        assert covered == set(range(n_vsa))

    def test_span_rejects_non_layer(self, small_nvsa_graph):
        with pytest.raises(GraphError):
            small_nvsa_graph.vsa_span_for_layer("%not_a_layer")


class TestFuseLoops:
    def test_size_scales_with_loops(self):
        trace = _chain_with_fanout()
        g1 = fuse_loops(trace, 1)
        g3 = fuse_loops(trace, 3)
        assert len(g3) == 3 * len(g1)

    def test_unit_serialization_edges(self):
        """Loop k's first NN node depends on loop k-1's last NN node."""
        trace = _chain_with_fanout()
        g = fuse_loops(trace, 2)
        assert "%conv2d_1@loop1" in g.successors("%conv2d_2")

    def test_cross_loop_overlap_possible(self):
        """Loop 1's NN does NOT depend on loop 0's symbolic tail."""
        trace = _chain_with_fanout()
        g = fuse_loops(trace, 2)
        assert not _reachable(g, "%sum_1", "%conv2d_1@loop1")
        assert _reachable(g, "%conv2d_1", "%sum_1@loop1")

    def test_still_a_dag(self):
        g = fuse_loops(_chain_with_fanout(), 4)
        g.validate()

    def test_invalid_loop_count(self):
        with pytest.raises(GraphError):
            fuse_loops(_chain_with_fanout(), 0)


class TestGraphContract:
    """Order, error and caching rules the DSE and the goldens rely on."""

    # Recorded from networkx 3.x's topological_sort: Kahn's algorithm one
    # generation at a time over insertion-ordered adjacency.
    ORDERS = {
        "fanout": [
            "%conv2d_1", "%conv2d_2", "%binding_circular_1",
            "%binding_circular_2", "%binding_circular_3", "%sum_1",
        ],
        "fused3": [
            "%conv2d_1", "%conv2d_2", "%binding_circular_1",
            "%binding_circular_2", "%binding_circular_3", "%conv2d_1@loop1",
            "%sum_1", "%conv2d_2@loop1", "%binding_circular_1@loop1",
            "%binding_circular_2@loop1", "%binding_circular_3@loop1",
            "%conv2d_1@loop2", "%sum_1@loop1", "%conv2d_2@loop2",
            "%binding_circular_1@loop2", "%binding_circular_2@loop2",
            "%binding_circular_3@loop2", "%sum_1@loop2",
        ],
        "twice": [
            "%conv2d_1", "%binding_circular_1", "%mul_1",
            "%binding_circular_2", "%sum_1",
        ],
    }

    @pytest.mark.parametrize("key, make", [
        ("fanout", lambda: build_dataflow_graph(_chain_with_fanout())),
        ("fused3", lambda: fuse_loops(_chain_with_fanout(), 3)),
        ("twice", lambda: build_dataflow_graph(_reads_one_producer_twice())),
    ])
    def test_topological_order_literals(self, key, make):
        assert make().topological_order() == self.ORDERS[key]

    def test_double_read_is_one_edge(self):
        g = build_dataflow_graph(_reads_one_producer_twice())
        assert g.predecessors("%binding_circular_1") == ["%conv2d_1"]
        assert g.predecessors("%sum_1") == ["%conv2d_1", "%binding_circular_2"]
        assert g.edges() == [
            ("%conv2d_1", "%binding_circular_1"), ("%conv2d_1", "%mul_1"),
            ("%conv2d_1", "%sum_1"), ("%binding_circular_1", "%binding_circular_2"),
            ("%mul_1", "%binding_circular_2"), ("%binding_circular_2", "%sum_1"),
        ]

    def test_unknown_node_raises_graph_error(self):
        g = build_dataflow_graph(build_workload("prae").build_trace())
        for accessor in (g.node, g.predecessors, g.successors):
            with pytest.raises(GraphError, match="%nope"):
                accessor("%nope")

    def test_cycle_names_its_nodes(self):
        g = DataflowGraph("cycle")
        for name in ("%a", "%b", "%c"):
            g.add_node(_simd_node(name))
        g.add_edge("%a", "%b")
        g.add_edge("%b", "%c")
        g.add_edge("%c", "%a")
        with pytest.raises(GraphError, match=r"cycle.*'%a', '%b', '%c'"):
            g.validate()
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()

    def test_views_follow_mutation(self):
        g = build_dataflow_graph(_chain_with_fanout())
        assert len(g.simd_nodes) == 1
        assert g.topological_order()[-1] == "%sum_1"
        g.add_node(_simd_node("%late"))
        assert g.topological_order()[:2] == ["%conv2d_1", "%late"]
        assert [n.name for n in g.simd_nodes] == ["%late", "%sum_1"]
        g.add_edge("%sum_1", "%late")
        assert g.topological_order()[-1] == "%late"
        assert [n.name for n in g.simd_nodes] == ["%sum_1", "%late"]

    def test_returned_views_do_not_alias(self):
        g = build_dataflow_graph(_chain_with_fanout())
        order = g.topological_order()
        layers = g.layer_nodes
        preds = g.predecessors("%sum_1")
        order.reverse()
        layers.clear()
        preds.append("%bogus")
        assert g.topological_order() == self.ORDERS["fanout"]
        assert [n.name for n in g.layer_nodes] == ["%conv2d_1", "%conv2d_2"]
        assert "%bogus" not in g.predecessors("%sum_1")
