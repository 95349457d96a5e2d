"""Unit tests for Algorithm 1's two phases."""

import pytest

from repro.dse.engine import DseEngine
from repro.dse.phase1 import extract_cost_dims
from repro.dse.phase2 import run_phase2
from repro.errors import DSEError
from repro.graph import build_dataflow_graph
from repro.model.runtime import nn_total_runtime, parallel_runtime, vsa_total_runtime
from repro.nn.gemm import GemmDims
from repro.trace import ExecutionUnit, OpDomain, Tracer
from repro.workloads.scaling import ScalableConfig, ScalableNsaiWorkload


def phase1_result(graph, max_pes, **ranges):
    """Production Phase I's result for ``graph`` at ``max_pes``."""
    return DseEngine(max_pes=max_pes, **ranges).explore(graph).phase1


@pytest.fixture(scope="module")
def balanced_graph():
    """A workload whose NN and VSA halves are comparable (Phase II bites)."""
    wl = ScalableNsaiWorkload(ScalableConfig(
        image_size=64, resnet_width=16, vector_dim=256, blocks=4,
        symbolic_ratio=0.5,
    ))
    return build_dataflow_graph(wl.build_trace())


class TestPhase1:
    def test_respects_pe_budget(self, balanced_graph):
        result = phase1_result(balanced_graph, max_pes=1024)
        assert result.h * result.w * result.n_sub <= 1024
        assert result.seq_h * result.seq_w * result.seq_n_sub <= 1024

    def test_respects_ranges(self, balanced_graph):
        result = phase1_result(balanced_graph, max_pes=1024,
                               range_h=(8, 8), range_w=(8, 32))
        assert result.h == 8
        assert 8 <= result.w <= 32

    def test_static_partition_sums_to_n(self, balanced_graph):
        result = phase1_result(balanced_graph, max_pes=1024)
        assert result.nl_bar + result.nv_bar == result.n_sub

    def test_best_parallel_beats_random_samples(self, balanced_graph):
        """The winner is no worse than a few hand-picked static points."""
        result = phase1_result(balanced_graph, max_pes=1024)
        layers, vsa = extract_cost_dims(balanced_graph)
        for h, w, n_sub, nl_bar in [(8, 8, 16, 8), (16, 16, 4, 2), (8, 32, 4, 3)]:
            t = parallel_runtime(
                h, w, [nl_bar] * len(layers), [n_sub - nl_bar] * len(vsa),
                layers, vsa,
            )
            assert result.t_parallel <= t

    def test_infeasible_ranges_raise(self, balanced_graph):
        with pytest.raises(DSEError):
            phase1_result(balanced_graph, max_pes=64, range_h=(256, 256),
                          range_w=(256, 256))

    def test_nn_only_graph(self):
        t = Tracer("nn_only")
        t.record("conv2d", OpDomain.NEURAL, ExecutionUnit.ARRAY_NN,
                 ("%input",), (1, 4, 4, 4), gemm=GemmDims(16, 4, 9))
        g = build_dataflow_graph(t.finish())
        result = phase1_result(g, max_pes=256)
        assert result.t_parallel == result.t_sequential


class TestPhase2:
    def test_never_worse_than_phase1(self, balanced_graph):
        """The central Phase II invariant: refinement is monotone."""
        p1 = phase1_result(balanced_graph, max_pes=1024)
        p2 = run_phase2(balanced_graph, p1, iter_max=8)
        assert p2.t_parallel <= p1.t_parallel

    def test_partition_vectors_in_bounds(self, balanced_graph):
        p1 = phase1_result(balanced_graph, max_pes=1024)
        p2 = run_phase2(balanced_graph, p1, iter_max=4)
        assert len(p2.nl) == len(balanced_graph.layer_nodes)
        assert len(p2.nv) == len(balanced_graph.vsa_nodes)
        assert all(1 <= v <= p1.n_sub - 1 for v in p2.nl)
        assert all(1 <= v <= p1.n_sub - 1 for v in p2.nv)

    def test_capacity_constraint_holds_per_span(self, balanced_graph):
        """Nl[i] + Nv[j] <= N for every overlapping (layer, VSA) pair."""
        p1 = phase1_result(balanced_graph, max_pes=1024)
        p2 = run_phase2(balanced_graph, p1, iter_max=8)
        layers = balanced_graph.layer_nodes
        for i, layer in enumerate(layers):
            lo, hi = balanced_graph.vsa_span_for_layer(layer.name)
            for j in range(lo, hi):
                assert p2.nl[i] + p2.nv[j] <= p1.n_sub

    def test_reported_runtime_matches_vectors(self, balanced_graph):
        p1 = phase1_result(balanced_graph, max_pes=1024)
        p2 = run_phase2(balanced_graph, p1, iter_max=8)
        layers, vsa = extract_cost_dims(balanced_graph)
        recomputed = max(
            nn_total_runtime(p1.h, p1.w, list(p2.nl), layers),
            vsa_total_runtime(p1.h, p1.w, list(p2.nv), vsa),
        )
        assert p2.t_parallel == recomputed

    def test_gain_computation(self, balanced_graph):
        p1 = phase1_result(balanced_graph, max_pes=1024)
        p2 = run_phase2(balanced_graph, p1, iter_max=8)
        assert p2.gain_over(p1.t_parallel) == pytest.approx(
            1.0 - p2.t_parallel / p1.t_parallel
        )

    def test_invalid_iter_max(self, balanced_graph):
        p1 = phase1_result(balanced_graph, max_pes=1024)
        with pytest.raises(DSEError):
            run_phase2(balanced_graph, p1, iter_max=0)
