"""Unit tests for the two-phase DSE end to end (``DseEngine.explore``)."""

import pytest

from repro.dse import DseEngine, ExecutionMode
from repro.errors import DSEError
from repro.graph import build_dataflow_graph
from repro.workloads.scaling import ScalableConfig, ScalableNsaiWorkload


def _graph(ratio: float):
    wl = ScalableNsaiWorkload(ScalableConfig(
        image_size=64, resnet_width=16, vector_dim=256, blocks=4,
        symbolic_ratio=ratio,
    ))
    return build_dataflow_graph(wl.build_trace())


class TestExplorer:
    def test_produces_complete_config(self, small_nvsa_graph):
        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        c = report.config
        assert c.total_pes <= 1024
        assert c.estimated_cycles > 0
        assert c.simd_width >= 16
        assert c.memory.cache_bytes > 0
        assert len(c.nl) == len(small_nvsa_graph.layer_nodes)
        assert len(c.nv) == len(small_nvsa_graph.vsa_nodes)

    def test_mode_decision_after_refinement(self, small_nvsa_graph):
        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        if report.config.mode is ExecutionMode.SEQUENTIAL:
            assert report.phase1.t_sequential <= report.phase2.t_parallel
            assert report.config.estimated_cycles == report.phase1.t_sequential
        else:
            assert report.phase2.t_parallel <= report.phase1.t_sequential
            assert report.config.estimated_cycles == report.phase2.t_parallel

    def test_balanced_workload_prefers_parallel(self):
        """At ~40% symbolic on a deployment-scale budget the folded
        parallel mode wins (Fig. 6's balanced regime)."""
        wl = ScalableNsaiWorkload(
            ScalableConfig(symbolic_ratio=0.4, batch_panels=16)
        )
        graph = build_dataflow_graph(wl.build_trace())
        report = DseEngine(max_pes=8192).explore(graph)
        assert report.config.mode is ExecutionMode.PARALLEL

    def test_design_space_accounting_attached(self, small_nvsa_graph):
        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        assert report.space.log10_reduction > 10
        assert report.config.extras["candidates_evaluated"] > 0

    def test_max_pes_must_be_power_of_two(self):
        with pytest.raises(DSEError):
            DseEngine(max_pes=1000)

    def test_phase2_gain_nonnegative(self, small_nvsa_graph):
        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        assert report.phase2_gain >= 0.0

    def test_config_roundtrips_through_json(self, small_nvsa_graph):
        from repro.dse import design_config_from_json, design_config_to_json

        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        restored = design_config_from_json(design_config_to_json(report.config))
        assert restored == report.config
