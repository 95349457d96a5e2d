"""Unit tests for the controller/scheduler."""

import pytest

from repro.arch.controller import Controller
from repro.dse import DseEngine, ExecutionMode
from repro.errors import ScheduleError
from repro.graph.dataflow import DataflowGraph


@pytest.fixture(scope="module")
def compiled(small_nvsa_graph):
    report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
    return report.config, small_nvsa_graph


class TestSchedule:
    def test_dependencies_respected(self, compiled):
        config, graph = compiled
        result = Controller(config).schedule(graph)
        finish = result.node_finish
        for name in graph.topological_order():
            for dep in graph.predecessors(name):
                assert finish[dep] <= finish[name]

    def test_total_is_max_finish(self, compiled):
        config, graph = compiled
        result = Controller(config).schedule(graph)
        assert result.total_cycles == max(result.node_finish.values())

    def test_unit_busy_bounded_by_total(self, compiled):
        config, graph = compiled
        result = Controller(config).schedule(graph)
        for unit, busy in result.unit_busy_cycles.items():
            assert 0 <= busy <= result.total_cycles, unit

    def test_latency_seconds(self, compiled):
        config, graph = compiled
        result = Controller(config).schedule(graph)
        assert result.latency_s(272.0) == pytest.approx(
            result.total_cycles / 272e6
        )

    def test_utilization_in_unit_interval(self, compiled):
        config, graph = compiled
        result = Controller(config).schedule(graph)
        for unit in result.unit_busy_cycles:
            assert 0.0 <= result.utilization(unit) <= 1.0

    def test_within_factor_of_analytical_model(self, compiled):
        """The simulator adds DRAM/dependency effects the analytical model
        ignores, but stays within a small factor (cross-validation)."""
        config, graph = compiled
        result = Controller(config).schedule(graph)
        assert config.estimated_cycles <= result.total_cycles
        assert result.total_cycles < 3 * config.estimated_cycles

    def test_sequential_serializes_array_units(self, compiled):
        config, graph = compiled
        from dataclasses import replace

        seq = replace(
            config, mode=ExecutionMode.SEQUENTIAL,
            nl=tuple([config.n_sub] * len(config.nl)),
            nv=tuple([config.n_sub] * len(config.nv)),
        )
        result = Controller(seq).schedule(graph)
        assert "array" in result.unit_busy_cycles
        assert "array_nn" not in result.unit_busy_cycles

    def test_parallel_mode_splits_array_units(self, compiled):
        config, graph = compiled
        if config.mode is ExecutionMode.PARALLEL:
            result = Controller(config).schedule(graph)
            assert "array_nn" in result.unit_busy_cycles
            assert "array_vsa" in result.unit_busy_cycles

    def test_empty_graph_rejected(self, compiled):
        config, _ = compiled
        with pytest.raises(ScheduleError):
            Controller(config).schedule(DataflowGraph("empty"))


class TestFusion:
    def test_fused_simd_cheaper_than_standalone(self, compiled):
        """SIMD ops that drain array outputs overlap their producers, so
        total time beats the no-fusion upper bound."""
        config, graph = compiled
        result = Controller(config).schedule(graph)
        from repro.model.runtime import simd_runtime

        standalone = sum(
            simd_runtime(n.op.flops, config.simd_width)
            for n in graph.simd_nodes
        )
        simd_busy = result.unit_busy_cycles.get("simd", 0)
        assert simd_busy < standalone or standalone == 0
