"""Equivalence contract of the production Phase I search.

Production Phase I searches each geometry's static partition with the
monotone crossing-point bisection over exact integer pricing, and
prunes non-analytic backends on the analytic bound. The engine promises
that neither the search nor the pruning shows in results: for any
workload, geometry, and PE budget, the analytic backend must return the
same ``(t_parallel, N̄l, N̄v)`` as the scalar reference scan of
:mod:`phase1_oracle`, and the full :class:`~repro.dse.engine.DseReport`
must be **byte-identical** to the oracle's for every backend. These
tests are the contract; CI's perf-smoke job re-checks it at a tiny
budget via ``benchmarks/bench_dse_hotpath.py --check-only``.
"""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from phase1_oracle import OracleEngine, scalar_score, scan_geometry
from repro.arch.dram import DramModel
from repro.dse.engine import DseEngine
from repro.dse.timing import stage_timings_since, timings_snapshot
from repro.flow.cli import main
from repro.flow.sweep import ScenarioGrid, run_sweep
from repro.model.backend import AnalyticBackend, ScheduleBackend
from repro.model.cache import clear_model_caches, cumulative_snapshot
from repro.model.runtime import layer_runtime
from repro.nn.gemm import GemmDims
from repro.quant import MIXED_PRECISION_PRESETS
from repro.trace.opnode import VsaDims

gemm = st.builds(
    GemmDims,
    m=st.integers(1, 400),
    n=st.integers(1, 400),
    k=st.integers(1, 400),
)
vsa = st.builds(VsaDims, n=st.integers(1, 48), d=st.integers(1, 1024))

_ANALYTIC = AnalyticBackend()

#: Every pricing path: the analytic models, two schedule byte widths,
#: and a DRAM pipe narrow enough that transfers often set the makespan.
BACKENDS = (
    _ANALYTIC,
    ScheduleBackend.from_precision(MIXED_PRECISION_PRESETS["MP"]),
    ScheduleBackend.from_precision(MIXED_PRECISION_PRESETS["INT4"]),
    ScheduleBackend(dram=DramModel(bandwidth_gb_s=0.05)),  # 1 byte/cycle
)


class TestGeometryEquivalence:
    @given(
        st.lists(gemm, min_size=1, max_size=5),
        st.lists(vsa, min_size=0, max_size=3),
        st.sampled_from([4, 8, 16, 32]),
        st.sampled_from([4, 8, 16, 32]),
        st.sampled_from([2, 3, 5, 8, 16, 64, 256]),
    )
    @settings(max_examples=120, deadline=None)
    def test_all_modes_agree_per_geometry(self, layers, vsa_nodes, h, w,
                                          n_sub):
        """The bisection returns the scalar reference scan's scores at
        every ``N``, small ones included."""
        layers, vsa_nodes = tuple(layers), tuple(vsa_nodes)
        ref = scalar_score(_ANALYTIC, h, w, n_sub, layers, vsa_nodes)
        fast = _ANALYTIC.score_geometry(h, w, n_sub, layers, vsa_nodes)
        assert (
            fast.t_parallel, fast.nl_bar, fast.nv_bar,
            fast.t_sequential, fast.evaluated,
        ) == (
            ref.t_parallel, ref.nl_bar, ref.nv_bar,
            ref.t_sequential, ref.evaluated,
        )

    def test_dims_past_int64_match_scalar_scan(self):
        """Huge dims: integer pricing cannot wrap, so the search agrees."""
        layers = (GemmDims(30_000_000, 30_000_000, 30_000_000),)
        vsa_nodes = (VsaDims(2, 64),)
        ref = scalar_score(_ANALYTIC, 4, 4, 4, layers, vsa_nodes)
        fast = _ANALYTIC.score_geometry(4, 4, 4, layers, vsa_nodes)
        assert ref.t_sequential > 2**63
        assert (fast.t_sequential, fast.t_parallel, fast.nl_bar,
                fast.nv_bar) == (
            ref.t_sequential, ref.t_parallel, ref.nl_bar, ref.nv_bar
        )

    def test_bisect_probes_fewer_models_at_scale(self):
        layers = (GemmDims(64, 2048, 64),)
        vsa_nodes = (VsaDims(16, 4096),)
        ref = scalar_score(_ANALYTIC, 4, 4, 512, layers, vsa_nodes)
        fast = _ANALYTIC.score_geometry(4, 4, 512, layers, vsa_nodes)
        assert ref.probes == 512             # 1 sequential + 511 splits
        assert fast.probes < ref.probes // 10
        assert fast.evaluated == ref.evaluated  # logical count is shared


@given(
    st.tuples(st.sampled_from([4, 8, 16, 32]),
              st.sampled_from([4, 8, 16, 32]),
              st.sampled_from([2, 3, 4, 8, 16])),
    st.lists(gemm, min_size=1, max_size=4),
    st.lists(vsa, min_size=0, max_size=3),
)
# Eq. 5's spatial and temporal sums tie (57 + 19 == 38 + 38) while the
# per-node cycles differ, so the schedule depends on the tie rule.
@example((4, 4, 2), [GemmDims(4, 4, 4)], [VsaDims(1, 8), VsaDims(3, 8)])
@settings(max_examples=40, deadline=None)
def test_score_geometry_matches_reference_all_strategies(g, layers, vsa_nodes):
    h, w, n = g
    layers, vsa_nodes = tuple(layers), tuple(vsa_nodes)
    for backend in BACKENDS:
        # The base-class scalar scan is every backend's reference.
        scan = scalar_score(backend, h, w, n, layers, vsa_nodes)
        fast = backend.score_geometry(h, w, n, layers, vsa_nodes)
        if backend is _ANALYTIC:
            # ... and the scalar models' own scan is the analytic one's.
            assert (
                scan.t_sequential, scan.t_parallel,
                scan.nl_bar, scan.nv_bar,
            ) == scan_geometry(h, w, n, layers, vsa_nodes)
            # The batched search prices fewer points than the scan.
            fast = dataclasses.replace(fast, probes=scan.probes)
        assert fast == scan
        # The logical design-point accounting is search-invariant.
        assert scan.evaluated == (n if vsa_nodes else 1)


@pytest.mark.parametrize("backend", ["analytic", "schedule"])
class TestReportEquivalence:
    def test_report_is_byte_identical(self, small_nvsa_graph, backend):
        oracle = OracleEngine(
            max_pes=1024, backend=backend
        ).explore(small_nvsa_graph)
        report = DseEngine(
            max_pes=1024, backend=backend
        ).explore(small_nvsa_graph)
        assert pickle.dumps(report) == pickle.dumps(oracle)


class TestSweepEquivalence:
    def test_sweep_result_carries_stage_timings(self):
        result = run_sweep(ScenarioGrid(workloads=("prae",), max_pes=(256,)))
        assert "phase1.sweep" in result.stage_timings
        assert result.stage_timings["phase1.sweep"].items > 0


class TestCacheCounters:
    def test_snapshot_surfaces_entries_and_lru_layers(self):
        clear_model_caches()
        before = cumulative_snapshot()["lru.layer_runtime"]
        layer_runtime(4, 4, 2, GemmDims(16, 8, 9))
        info = layer_runtime.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        layer_runtime(4, 4, 2, GemmDims(16, 8, 9))
        info = layer_runtime.cache_info()
        assert (info.hits, info.currsize) == (1, 1)
        # The cumulative view carries the same two lookups on top of
        # whatever the layer counted before the clear.
        assert cumulative_snapshot()["lru.layer_runtime"] == (
            before[0] + 1, before[1] + 1,
        )


class TestStageTimings:
    def test_explore_records_stages(self, small_nvsa_graph):
        snap = timings_snapshot()
        DseEngine(max_pes=256).explore(small_nvsa_graph)
        stages = stage_timings_since(snap)
        for name in ("phase1.sweep", "phase1.model_probes", "phase2.refine",
                     "pareto.filter"):
            assert name in stages, name
        assert stages["phase1.sweep"].calls == 1
        assert stages["phase1.model_probes"].items > 0

    def test_snapshot_delta_isolates_new_work(self, small_nvsa_graph):
        DseEngine(max_pes=256).explore(small_nvsa_graph)
        snap = timings_snapshot()
        assert stage_timings_since(snap) == {}
        DseEngine(max_pes=256).explore(small_nvsa_graph)
        delta = stage_timings_since(snap)
        assert delta["phase1.sweep"].calls == 1

    @pytest.mark.parametrize("backend", ["analytic", "schedule"])
    def test_explore_routes_counters_through_engine_record_stage(
        self, small_nvsa_graph, monkeypatch, backend,
    ):
        """Tracers swap ``repro.dse.engine.record_stage`` to see Phase I's
        work counters; every counter must go through that attribute."""
        import repro.dse.engine as engine_module

        routed: list[str] = []
        original = engine_module.record_stage

        def recorder(name, seconds=0.0, items=0):
            routed.append(name)
            original(name, seconds, items)

        monkeypatch.setattr(engine_module, "record_stage", recorder)
        DseEngine(max_pes=256, backend=backend).explore(small_nvsa_graph)
        want = {"phase1.sweep", "phase1.model_probes"}
        if backend == "schedule":
            want |= {"phase1.mf_screened", "phase1.mf_priced"}
        assert want <= set(routed)


class TestCli:
    def test_compile_timings(self, capsys):
        assert main([
            "compile", "mimonet", "--backend", "schedule", "--timings",
        ]) == 0
        out = capsys.readouterr().out
        assert "DSE stage timings" in out
        for stage in ("phase1.sweep", "phase1.mf_screened",
                      "phase1.mf_priced", "phase1.mf_pruned"):
            assert stage in out, stage

    def test_sweep_timings_show_pruning(self, capsys):
        assert main([
            "sweep", "--workloads", "prae", "--no-cache",
            "--backends", "schedule", "--timings",
        ]) == 0
        out = capsys.readouterr().out
        assert "DSE stage timings" in out
        assert "phase1.mf_pruned" in out
        assert "Multi-fidelity pruning:" in out
