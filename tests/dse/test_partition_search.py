"""Equivalence contract of the production Phase I search.

Production Phase I searches each geometry's static partition with the
monotone crossing-point bisection over exact integer pricing, and
prunes non-analytic backends on the analytic bound. The engine promises
that neither the search, the pruning nor ``jobs`` shows in results:
for any workload, geometry, and PE budget, the analytic backend must
return the same ``(t_parallel, N̄l, N̄v)`` as the scalar reference scan
of :mod:`phase1_oracle`, and the full
:class:`~repro.dse.engine.DseReport` must be **byte-identical** to the
oracle's for every backend and ``jobs`` value. These tests are the
contract; CI's perf-smoke job re-checks it at a tiny budget via
``benchmarks/bench_dse_hotpath.py --check-only``.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from phase1_oracle import OracleEngine, scalar_score
from repro.dse.engine import DseEngine, DsePool
from repro.dse.timing import (
    clear_stage_timings,
    stage_timings,
    stage_timings_since,
    timings_snapshot,
)
from repro.errors import DSEError
from repro.flow.cli import main
from repro.flow.sweep import ScenarioGrid, run_sweep
from repro.model.backend import AnalyticBackend
from repro.model.cache import (
    LAYER_RUNTIME_CACHE,
    cache_stats,
    clear_model_caches,
    counters_snapshot,
)
from repro.model.runtime import layer_runtime
from repro.nn.gemm import GemmDims
from repro.trace.opnode import VsaDims

gemm = st.builds(
    GemmDims,
    m=st.integers(1, 400),
    n=st.integers(1, 400),
    k=st.integers(1, 400),
)
vsa = st.builds(VsaDims, n=st.integers(1, 48), d=st.integers(1, 1024))

_ANALYTIC = AnalyticBackend()


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

    def test_report_identical_across_jobs(self, small_nvsa_graph, backend):
        serial = DseEngine(
            max_pes=256, backend=backend, jobs=1
        ).explore(small_nvsa_graph)
        pooled = DseEngine(
            max_pes=256, backend=backend, jobs=2
        ).explore(small_nvsa_graph)
        assert pickle.dumps(pooled) == pickle.dumps(serial)


class TestSweepEquivalence:
    def test_sweep_outcomes_identical_across_modes_and_jobs(self):
        """Both Phase I modes — the analytic screen as final scores, and
        schedule pricing after it — sweep identically for any ``jobs``."""
        grid = ScenarioGrid(workloads=("prae", "mimonet"),
                            max_pes=(256,), backends=("analytic", "schedule"))

        def fingerprint(result):
            return [
                (
                    o.scenario_id,
                    o.evaluations,
                    pickle.dumps(o.artifacts.config),
                    pickle.dumps(o.artifacts.report),
                    o.artifacts.latency_ms,
                )
                for o in result.outcomes
            ]

        assert fingerprint(run_sweep(grid, jobs=2)) == \
            fingerprint(run_sweep(grid))

    def test_sweep_result_carries_stage_timings(self):
        result = run_sweep(ScenarioGrid(workloads=("prae",), max_pes=(256,)))
        assert "phase1.sweep" in result.stage_timings
        assert result.stage_timings["phase1.sweep"].items > 0


class TestPoolLifecycle:
    def test_close_clears_model_caches(self):
        clear_model_caches()
        layer_runtime(4, 4, 2, GemmDims(16, 8, 9))
        assert layer_runtime.cache_info().currsize == 1
        with DsePool(jobs=1):
            pass
        assert layer_runtime.cache_info().currsize == 0
        assert LAYER_RUNTIME_CACHE.stats.entries == 0

    def test_close_can_keep_caches_warm(self):
        clear_model_caches()
        layer_runtime(4, 4, 2, GemmDims(16, 8, 9))
        with DsePool(jobs=1, clear_caches_on_close=False):
            pass
        assert layer_runtime.cache_info().currsize == 1

    def test_map_chunksize_validation_and_passthrough(self):
        with DsePool(jobs=1, clear_caches_on_close=False) as pool:
            assert pool.map(lambda x: x + 1, [1, 2, 3], chunksize=2) == \
                [2, 3, 4]
            with pytest.raises(DSEError):
                pool.map(lambda x: x, [1], chunksize=0)

    def test_map_chunksize_batches_ipc(self):
        with DsePool(jobs=2, clear_caches_on_close=False) as pool:
            items = list(range(100))
            assert pool.map(_double, items) == [2 * i for i in items]
            assert pool.map(_double, items, chunksize=25) == \
                [2 * i for i in items]


def _double(x):
    return 2 * x


class TestCacheCounters:
    def test_snapshot_surfaces_entries_and_lru_layers(self):
        clear_model_caches()
        layer_runtime(4, 4, 2, GemmDims(16, 8, 9))
        snap = counters_snapshot()
        assert snap["lru.layer_runtime"] == (0, 1, 1)   # hits, misses, size
        layer_runtime(4, 4, 2, GemmDims(16, 8, 9))
        stats = cache_stats()
        assert stats["lru.layer_runtime"].hits == 1
        assert stats["lru.layer_runtime"].entries == 1
        assert all(len(v) == 3 for v in counters_snapshot().values())


class TestStageTimings:
    def test_explore_records_stages(self, small_nvsa_graph):
        clear_stage_timings()
        DseEngine(max_pes=256).explore(small_nvsa_graph)
        stages = stage_timings()
        for name in ("phase1.sweep", "phase1.model_probes", "phase2.refine",
                     "pareto.filter"):
            assert name in stages, name
        assert stages["phase1.sweep"].calls == 1
        assert stages["phase1.model_probes"].items > 0

    def test_snapshot_delta_isolates_new_work(self, small_nvsa_graph):
        clear_stage_timings()
        DseEngine(max_pes=256).explore(small_nvsa_graph)
        snap = timings_snapshot()
        assert stage_timings_since(snap) == {}
        DseEngine(max_pes=256).explore(small_nvsa_graph)
        delta = stage_timings_since(snap)
        assert delta["phase1.sweep"].calls == 1

    def test_delta_after_clear_never_goes_negative(self):
        from repro.dse.timing import record_stage

        clear_stage_timings()
        record_stage("phase1.sweep", 10.0, items=100)
        for _ in range(4):
            record_stage("phase1.sweep", 0.0)
        snap = timings_snapshot()          # (10.0 s, 5 calls, 100 items)
        clear_stage_timings()
        for _ in range(6):                 # more calls than the snapshot saw
            record_stage("phase1.sweep", 0.1, items=1)
        delta = stage_timings_since(snap)["phase1.sweep"]
        assert delta.seconds == pytest.approx(0.6)
        assert delta.calls == 6
        assert delta.items == 6


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

    def test_compile_modes_agree_on_stdout_design(self, capsys):
        """Serial and pooled Phase I print the same design."""
        designs = []
        for jobs in ("1", "2"):
            assert main(["compile", "mimonet", "--jobs", jobs]) == 0
            out = capsys.readouterr().out
            designs.append(
                [line for line in out.splitlines()
                 if "AdArray" in line or "partition" in line
                 or "Simulated latency" in line]
            )
        assert designs[0] == designs[1]

    def test_sweep_timings_show_pruning(self, capsys):
        assert main([
            "sweep", "--workloads", "prae", "--no-cache",
            "--backends", "schedule", "--timings",
        ]) == 0
        out = capsys.readouterr().out
        assert "DSE stage timings" in out
        assert "phase1.mf_pruned" in out
        assert "Multi-fidelity pruning:" in out
