"""Unit tests for the batched/parallel/cached Pareto DSE engine."""

import pickle

import pytest

from phase1_oracle import OracleEngine, run_phase1
from repro.dse import DseEngine, DsePool, ExecutionMode, pareto_filter
from repro.dse.engine import ParetoPoint, area_pe_equiv
from repro.errors import DSEError
from repro.faults import injected_faults
from repro.model.cache import (
    LAYER_RUNTIME_CACHE,
    MEMORY_PLAN_CACHE,
    cached_layer_runtime,
    cached_plan_memory,
    clear_model_caches,
)
from repro.model.runtime import parallel_runtime, sequential_runtime
from repro.nn.gemm import GemmDims
from repro.quant import MIXED_PRECISION_PRESETS
from repro.trace import ExecutionUnit, OpDomain, Tracer, VsaDims
from repro.graph import build_dataflow_graph


@pytest.fixture(scope="module")
def tiny_graph():
    """One GEMM layer feeding one VSA node: every cost is hand-checkable."""
    t = Tracer("tiny")
    conv = t.record(
        "conv2d", OpDomain.NEURAL, ExecutionUnit.ARRAY_NN,
        ("%input",), (1, 4, 4, 4), gemm=GemmDims(16, 8, 9),
    )
    t.record(
        "bind", OpDomain.SYMBOLIC, ExecutionUnit.ARRAY_VSA,
        (conv.name,), (4, 64), vsa=VsaDims(4, 64),
    )
    return build_dataflow_graph(t.finish())


def _tiny_engine(**kwargs):
    return DseEngine(max_pes=64, range_h=(4, 8), range_w=(4, 8), **kwargs)


class TestCandidateStream:
    def test_is_lazy(self):
        stream = _tiny_engine().iter_candidates()
        assert iter(stream) is stream  # a generator, not a list

    def test_respects_budget_and_ranges(self):
        cands = list(_tiny_engine().iter_candidates())
        assert cands, "tiny space must not be empty"
        for c in cands:
            assert c.h * c.w * c.n_sub <= 64
            assert 4 <= c.h <= 8 and 4 <= c.w <= 8
            assert c.n_sub >= 2

    def test_indexes_are_sequential(self):
        cands = list(_tiny_engine().iter_candidates())
        assert [c.index for c in cands] == list(range(len(cands)))

    def test_infeasible_space_raises(self, tiny_graph):
        engine = DseEngine(max_pes=64, range_h=(256, 256), range_w=(256, 256))
        with pytest.raises(DSEError):
            engine.evaluate(tiny_graph)


class TestParetoFrontier:
    def test_matches_brute_force(self, tiny_graph):
        """The frontier equals an independent exhaustive reconstruction."""
        engine = _tiny_engine()
        layers = [n.gemm for n in tiny_graph.layer_nodes]
        vsa = [n.vsa for n in tiny_graph.vsa_nodes]

        expected = []
        for c in engine.iter_candidates():
            t_seq = sequential_runtime(c.h, c.w, c.n_sub, layers, vsa)
            t_par, nl_bar, nv_bar = min(
                (parallel_runtime(
                    c.h, c.w, [nl] * len(layers),
                    [c.n_sub - nl] * len(vsa), layers, vsa,
                ), nl, c.n_sub - nl)
                for nl in range(1, c.n_sub)
            )
            cycles = min(t_seq, t_par)
            area = area_pe_equiv(c.h, c.w, c.n_sub)
            expected.append((cycles, area))
        # O(n^2) dominance from scratch.
        non_dom = {
            p for p in expected
            if not any(
                q != p and q[0] <= p[0] and q[1] <= p[1] for q in expected
            )
        }

        frontier = engine.explore(tiny_graph).pareto
        assert {(p.cycles, p.area) for p in frontier} == non_dom

    def test_no_point_dominates_another(self, small_nvsa_graph):
        frontier = DseEngine(max_pes=1024).explore(small_nvsa_graph).pareto
        pts = list(frontier)
        for a in pts:
            for b in pts:
                if a is b:
                    continue
                dominated = (
                    all(x <= y for x, y in zip(a.objectives, b.objectives))
                    and a.objectives != b.objectives
                )
                assert not dominated, (a, b)

    def test_sorted_by_latency_and_counts_consistent(self, small_nvsa_graph):
        frontier = DseEngine(max_pes=1024).explore(small_nvsa_graph).pareto
        cycles = [p.cycles for p in frontier]
        assert cycles == sorted(cycles)
        assert len(frontier) == frontier.non_dominated
        assert (
            frontier.geometries_evaluated
            == frontier.non_dominated + frontier.dominated
        )

    def test_best_latency_matches_report(self, small_nvsa_graph):
        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        best = report.pareto.best_latency
        assert best.cycles == min(
            report.phase1.t_sequential, report.phase1.t_parallel
        )

    def test_pareto_k_truncates(self, tiny_graph):
        full = _tiny_engine().explore(tiny_graph).pareto
        top1 = _tiny_engine(pareto_k=1).explore(tiny_graph).pareto
        assert len(top1) == 1
        assert top1.points[0] == full.points[0]
        # accounting describes the full frontier, not the truncation
        assert top1.non_dominated == full.non_dominated
        assert top1.dominated == full.dominated
        assert (
            top1.geometries_evaluated == top1.non_dominated + top1.dominated
        )

    def test_tie_breaking_is_deterministic(self):
        def point(h, w):
            return ParetoPoint(
                h=h, w=w, n_sub=2, mode=ExecutionMode.PARALLEL,
                nl_bar=1, nv_bar=1, cycles=100, area=50, energy_proxy=5000,
            )

        frontier = pareto_filter([point(8, 4), point(4, 8)])
        assert len(frontier) == 1
        assert (frontier[0].h, frontier[0].w) == (4, 8)


class TestParallelEquality:
    def test_jobs_do_not_change_results(self, tiny_graph):
        serial = _tiny_engine(jobs=1).explore(tiny_graph)
        pooled = _tiny_engine(jobs=2).explore(tiny_graph)
        assert pooled.config == serial.config
        assert pooled.phase1 == serial.phase1
        assert pooled.phase2 == serial.phase2
        assert pooled.pareto == serial.pareto

    def test_chunk_size_does_not_change_results(self, small_nvsa_graph):
        """Work units are ``4 · jobs`` round-robin chunks, so two and three
        workers cut the candidates into different chunk sizes."""
        serial = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        for jobs in (2, 3):
            pooled = DseEngine(max_pes=1024, jobs=jobs).explore(small_nvsa_graph)
            assert pickle.dumps(pooled) == pickle.dumps(serial)

    def test_private_pool_survives_killed_worker(self, small_nvsa_graph,
                                                 tmp_path):
        """Without ``pool=``, ``jobs > 1`` still runs a supervised pool: a
        SIGKILLed worker costs a rebuild, not the compile."""
        serial = DseEngine(max_pes=256).explore(small_nvsa_graph)
        with injected_faults("dse.worker:kill@1!once",
                             state_dir=tmp_path / "state"):
            pooled = DseEngine(max_pes=256, jobs=2).explore(small_nvsa_graph)
        fires = (tmp_path / "state" / "fires.log").read_text().splitlines()
        assert len(fires) == 1 and fires[0].startswith("dse.worker:kill:")
        assert pickle.dumps(pooled) == pickle.dumps(serial)

    def test_invalid_parallel_params(self):
        with pytest.raises(DSEError):
            DseEngine(jobs=0)
        with pytest.raises(DSEError):
            DseEngine(pareto_k=-1)

    def test_pareto_k_zero_means_full_frontier(self, tiny_graph):
        full = _tiny_engine(pareto_k=0).explore(tiny_graph).pareto
        assert len(full) == full.non_dominated


class TestDsePool:
    def test_serial_pool_runs_in_process(self):
        with DsePool(jobs=1) as pool:
            assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_shared_pool_matches_private_executor(self, tiny_graph):
        serial = _tiny_engine(jobs=1).explore(tiny_graph)
        with DsePool(jobs=2) as pool:
            first = _tiny_engine(pool=pool).explore(tiny_graph)
            second = _tiny_engine(pool=pool).explore(tiny_graph)
        assert first.config == serial.config
        assert first.pareto == serial.pareto
        assert second.config == serial.config

    def test_pool_jobs_budget_overrides_engine_jobs(self):
        with DsePool(jobs=3) as pool:
            engine = _tiny_engine(jobs=1, pool=pool)
            assert engine.jobs == 3

    def test_closed_pool_raises(self):
        pool = DsePool(jobs=1)
        pool.close()
        assert pool.closed
        with pytest.raises(DSEError):
            pool.map(lambda x: x, [1])

    def test_invalid_jobs(self):
        with pytest.raises(DSEError):
            DsePool(jobs=0)


class TestCaching:
    def test_memory_plan_cache_hits(self, tiny_graph):
        clear_model_caches()
        precision = MIXED_PRECISION_PRESETS["MP"]
        first = cached_plan_memory(tiny_graph, precision)
        assert MEMORY_PLAN_CACHE.stats.misses == 1
        second = cached_plan_memory(tiny_graph, precision)
        assert second is first
        assert MEMORY_PLAN_CACHE.stats.hits == 1

    def test_layer_runtime_cache_hits(self):
        clear_model_caches()
        dims = GemmDims(16, 8, 9)
        a = cached_layer_runtime(4, 4, 2, dims)
        b = cached_layer_runtime(4, 4, 2, dims)
        assert a == b
        assert LAYER_RUNTIME_CACHE.stats.hits == 1
        assert LAYER_RUNTIME_CACHE.stats.misses == 1
        assert LAYER_RUNTIME_CACHE.stats.hit_rate == pytest.approx(0.5)

    def test_reexploration_hits_graph_caches(self, tiny_graph):
        clear_model_caches()
        engine = _tiny_engine()
        engine.explore(tiny_graph)
        misses_after_first = MEMORY_PLAN_CACHE.stats.misses
        engine.explore(tiny_graph)
        assert MEMORY_PLAN_CACHE.stats.misses == misses_after_first
        assert MEMORY_PLAN_CACHE.stats.hits >= 1

    @pytest.mark.parametrize("backend", ["analytic", "schedule"])
    def test_cost_dims_extracted_once_per_explore(
        self, small_nvsa_graph, monkeypatch, backend
    ):
        """Phase I and Phase II price the same dims; explore pulls them once."""
        import repro.dse.engine as engine_module
        import repro.dse.phase2 as phase2_module

        calls = []
        original = engine_module.extract_cost_dims

        def counting(graph):
            calls.append(graph)
            return original(graph)

        want = DseEngine(max_pes=1024, backend=backend).explore(small_nvsa_graph)
        monkeypatch.setattr(engine_module, "extract_cost_dims", counting)
        monkeypatch.setattr(phase2_module, "extract_cost_dims", counting)
        got = DseEngine(max_pes=1024, backend=backend).explore(small_nvsa_graph)
        assert calls == [small_nvsa_graph]
        assert pickle.dumps(got) == pickle.dumps(want)


class TestCompatibilityShim:
    """Production against the historical exhaustive Phase I: the oracle
    engine (a ``DseEngine`` shim that prices every candidate through the
    scalar scan) and the serial sweep."""

    def test_shim_matches_engine(self, small_nvsa_graph):
        oracle = OracleEngine(max_pes=1024).explore(small_nvsa_graph)
        engine = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        assert pickle.dumps(engine) == pickle.dumps(oracle)

    def test_phase1_matches_serial_sweep(self, small_nvsa_graph):
        """The batched sweep reduces to the historical serial Phase I."""
        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        assert report.phase1 == run_phase1(small_nvsa_graph, 1024)


class TestEvaluationBackends:
    def test_default_backend_is_analytic_and_stamped(self, small_nvsa_graph):
        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        assert report.backend is not None
        assert report.backend.name == "analytic"

    def test_explicit_analytic_is_byte_identical(self, small_nvsa_graph):
        default = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        explicit = DseEngine(
            max_pes=1024, backend="analytic"
        ).explore(small_nvsa_graph)
        assert pickle.dumps(default) == pickle.dumps(explicit)

    def test_schedule_backend_never_prices_below_analytic(
        self, small_nvsa_graph
    ):
        ana = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        sched = DseEngine(
            max_pes=1024, backend="schedule"
        ).explore(small_nvsa_graph)
        assert sched.backend.name == "schedule"
        # Pointwise schedule >= analytic implies the swept minima can
        # only rise once memory traffic is priced in.
        assert sched.phase1.t_parallel >= ana.phase1.t_parallel
        assert sched.phase1.t_sequential >= ana.phase1.t_sequential
        assert sched.config.estimated_cycles >= ana.config.estimated_cycles

    def test_schedule_backend_jobs_equivalence(self, small_nvsa_graph):
        """Backends ship to pool workers; results stay merge-identical."""
        serial = DseEngine(
            max_pes=1024, backend="schedule"
        ).explore(small_nvsa_graph)
        parallel = DseEngine(
            max_pes=1024, backend="schedule", jobs=2
        ).explore(small_nvsa_graph)
        assert serial.phase1 == parallel.phase1
        assert serial.config == parallel.config
        assert serial.pareto == parallel.pareto

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(DSEError):
            DseEngine(max_pes=64, backend="rtl")

    def test_backend_instance_accepted(self, small_nvsa_graph):
        from repro.model.backend import ScheduleBackend

        backend = ScheduleBackend()
        by_name = DseEngine(
            max_pes=1024, backend="schedule"
        ).explore(small_nvsa_graph)
        by_instance = DseEngine(
            max_pes=1024, backend=backend
        ).explore(small_nvsa_graph)
        assert by_instance.config == by_name.config
        assert by_instance.backend == by_name.backend
