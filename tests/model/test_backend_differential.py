"""Cross-backend differential fuzzing over generated synthetic workloads.

`tests/model/test_backend.py` proves the PR 4 backend invariants on
randomized *dimension lists*; this suite proves them on whole generated
*workloads*: hypothesis draws a `SynthConfig`, the generator builds the
trace/graph, and both backends price the extracted cost dimensions on
the same design points. On every generated workload:

* schedule totals dominate analytic totals pointwise (memory traffic
  can only add time);
* the breakdown identity ``total == compute + fill_drain + dram -
  overlap`` holds with non-negative components;
* in sequential mode the overlap is bounded by the DRAM cycles (the
  only hideable work on a single serialized unit);
* the analytic backend reports zero DRAM (compute-only model) and both
  backends agree on the node-cycles arity.

The tier-1 class runs a quick pass; the ``slow``-marked class fuzzes
200+ generated workloads per invariant family for the CI deep job.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dse.engine import DseEngine
from repro.dse.phase1 import extract_cost_dims
from repro.graph.build import build_dataflow_graph
from repro.model.backend import (
    AnalyticBackend,
    EvaluationBackend,
    ScheduleBackend,
)
from repro.workloads.synth import SynthConfig, SynthWorkload

#: Keep generated families small: the invariants are scale-free, and
#: small DAGs let hypothesis push through hundreds of examples.
synth_configs = st.builds(
    SynthConfig,
    seed=st.integers(0, 100_000),
    n_ops=st.integers(3, 14),
    depth=st.integers(1, 6),
    fanout=st.integers(1, 3),
    neural_fraction=st.floats(0.0, 1.0),
    vector_dim=st.sampled_from([16, 64, 256]),
    blocks=st.integers(1, 4),
    max_vectors=st.integers(1, 8),
    gemm_scale=st.sampled_from([4, 16, 64]),
    symbolic_ratio=st.floats(0.0, 0.8),
)

geometries = st.sampled_from([
    (4, 4, 2), (8, 8, 4), (16, 8, 3), (16, 16, 8), (32, 8, 16),
])

modes = st.sampled_from(["sequential", "parallel"])

_ANALYTIC = AnalyticBackend()
_SCHEDULE = ScheduleBackend()


def workload_dims(config: SynthConfig):
    """Trace -> graph -> the (layers, vsa) the DSE would actually price."""
    graph = build_dataflow_graph(SynthWorkload(config).build_trace())
    layers, vsa = extract_cost_dims(graph)
    return tuple(layers), tuple(vsa)


def assert_invariants(config: SynthConfig, geom, mode: str) -> None:
    """The full PR 4 invariant set on one (workload, geometry, mode)."""
    layers, vsa = workload_dims(config)
    h, w, n = geom

    ana_score = _ANALYTIC.score_geometry(h, w, n, layers, vsa)
    sched_score = _SCHEDULE.score_geometry(h, w, n, layers, vsa)
    # Pointwise dominance: the memory-aware timeline can only add time.
    assert sched_score.t_sequential >= ana_score.t_sequential
    assert sched_score.t_parallel >= ana_score.t_parallel

    nl = [1] * len(layers)
    nv = [max(1, n - 1)] * len(vsa)
    for backend in (_ANALYTIC, _SCHEDULE):
        ev = backend.evaluate_design(h, w, n, mode, nl, nv, layers, vsa)
        b = ev.breakdown
        # Breakdown identity with non-negative components.
        assert b.total == b.compute + b.fill_drain + b.dram - b.overlap
        assert b.compute >= 0 and b.fill_drain >= 0
        assert b.dram >= 0 and b.overlap >= 0 and b.total >= 0
        assert b.overlap <= b.compute + b.fill_drain + b.dram
        if mode == "sequential":
            # One serialized unit: only DRAM transfers are hideable.
            assert b.overlap <= b.dram
        assert len(ev.node_cycles) == len(layers) + len(vsa)
    # The analytic model prices compute only.
    ana_ev = _ANALYTIC.evaluate_design(h, w, n, mode, nl, nv, layers, vsa)
    assert ana_ev.breakdown.dram == 0


class TestDifferentialQuick:
    """Tier-1 pass: enough examples to catch a broken seam immediately."""

    @given(synth_configs, geometries, modes)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_on_generated_workloads(self, config, geom, mode):
        assert_invariants(config, geom, mode)

    @given(synth_configs)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_schedule_dominates_across_search_strategies(self, config):
        """The batched analytic search equals the scalar reference scan on
        generated DAGs, and the schedule backend dominates both."""
        layers, vsa = workload_dims(config)
        h, w, n = 8, 8, 4
        ref = EvaluationBackend.score_geometry(_ANALYTIC, h, w, n, layers, vsa)
        score = _ANALYTIC.score_geometry(h, w, n, layers, vsa)
        assert (score.t_sequential, score.t_parallel,
                score.nl_bar, score.nv_bar) == (
            ref.t_sequential, ref.t_parallel, ref.nl_bar, ref.nv_bar)
        sched = _SCHEDULE.score_geometry(h, w, n, layers, vsa)
        assert sched.t_sequential >= ref.t_sequential
        assert sched.t_parallel >= ref.t_parallel


@pytest.mark.slow
class TestDifferentialDeep:
    """CI deep job: >= 200 generated workloads per invariant family."""

    @given(synth_configs, geometries, modes)
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_on_200_plus_workloads(self, config, geom, mode):
        assert_invariants(config, geom, mode)

    @given(synth_configs, geometries)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_partition_sweep_dominance(self, config, geom):
        """Every static partition point: schedule >= analytic."""
        layers, vsa = workload_dims(config)
        h, w, n = geom
        if not vsa:
            return
        for nl_bar in (1, max(1, n // 2), max(1, n - 1)):
            nl = [nl_bar] * len(layers)
            nv = [max(1, n - nl_bar)] * len(vsa)
            assert _SCHEDULE.parallel_cycles(h, w, nl, nv, layers, vsa) >= (
                _ANALYTIC.parallel_cycles(h, w, nl, nv, layers, vsa)
            )


def assert_screen_batches_admissible(config: SynthConfig,
                                     max_pes: int) -> None:
    """Schedule dominates analytic on the pruner's exact screen batch.

    The multi-fidelity pruner (:mod:`repro.dse.multifidelity`) screens the
    engine's whole candidate stream through one batched
    ``AnalyticBackend.score_geometries`` call and treats the result as an
    admissible lower bound on the schedule backend — both per-mode cycle
    counts, for every candidate in the batch. This is that exact call
    shape, not a per-geometry loop.
    """
    layers, vsa = workload_dims(config)
    engine = DseEngine(max_pes=max_pes)
    geoms = [(c.h, c.w, c.n_sub) for c in engine.iter_candidates()]
    assert geoms, "screen batch must be non-empty"
    lbs = _ANALYTIC.score_geometries(geoms, layers, vsa)
    expensive = _SCHEDULE.score_geometries(geoms, layers, vsa)
    for geom, lb, truth in zip(geoms, lbs, expensive):
        assert truth.t_sequential >= lb.t_sequential, geom
        assert truth.t_parallel >= lb.t_parallel, geom


class TestLowerBoundAdmissibility:
    """The pruner's load-bearing invariant, on its exact batch shapes."""

    @given(synth_configs, st.sampled_from([64, 256, 1024]))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_screen_batches_admissible(self, config, max_pes):
        assert_screen_batches_admissible(config, max_pes)

    @pytest.mark.parametrize("config", [
        # Degenerate minimal DAGs: two ops, one level — all-neural (no
        # VSA nodes at all) and all-symbolic (a single layer, the rest
        # VSA), the edge cases where partition sweeps collapse.
        SynthConfig(seed=0, n_ops=2, depth=1, neural_fraction=1.0,
                    symbolic_ratio=0.0),
        SynthConfig(seed=0, n_ops=2, depth=1, neural_fraction=0.0,
                    symbolic_ratio=0.8),
        # Max-fanout stars: one level fanning as wide as the generator
        # allows, both balanced and symbolic-heavy.
        SynthConfig(seed=3, n_ops=12, depth=1, fanout=12),
        SynthConfig(seed=7, n_ops=12, depth=1, fanout=12,
                    neural_fraction=0.1, symbolic_ratio=0.8),
    ], ids=["single-level-neural", "single-level-symbolic",
            "max-fanout", "max-fanout-symbolic"])
    def test_degenerate_dags_admissible(self, config):
        for max_pes in (64, 256, 4096):
            assert_screen_batches_admissible(config, max_pes)


@pytest.mark.slow
class TestLowerBoundAdmissibilityDeep:
    """CI deep job: the screen-batch invariant across 200+ workloads."""

    @given(synth_configs, st.sampled_from([64, 256, 1024, 4096]))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_screen_batches_admissible_deep(self, config, max_pes):
        assert_screen_batches_admissible(config, max_pes)
