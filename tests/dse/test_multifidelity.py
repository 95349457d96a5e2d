"""Property-based equivalence: production Phase I vs the exhaustive oracle.

Production Phase I screens every candidate analytically and, for any
backend but the plain analytic one, prices only the candidates the
screen's lower bound cannot prune (see :mod:`repro.dse.multifidelity`).
Its whole contract is *byte-identical results for less pricing*. This
suite proves it the strong way, over hypothesis-generated workloads and
design spaces, against :class:`phase1_oracle.OracleEngine` (every
candidate priced through the scalar reference scan, nothing pruned):

* the **entire** :class:`~repro.dse.engine.DseReport` — Phase I winners,
  Phase II refinement, the Pareto frontier, and every counter — pickles
  to the same bytes as the oracle's, for both backends and any PE
  budget;
* every pruned candidate was *truly* dominated: pricing it with the real
  backend after the fact yields a point strictly dominated by a priced
  incumbent, and one that could never have won the Phase I first-wins
  reduction;
* the accounting identities hold: screened = priced + pruned, and the
  pruned candidates' logical evaluation counts close the gap to the
  oracle's ``candidates_evaluated``;
* a backend that prices below the analytic bound is caught, not trusted.

The tier-1 classes run a quick pass; the ``slow``-marked class re-runs
the core properties across hundreds of generated workloads for CI's deep
job.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phase1_oracle import OracleEngine, scalar_score
from repro.dse.engine import DseEngine, _eval_from_score, area_pe_equiv
from repro.dse.multifidelity import multifidelity_evaluate
from repro.dse.phase1 import extract_cost_dims
from repro.dse.timing import stage_timings_since, timings_snapshot
from repro.errors import DSEError
from repro.graph.build import build_dataflow_graph
from repro.model.backend import AnalyticBackend, ScheduleBackend
from repro.workloads import build_workload
from repro.workloads.synth import SynthConfig, SynthWorkload

#: Small generated DAGs: the equivalence properties are scale-free, and
#: each example pays two full DSE runs (production + oracle).
synth_configs = st.builds(
    SynthConfig,
    seed=st.integers(0, 100_000),
    n_ops=st.integers(3, 12),
    depth=st.integers(1, 5),
    fanout=st.integers(1, 3),
    neural_fraction=st.floats(0.0, 1.0),
    vector_dim=st.sampled_from([16, 64, 256]),
    blocks=st.integers(1, 3),
    max_vectors=st.integers(1, 8),
    gemm_scale=st.sampled_from([4, 16, 64]),
    symbolic_ratio=st.floats(0.0, 0.8),
)

pe_budgets = st.sampled_from([64, 256, 1024])
backends = st.sampled_from(["analytic", "schedule"])

_QUICK = settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
_DEEP = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def graph_for(config: SynthConfig):
    return build_dataflow_graph(SynthWorkload(config).build_trace())


def screen_evals(engine, layers, vsa, backend=None):
    """Every candidate scored by ``backend`` (default: the analytic screen)."""
    backend = backend or AnalyticBackend()
    return [
        _eval_from_score(c, backend.score_geometry(c.h, c.w, c.n_sub, layers, vsa))
        for c in engine.iter_candidates()
    ]


def screen(graph, max_pes, backend_name):
    """Run the pruner directly; returns (candidates, outcome, backend, dims)."""
    engine = DseEngine(max_pes=max_pes, backend=backend_name)
    layers, vsa = (tuple(d) for d in extract_cost_dims(graph))
    outcome = multifidelity_evaluate(
        screen_evals(engine, layers, vsa), layers, vsa, engine.backend,
    )
    return (list(engine.iter_candidates()), outcome, engine.backend,
            (layers, vsa))


def assert_byte_identical(config, max_pes, backend):
    graph = graph_for(config)
    oracle = OracleEngine(max_pes=max_pes, backend=backend).explore(graph)
    report = DseEngine(max_pes=max_pes, backend=backend).explore(graph)
    assert pickle.dumps(report) == pickle.dumps(oracle)


class TestEquivalenceQuick:
    """Tier-1: byte-identical reports on generated design spaces."""

    @given(synth_configs, pe_budgets, backends)
    @_QUICK
    def test_full_report_byte_identical(self, config, max_pes, backend):
        assert_byte_identical(config, max_pes, backend)

    @given(st.sampled_from([0, 3, 9]))
    @settings(max_examples=3, deadline=None)
    def test_no_vsa_degenerate_workload(self, seed):
        """All-neural DAGs (no VSA nodes, trivial Phase II) stay identical."""
        config = SynthConfig(seed=seed, n_ops=6, depth=3,
                             neural_fraction=1.0, symbolic_ratio=0.0)
        assert_byte_identical(config, 256, "schedule")

    @pytest.mark.parametrize("workload", ["prae", "nvsa", "mimonet"])
    @pytest.mark.parametrize("backend", ["analytic", "schedule"])
    def test_registry_workloads_identical(self, workload, backend):
        graph = build_dataflow_graph(build_workload(workload).build_trace())
        oracle = OracleEngine(max_pes=4096, backend=backend).explore(graph)
        report = DseEngine(max_pes=4096, backend=backend).explore(graph)
        assert pickle.dumps(report) == pickle.dumps(oracle)


class TestPrunedTrulyDominated:
    """Pruned candidates, priced after the fact, really were dominated."""

    @given(synth_configs, pe_budgets, backends)
    @_QUICK
    def test_pruned_candidates_truly_dominated(self, config, max_pes, backend):
        graph = graph_for(config)
        candidates, outcome, priced_backend, (layers, vsa) = screen(
            graph, max_pes, backend,
        )
        by_index = {ev.index: ev for ev in outcome.evals}
        min_t_par = min((ev.t_parallel, ev.index) for ev in outcome.evals)
        min_t_seq = min((ev.t_sequential, ev.index) for ev in outcome.evals)
        points = [
            (ev.best_cycles, area_pe_equiv(ev.h, ev.w, ev.n_sub),
             ev.best_cycles * area_pe_equiv(ev.h, ev.w, ev.n_sub))
            for ev in outcome.evals
        ]
        for p in outcome.pruned:
            assert p.index not in by_index
            # Price the pruned candidate with the *real* backend: its
            # true point must be strictly dominated by a priced one.
            score = scalar_score(priced_backend, p.h, p.w, p.n_sub, layers, vsa)
            area = area_pe_equiv(p.h, p.w, p.n_sub)
            best = min(score.t_sequential, score.t_parallel)
            true_point = (best, area, best * area)
            assert any(
                all(q[i] <= true_point[i] for i in range(3))
                and q != true_point
                for q in points
            )
            # ... and it could never have won the first-wins Phase I
            # reduction for either mode (strictly worse, or tied with a
            # smaller index already holding the win).
            assert (min_t_par[0], min_t_par[1]) < (score.t_parallel, p.index)
            assert (min_t_seq[0], min_t_seq[1]) < (score.t_sequential, p.index)

    @given(synth_configs)
    @_QUICK
    def test_counter_identities(self, config):
        graph = graph_for(config)
        candidates, outcome, _, _ = screen(graph, 256, "schedule")
        assert outcome.screened == len(candidates)
        assert outcome.priced + len(outcome.pruned) == outcome.screened
        oracle = OracleEngine(max_pes=256, backend="schedule").explore(graph)
        evaluated = sum(c.evaluated for c in (*outcome.evals, *outcome.pruned))
        assert evaluated == oracle.phase1.candidates_evaluated


class _HalvedAnalytic(AnalyticBackend):
    """Prices every design point at half the analytic cycles."""

    def sequential_cycles(self, h, w, n_sub, layers, vsa_nodes):
        return super().sequential_cycles(h, w, n_sub, layers, vsa_nodes) // 2

    def parallel_cycles(self, h, w, nl, nv, layers, vsa_nodes):
        return super().parallel_cycles(h, w, nl, nv, layers, vsa_nodes) // 2

    def score_geometry(self, h, w, n_sub, layers, vsa_nodes, **_):
        return scalar_score(self, h, w, n_sub, layers, vsa_nodes)


class _RenamedAnalytic(AnalyticBackend):
    """Prices exactly like the analytic model, through its own class."""


class TestSlackSemantics:
    """The slack between a priced candidate and its analytic screen bound.

    The screen is the analytic backend; its bounds are exact (zero slack)
    for the plain analytic backend, which therefore skips pricing, sound
    at zero slack for any backend, and a negative slack is an error.
    """

    def test_screen_is_the_analytic_backend(self, small_nvsa_graph):
        """Any type but ``AnalyticBackend`` itself is priced after the
        screen — even a subclass that prices identically — and both paths
        report the same bytes."""
        reports, mf_stages = [], []
        for backend in (AnalyticBackend(), _RenamedAnalytic()):
            snap = timings_snapshot()
            reports.append(pickle.dumps(
                DseEngine(max_pes=1024, backend=backend)
                .explore(small_nvsa_graph)
            ))
            mf_stages.append(sorted(
                name for name in stage_timings_since(snap)
                if name.startswith("phase1.mf_")
            ))
        assert reports[0] == reports[1]
        assert mf_stages == [
            [], ["phase1.mf_priced", "phase1.mf_pruned", "phase1.mf_screened"]
        ]

    def test_self_screen_prunes_nothing_unsound(self):
        """Screening with the priced backend itself (exact bounds) still
        yields the oracle's accounting — the degenerate multi-fidelity
        case."""
        graph = graph_for(SynthConfig(seed=5, n_ops=8, depth=3))
        engine = DseEngine(max_pes=256, backend="schedule")
        layers, vsa = (tuple(d) for d in extract_cost_dims(graph))
        outcome = multifidelity_evaluate(
            screen_evals(engine, layers, vsa, ScheduleBackend()),
            layers, vsa, engine.backend,
        )
        oracle = OracleEngine(max_pes=256, backend="schedule").explore(graph)
        evaluated = sum(c.evaluated for c in (*outcome.evals, *outcome.pruned))
        assert evaluated == oracle.phase1.candidates_evaluated

    def test_backend_below_the_analytic_bound_raises(self, small_nvsa_graph):
        """Pruning trusts the bound, so a backend undercutting it must fail
        loudly instead of returning a report that differs from the oracle."""
        with pytest.raises(DSEError, match="_HalvedAnalytic"):
            DseEngine(max_pes=1024, backend=_HalvedAnalytic()).explore(
                small_nvsa_graph
            )


@pytest.mark.slow
class TestEquivalenceDeep:
    """CI deep job: the core properties across 200+ generated workloads."""

    @given(synth_configs, pe_budgets, backends)
    @_DEEP
    def test_byte_identity_across_the_grid(self, config, max_pes, backend):
        assert_byte_identical(config, max_pes, backend)

    @given(synth_configs, backends)
    @_DEEP
    def test_pruned_domination_deep(self, config, backend):
        graph = graph_for(config)
        _, outcome, priced_backend, (layers, vsa) = screen(
            graph, 1024, backend,
        )
        points = [
            (ev.best_cycles, area_pe_equiv(ev.h, ev.w, ev.n_sub),
             ev.best_cycles * area_pe_equiv(ev.h, ev.w, ev.n_sub))
            for ev in outcome.evals
        ]
        for p in outcome.pruned:
            score = scalar_score(priced_backend, p.h, p.w, p.n_sub, layers, vsa)
            area = area_pe_equiv(p.h, p.w, p.n_sub)
            best = min(score.t_sequential, score.t_parallel)
            true_point = (best, area, best * area)
            assert any(
                all(q[i] <= true_point[i] for i in range(3))
                and q != true_point
                for q in points
            )
