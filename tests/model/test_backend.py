"""Property tests for the evaluation-backend seam.

Three cross-validation contracts:

* :class:`~repro.model.backend.AnalyticBackend` must equal the
  pre-refactor scalar models of :mod:`repro.model.runtime` **bit for
  bit** on randomized workloads/geometries — the seam may never perturb
  the default cost model;
* every backend's ``partition_pricer`` equals its reference pricing
  (``parallel_cycles`` and ``evaluate_design``; ``score_geometry``
  against the base-class scan is held in
  ``tests/dse/test_partition_search.py``);
* :class:`~repro.model.backend.ScheduleBackend` totals must be >= the
  analytic compute cycles for the same design point (memory traffic can
  only add time), with the breakdown identity
  ``total == compute + fill_drain + dram - overlap`` and the overlap
  bounded by what the DRAM model could have hidden.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.dram import DramModel
from repro.errors import ConfigError
from repro.model.backend import (
    EVALUATION_BACKENDS,
    AnalyticBackend,
    BackendInfo,
    CycleBreakdown,
    DesignEvaluation,
    GeometryScore,
    ScheduleBackend,
    make_backend,
)
from repro.model.runtime import (
    parallel_runtime,
    sequential_runtime,
)
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
geom = st.tuples(
    st.sampled_from([4, 8, 16, 32]),          # H
    st.sampled_from([4, 8, 16, 32]),          # W
    st.sampled_from([2, 3, 4, 8, 16]),        # N
)
layer_sets = st.lists(gemm, min_size=1, max_size=4)
vsa_sets = st.lists(vsa, min_size=0, max_size=3)
modes = st.sampled_from(["sequential", "parallel"])

#: Every pricing path: the analytic models, two schedule byte widths,
#: and a DRAM pipe narrow enough that transfers often set the makespan.
BACKENDS = (
    AnalyticBackend(),
    ScheduleBackend.from_precision(MIXED_PRECISION_PRESETS["MP"]),
    ScheduleBackend.from_precision(MIXED_PRECISION_PRESETS["INT4"]),
    ScheduleBackend(dram=DramModel(bandwidth_gb_s=0.05)),  # 1 byte/cycle
)


def partitions(n_sub: int, count: int):
    """Per-node allocations as Phase II leaves them: non-uniform, in [1, N)."""
    return st.lists(
        st.integers(1, max(1, n_sub - 1)), min_size=count, max_size=count
    )


class TestAnalyticEqualsPreRefactorModels:
    @given(geom, layer_sets, vsa_sets)
    @settings(max_examples=60, deadline=None)
    def test_primitives_match_scalar_models(self, g, layers, vsa_nodes):
        h, w, n = g
        backend = AnalyticBackend()
        assert backend.sequential_cycles(h, w, n, layers, vsa_nodes) == (
            sequential_runtime(h, w, n, layers, vsa_nodes)
        )
        nl = [max(1, n - 1)] * len(layers)
        nv = [1] * len(vsa_nodes)
        assert backend.parallel_cycles(h, w, nl, nv, layers, vsa_nodes) == (
            parallel_runtime(h, w, nl, nv, layers, vsa_nodes)
        )

    @given(geom, layer_sets, vsa_sets, st.data())
    @settings(max_examples=30, deadline=None)
    def test_partition_pricer_matches_parallel_cycles(
        self, g, layers, vsa_nodes, data
    ):
        h, w, n = g
        layers, vsa_nodes = tuple(layers), tuple(vsa_nodes)
        points = [
            ([nl_bar] * len(layers), [max(1, n - nl_bar)] * len(vsa_nodes))
            for nl_bar in (1, max(1, n // 2), n - 1)
        ] + [
            (data.draw(partitions(n, len(layers))),
             data.draw(partitions(n, len(vsa_nodes))))
            for _ in range(3)
        ]
        for backend in BACKENDS:
            pricer = backend.partition_pricer(h, w, layers, vsa_nodes)
            for nl, nv in points:
                assert int(pricer(nl, nv)) == backend.parallel_cycles(
                    h, w, nl, nv, layers, vsa_nodes
                ) == backend.evaluate_design(
                    h, w, n, "parallel", nl, nv, layers, vsa_nodes
                ).breakdown.total

    def test_partition_pricer_matches_parallel_cycles_past_int64(self):
        """Cycle counts past int64 price exactly: Python ints never wrap."""
        layers = (GemmDims(30_000_000, 30_000_000, 30_000_000),
                  GemmDims(4, 4, 4))
        vsa_nodes = (VsaDims(2_000_000, 2_000_000_000), VsaDims(2, 64),
                     VsaDims(2, 64))
        h, w, n = 4, 4, 8
        for backend in BACKENDS:
            pricer = backend.partition_pricer(h, w, layers, vsa_nodes)
            for nl, nv in (([1, 7], [7, 1, 1]), ([7, 1], [1, 7, 3])):
                total = backend.parallel_cycles(
                    h, w, nl, nv, layers, vsa_nodes
                )
                assert total > 2**63
                assert pricer(nl, nv) == total == backend.evaluate_design(
                    h, w, n, "parallel", nl, nv, layers, vsa_nodes
                ).breakdown.total

    @given(geom, layer_sets, vsa_sets, modes)
    @settings(max_examples=40, deadline=None)
    def test_design_breakdown_reconstructs_totals(
        self, g, layers, vsa_nodes, mode
    ):
        """Analytic breakdown components sum back to the model totals."""
        h, w, n = g
        backend = AnalyticBackend()
        nl = [1] * len(layers)
        nv = [max(1, n - 1)] * len(vsa_nodes)
        ev = backend.evaluate_design(
            h, w, n, mode, nl, nv, layers, vsa_nodes
        )
        b = ev.breakdown
        assert b.dram == 0
        assert b.total == b.compute + b.fill_drain + b.dram - b.overlap
        if mode == "sequential":
            assert b.overlap == 0
            assert b.total == sequential_runtime(h, w, n, layers, vsa_nodes)
        elif vsa_nodes:
            # Parallel: the faster side hides entirely under the slower.
            assert b.total == parallel_runtime(
                h, w, nl, nv, layers, vsa_nodes
            )
        assert len(ev.node_cycles) == len(layers) + len(vsa_nodes)


class TestScheduleBackendBounds:
    @given(geom, layer_sets, vsa_sets)
    @settings(max_examples=40, deadline=None)
    def test_totals_at_least_analytic_compute(self, g, layers, vsa_nodes):
        """Memory traffic can only add time, never remove compute."""
        h, w, n = g
        sched = ScheduleBackend()
        assert sched.sequential_cycles(h, w, n, layers, vsa_nodes) >= (
            sequential_runtime(h, w, n, layers, vsa_nodes)
        )
        nl = [1] * len(layers)
        nv = [max(1, n - 1)] * len(vsa_nodes)
        assert sched.parallel_cycles(h, w, nl, nv, layers, vsa_nodes) >= (
            parallel_runtime(h, w, nl, nv, layers, vsa_nodes)
        )

    @given(geom, layer_sets, vsa_sets, modes)
    @settings(max_examples=40, deadline=None)
    def test_breakdown_identity_and_overlap_bounds(
        self, g, layers, vsa_nodes, mode
    ):
        h, w, n = g
        sched = ScheduleBackend()
        ev = sched.evaluate_design(
            h, w, n, mode,
            [1] * len(layers), [max(1, n - 1)] * len(vsa_nodes),
            layers, vsa_nodes,
        )
        b = ev.breakdown
        assert b.total == b.compute + b.fill_drain + b.dram - b.overlap
        assert 0 <= b.overlap <= b.compute + b.fill_drain + b.dram
        assert b.total >= b.compute + b.fill_drain - b.overlap
        if mode == "sequential":
            # One unit serializes all compute, so the only hideable
            # cycles are DRAM transfers: overlap is bounded by what the
            # DRAM model actually moved.
            assert b.overlap <= b.dram

    @given(geom, layer_sets, vsa_sets)
    @settings(max_examples=30, deadline=None)
    def test_geometry_scores_dominate_analytic(self, g, layers, vsa_nodes):
        """Pointwise schedule >= analytic ⇒ the DSE's min can only rise."""
        h, w, n = g
        layers, vsa_nodes = tuple(layers), tuple(vsa_nodes)
        ana = AnalyticBackend().score_geometry(h, w, n, layers, vsa_nodes)
        sched = ScheduleBackend().score_geometry(h, w, n, layers, vsa_nodes)
        assert sched.t_sequential >= ana.t_sequential
        assert sched.t_parallel >= ana.t_parallel

    def test_starved_bandwidth_is_dram_bound(self):
        """A near-zero pipe forces the timeline onto the DRAM channel."""
        layers = (GemmDims(64, 64, 64),)
        vsa_nodes = (VsaDims(8, 256),)
        wide = ScheduleBackend(dram=DramModel(bandwidth_gb_s=1000.0))
        narrow = ScheduleBackend(dram=DramModel(bandwidth_gb_s=0.05))
        t_wide = wide.sequential_cycles(8, 8, 4, layers, vsa_nodes)
        t_narrow = narrow.sequential_cycles(8, 8, 4, layers, vsa_nodes)
        assert t_narrow > t_wide
        ev = narrow.evaluate_design(
            8, 8, 4, "sequential", (), (), layers, vsa_nodes
        )
        assert ev.breakdown.dram > ev.breakdown.compute

    def test_mem_c_spill_adds_non_overlapped_cycles(self):
        layers = (GemmDims(256, 256, 256),)
        sched = ScheduleBackend()
        free = sched.evaluate_design(
            8, 8, 4, "sequential", (), (), layers, (), mem_c_bytes=None
        )
        tight = sched.evaluate_design(
            8, 8, 4, "sequential", (), (), layers, (), mem_c_bytes=16
        )
        assert tight.breakdown.total > free.breakdown.total

    def test_from_precision_scales_bytes(self):
        mp = MIXED_PRECISION_PRESETS["MP"]
        fp32 = MIXED_PRECISION_PRESETS["FP32"]
        layers = (GemmDims(128, 128, 128),)
        t_mp = ScheduleBackend.from_precision(mp).sequential_cycles(
            8, 8, 2, layers, ()
        )
        t_fp32 = ScheduleBackend.from_precision(fp32).sequential_cycles(
            8, 8, 2, layers, ()
        )
        assert t_fp32 >= t_mp  # 4x the bytes can only slow things down


class TestProtocolSurface:
    def test_registry_names_and_info(self):
        assert EVALUATION_BACKENDS == ("analytic", "schedule")
        for name in EVALUATION_BACKENDS:
            backend = make_backend(name)
            assert backend.name == name
            assert backend.info == BackendInfo(name, backend.version)
            assert str(backend.info) == f"{name} v{backend.version}"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            make_backend("rtl-calibrated")

    def test_backends_pickle_for_process_pools(self):
        for name in EVALUATION_BACKENDS:
            backend = make_backend(
                name, precision=MIXED_PRECISION_PRESETS["MP"], clock_mhz=300.0
            )
            clone = pickle.loads(pickle.dumps(backend))
            score = clone.score_geometry(
                8, 8, 4, (GemmDims(16, 16, 16),), (VsaDims(4, 64),)
            )
            assert isinstance(score, GeometryScore)

    def test_breakdown_identity_enforced(self):
        with pytest.raises(ConfigError):
            CycleBreakdown(
                compute=10, fill_drain=0, dram=0, overlap=0, total=11
            )
        with pytest.raises(ConfigError):
            CycleBreakdown(
                compute=-1, fill_drain=0, dram=0, overlap=0, total=-1
            )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            AnalyticBackend().evaluate_design(
                8, 8, 2, "hybrid", (), (), (GemmDims(4, 4, 4),), ()
            )

    def test_evaluation_latency_conversion(self):
        ev = DesignEvaluation(
            backend=BackendInfo("analytic", "1"),
            breakdown=CycleBreakdown(
                compute=272_000_000, fill_drain=0, dram=0, overlap=0,
                total=272_000_000,
            ),
        )
        assert ev.total_cycles == 272_000_000
        assert ev.latency_s(272.0) == pytest.approx(1.0)
