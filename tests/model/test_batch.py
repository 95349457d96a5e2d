"""Property tests: the DSE's integer pricing ≡ the scalar models, bit for bit.

:mod:`repro.model.pricing` prices a batch of splits and geometries over
a workload's *distinct* dimensions in plain Python ints, so every value
here is required to *equal* its scalar twin in
:mod:`repro.model.runtime` — on dimension lists drawn with duplicates
(so the grouping is exercised) and on magnitudes past int64 — and the
bisection must reproduce the base-class strict-``<`` first-wins scan
exactly, including on plateaus and for every ``N ≥ 2``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.model.backend import AnalyticBackend, EvaluationBackend
from repro.model.pricing import (
    PartitionSearchOutcome,
    UniformSplits,
    WorkloadGroups,
    partition_pricer,
)
from repro.model.runtime import (
    nn_total_runtime,
    parallel_runtime,
    sequential_runtime,
    vsa_total_runtime,
)
from repro.nn.gemm import GemmDims
from repro.trace.opnode import VsaDims

# Shared n (GEMM) and shared d (VSA) values make distinct shapes land in
# one group; drawing node lists from a small shape pool makes repeats.
gemm = st.builds(
    GemmDims,
    m=st.integers(1, 600),
    n=st.integers(1, 600) | st.sampled_from([16, 64]),
    k=st.integers(1, 600),
)
vsa = st.builds(
    VsaDims,
    n=st.integers(1, 64),
    d=st.integers(1, 2048) | st.sampled_from([256, 1024]),
)
geom = st.tuples(
    st.sampled_from([4, 8, 16, 32, 64]),      # H
    st.sampled_from([4, 8, 16, 32, 64]),      # W
    st.sampled_from([2, 3, 4, 8, 16, 64, 512]),  # N
)


def with_repeats(shape, max_size):
    return st.lists(shape, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                              max_size=max_size)
    )


layer_sets = with_repeats(gemm, 8)
vsa_sets = with_repeats(vsa, 6)

_ANALYTIC = AnalyticBackend()

#: Past int64: Eq. 1 alone is ~1e20 cycles here, and the VSA node's
#: spatial term ~4e20.
HUGE_LAYERS = (GemmDims(30_000_000, 30_000_000, 30_000_000),)
HUGE_VSA = (VsaDims(2_000_000, 2_000_000_000), VsaDims(2, 64))


def splits(h, w, n_sub, layers, vsa_nodes=()):
    return UniformSplits(h, w, n_sub, WorkloadGroups.from_dims(layers, vsa_nodes))


def scan(h, w, n_sub, layers, vsa_nodes):
    """The base-class scalar scan: ascending strict-< first-wins."""
    return EvaluationBackend.score_geometry(
        _ANALYTIC, h, w, n_sub, tuple(layers), tuple(vsa_nodes)
    )


class TestVecEquivalence:
    @given(geom, layer_sets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_nn_total_matches_scalar(self, g, layers, data):
        h, w, n_sub = g
        nl = [data.draw(st.integers(1, n_sub)) for _ in layers]
        assert partition_pricer(h, w, layers, ())(nl, []) == nn_total_runtime(
            h, w, nl, layers
        )

    @given(geom, layer_sets, vsa_sets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_vsa_parallel_sequential_match_scalar(self, g, layers, vsa_nodes,
                                                  data):
        h, w, n_sub = g
        nl = [data.draw(st.integers(1, n_sub)) for _ in layers]
        nv = [data.draw(st.integers(1, n_sub)) for _ in vsa_nodes]
        assert partition_pricer(h, w, (), vsa_nodes)([], nv) == (
            vsa_total_runtime(h, w, nv, vsa_nodes)
        )
        assert partition_pricer(h, w, layers, vsa_nodes)(nl, nv) == (
            parallel_runtime(h, w, nl, nv, layers, vsa_nodes)
        )
        assert splits(h, w, n_sub, layers, vsa_nodes).t_sequential() == (
            sequential_runtime(h, w, n_sub, layers, vsa_nodes)
        )

    @given(layer_sets, vsa_sets, st.lists(geom, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_geometry_batch_matches_scalar(self, layers, vsa_nodes, geoms):
        scores = _ANALYTIC.score_geometries(geoms, layers, vsa_nodes)
        assert len(scores) == len(geoms)
        for score, (h, w, n) in zip(scores, geoms):
            assert score.t_sequential == sequential_runtime(
                h, w, n, layers, vsa_nodes
            )

    @given(geom, layer_sets, vsa_sets)
    @settings(max_examples=40, deadline=None)
    def test_uniform_batches_match_scalar(self, g, layers, vsa_nodes):
        h, w, n_sub = g
        ev = splits(h, w, n_sub, layers, vsa_nodes)
        for s in range(1, n_sub + 1):
            assert ev.t_nn(s) == nn_total_runtime(
                h, w, [s] * len(layers), layers
            )
            assert ev.t_vsa(s) == vsa_total_runtime(
                h, w, [s] * len(vsa_nodes), vsa_nodes
            )

    def test_prices_past_int64_exactly(self):
        """Python ints cannot wrap: huge dims price like the scalar models."""
        h, w, n_sub = 4, 4, 4
        ev = splits(h, w, n_sub, HUGE_LAYERS, HUGE_VSA)
        t_nn = nn_total_runtime(h, w, [1], HUGE_LAYERS)
        t_vsa = vsa_total_runtime(h, w, [1, 1], HUGE_VSA)
        assert min(t_nn, t_vsa) > 2**63
        assert ev.t_nn(1) == t_nn
        assert ev.t_vsa(1) == t_vsa
        assert ev.t_sequential() == sequential_runtime(
            h, w, n_sub, HUGE_LAYERS, HUGE_VSA
        )
        for nl, nv in (([1], [3, 3]), ([3], [1, 2])):
            assert partition_pricer(h, w, HUGE_LAYERS, HUGE_VSA)(nl, nv) == (
                parallel_runtime(h, w, nl, nv, HUGE_LAYERS, HUGE_VSA)
            )
        fast = _ANALYTIC.score_geometry(h, w, n_sub, HUGE_LAYERS, HUGE_VSA)
        ref = scan(h, w, n_sub, HUGE_LAYERS, HUGE_VSA)
        assert (fast.t_sequential, fast.t_parallel, fast.nl_bar) == (
            ref.t_sequential, ref.t_parallel, ref.nl_bar
        )

    def test_pricer_rejects_wrong_vector_lengths(self):
        pricer = partition_pricer(4, 4, [GemmDims(8, 8, 8)], [VsaDims(2, 4)])
        with pytest.raises(ConfigError):
            pricer([1, 1], [1])
        with pytest.raises(ConfigError):
            pricer([1], [])


class TestMonotonicity:
    """The structural facts the bisection's correctness rests on."""

    @given(geom, layer_sets, vsa_sets)
    @settings(max_examples=60, deadline=None)
    def test_tnn_nonincreasing_tvsa_nonincreasing(self, g, layers, vsa_nodes):
        h, w, n_sub = g
        ev = splits(h, w, n_sub, layers, vsa_nodes)
        t_nn = [ev.t_nn(s) for s in range(1, n_sub + 1)]
        t_vsa = [ev.t_vsa(s) for s in range(1, n_sub + 1)]
        assert all(a >= b for a, b in zip(t_nn, t_nn[1:])), \
            "t_nn must be non-increasing in N̄l"
        assert all(a >= b for a, b in zip(t_vsa, t_vsa[1:])), \
            "t_vsa must be non-increasing in N̄v"


class TestPartitionSearch:
    @given(
        st.sampled_from([4, 8, 16, 32, 64]),
        st.sampled_from([4, 8, 16, 32, 64]),
        st.integers(2, 16) | st.integers(17, 4096),
        layer_sets,
        vsa_sets,
    )
    @settings(max_examples=150, deadline=None)
    def test_bisect_matches_serial_scan(self, h, w, n_sub, layers, vsa_nodes):
        fast = _ANALYTIC.score_geometry(h, w, n_sub, layers, vsa_nodes)
        ref = scan(h, w, n_sub, layers, vsa_nodes)
        assert (
            fast.t_sequential, fast.t_parallel, fast.nl_bar, fast.nv_bar,
            fast.evaluated,
        ) == (
            ref.t_sequential, ref.t_parallel, ref.nl_bar, ref.nv_bar,
            ref.evaluated,
        )
        assert fast.probes <= min(ref.probes, 6 * n_sub.bit_length() + 1)

    def test_every_small_n_matches_serial_scan(self):
        """``N`` from 2 up, one geometry each, on a crossing and a plateau."""
        fixtures = (
            ([GemmDims(64, 4096, 64), GemmDims(9, 4096, 64)],
             [VsaDims(16, 8192), VsaDims(3, 8192)]),
            ([GemmDims(1, 1, 1)], [VsaDims(1, 1)]),
        )
        for layers, vsa_nodes in fixtures:
            for n_sub in range(2, 65):
                fast = _ANALYTIC.score_geometry(4, 4, n_sub, layers, vsa_nodes)
                ref = scan(4, 4, n_sub, layers, vsa_nodes)
                assert (fast.t_parallel, fast.nl_bar, fast.nv_bar) == (
                    ref.t_parallel, ref.nl_bar, ref.nv_bar
                ), n_sub

    def test_plateau_resolves_to_leftmost_split(self):
        """A flat objective must return N̄l = 1 (serial first-wins)."""
        # One tiny layer and one tiny VSA node: every split gives the
        # same ceil values, so f is constant over the whole range.
        layers = [GemmDims(1, 1, 1)]
        vsa_nodes = [VsaDims(1, 1)]
        h, w, n_sub = 4, 4, 64
        flat = {
            parallel_runtime(h, w, [nl], [n_sub - nl], layers, vsa_nodes)
            for nl in range(1, n_sub)
        }
        assert len(flat) == 1, "fixture must be a plateau"
        found = splits(h, w, n_sub, layers, vsa_nodes).search()
        assert found.nl_bar == 1
        assert found.t_parallel == flat.pop()

    def test_bisect_probe_count_is_logarithmic(self):
        layers = [GemmDims(64, 4096, 64)]
        vsa_nodes = [VsaDims(16, 8192)]
        n_sub = 2048
        found = splits(4, 4, n_sub, layers, vsa_nodes).search()
        ref = scan(4, 4, n_sub, layers, vsa_nodes)
        assert ref.probes == n_sub           # 1 sequential + (N − 1) splits
        # Two bisection passes, two (t_nn, t_vsa) probes per step.
        assert found.probes <= 6 * n_sub.bit_length()
        assert (found.t_parallel, found.nl_bar) == (ref.t_parallel, ref.nl_bar)

    def test_outcome_is_plain_data(self):
        found = splits(4, 4, 4, [GemmDims(8, 8, 8)], [VsaDims(2, 64)]).search()
        assert isinstance(found, PartitionSearchOutcome)
        assert found.nl_bar + found.nv_bar == 4

    def test_rejects_degenerate_inputs(self):
        layers = [GemmDims(8, 8, 8)]
        with pytest.raises(ConfigError):
            splits(4, 4, 1, layers, [VsaDims(2, 4)]).search()
        with pytest.raises(ConfigError):
            splits(4, 4, 8, layers).search()
