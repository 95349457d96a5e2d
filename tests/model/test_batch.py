"""Property tests: batched NumPy models ≡ scalar models, bit for bit.

The batched kernels (:mod:`repro.model.batch`) are pure int64
ceil-arithmetic, so every function here is required to *equal* its
scalar twin in :mod:`repro.model.runtime` — not approximate it — and
the partition searches (bisect, vectorized dense) must reproduce the
serial strict-``<`` first-wins scan exactly, including on plateaus.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.model.batch import (
    PartitionSearchOutcome,
    WorkloadArrays,
    bisect_uniform_partition,
    dense_uniform_partition,
    nn_total_runtime_vec,
    nn_uniform_runtime_batch,
    parallel_runtime_vec,
    parallel_uniform_runtime_batch,
    sequential_runtime_batch,
    sequential_runtime_vec,
    vsa_total_runtime_vec,
    vsa_uniform_runtime_batch,
)
from repro.model.runtime import (
    nn_total_runtime,
    parallel_runtime,
    sequential_runtime,
    vsa_total_runtime,
)
from repro.nn.gemm import GemmDims
from repro.trace.opnode import VsaDims

gemm = st.builds(
    GemmDims,
    m=st.integers(1, 600),
    n=st.integers(1, 600),
    k=st.integers(1, 600),
)
vsa = st.builds(VsaDims, n=st.integers(1, 64), d=st.integers(1, 2048))
geom = st.tuples(
    st.sampled_from([4, 8, 16, 32, 64]),      # H
    st.sampled_from([4, 8, 16, 32, 64]),      # W
    st.sampled_from([2, 3, 4, 8, 16, 64, 512]),  # N
)
layer_sets = st.lists(gemm, min_size=1, max_size=6)
vsa_sets = st.lists(vsa, min_size=1, max_size=4)


def serial_scan(h, w, n_sub, layers, vsa_nodes):
    """The reference: ascending strict-< first-wins dense scan."""
    best = None
    for nl in range(1, n_sub):
        t = parallel_runtime(
            h, w, [nl] * len(layers), [n_sub - nl] * len(vsa_nodes),
            layers, vsa_nodes,
        )
        if best is None or t < best[0]:
            best = (int(t), nl, n_sub - nl)
    return best


class TestVecEquivalence:
    @given(geom, layer_sets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_nn_total_matches_scalar(self, g, layers, data):
        h, w, n_sub = g
        nl = [
            data.draw(st.integers(1, n_sub)) for _ in layers
        ]
        arrays = WorkloadArrays.from_dims(layers)
        assert nn_total_runtime_vec(h, w, nl, arrays) == nn_total_runtime(
            h, w, nl, layers
        )

    @given(geom, layer_sets, vsa_sets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_vsa_parallel_sequential_match_scalar(self, g, layers, vsa_nodes,
                                                  data):
        h, w, n_sub = g
        nl = [data.draw(st.integers(1, n_sub)) for _ in layers]
        nv = [data.draw(st.integers(1, n_sub)) for _ in vsa_nodes]
        arrays = WorkloadArrays.from_dims(layers, vsa_nodes)
        assert vsa_total_runtime_vec(h, w, nv, arrays) == vsa_total_runtime(
            h, w, nv, vsa_nodes
        )
        assert parallel_runtime_vec(h, w, nl, nv, arrays) == parallel_runtime(
            h, w, nl, nv, layers, vsa_nodes
        )
        assert sequential_runtime_vec(
            h, w, n_sub, arrays
        ) == sequential_runtime(h, w, n_sub, layers, vsa_nodes)

    @given(layer_sets, vsa_sets, st.lists(geom, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_geometry_batch_matches_scalar(self, layers, vsa_nodes, geoms):
        arrays = WorkloadArrays.from_dims(layers, vsa_nodes)
        batch = sequential_runtime_batch(
            [g[0] for g in geoms], [g[1] for g in geoms],
            [g[2] for g in geoms], arrays,
        )
        assert batch.dtype == np.int64
        for value, (h, w, n) in zip(batch, geoms):
            assert int(value) == sequential_runtime(h, w, n, layers, vsa_nodes)

    @given(geom, layer_sets, vsa_sets)
    @settings(max_examples=40, deadline=None)
    def test_uniform_batches_match_scalar(self, g, layers, vsa_nodes):
        h, w, n_sub = g
        arrays = WorkloadArrays.from_dims(layers, vsa_nodes)
        splits = np.arange(1, n_sub + 1, dtype=np.int64)
        t_nn = nn_uniform_runtime_batch(h, w, splits, arrays)
        t_vsa = vsa_uniform_runtime_batch(h, w, splits, arrays)
        for i, s in enumerate(splits):
            s = int(s)
            assert int(t_nn[i]) == nn_total_runtime(
                h, w, [s] * len(layers), layers
            )
            assert int(t_vsa[i]) == vsa_total_runtime(
                h, w, [s] * len(vsa_nodes), vsa_nodes
            )


class TestMonotonicity:
    """The structural facts the bisection's correctness rests on."""

    @given(geom, layer_sets, vsa_sets)
    @settings(max_examples=60, deadline=None)
    def test_tnn_nonincreasing_tvsa_nonincreasing(self, g, layers, vsa_nodes):
        h, w, n_sub = g
        arrays = WorkloadArrays.from_dims(layers, vsa_nodes)
        splits = np.arange(1, n_sub + 1, dtype=np.int64)
        t_nn = nn_uniform_runtime_batch(h, w, splits, arrays)
        t_vsa = vsa_uniform_runtime_batch(h, w, splits, arrays)
        assert (np.diff(t_nn) <= 0).all(), "t_nn must be non-increasing in N̄l"
        assert (np.diff(t_vsa) <= 0).all(), "t_vsa must be non-increasing in N̄v"


class TestPartitionSearch:
    @given(geom, layer_sets, vsa_sets)
    @settings(max_examples=150, deadline=None)
    def test_bisect_and_dense_match_serial_scan(self, g, layers, vsa_nodes):
        h, w, n_sub = g
        arrays = WorkloadArrays.from_dims(layers, vsa_nodes)
        expected = serial_scan(h, w, n_sub, layers, vsa_nodes)
        for search in (bisect_uniform_partition, dense_uniform_partition):
            found = search(h, w, n_sub, arrays)
            assert (found.t_parallel, found.nl_bar, found.nv_bar) == expected

    def test_plateau_resolves_to_leftmost_split(self):
        """A flat objective must return N̄l = 1 (serial first-wins)."""
        # One tiny layer and one tiny VSA node: every split gives the
        # same ceil values, so f is constant over the whole range.
        layers = [GemmDims(1, 1, 1)]
        vsa_nodes = [VsaDims(1, 1)]
        arrays = WorkloadArrays.from_dims(layers, vsa_nodes)
        h, w, n_sub = 4, 4, 64
        flat = parallel_uniform_runtime_batch(
            h, w, n_sub, np.arange(1, n_sub, dtype=np.int64), arrays
        )
        assert len(set(flat.tolist())) == 1, "fixture must be a plateau"
        found = bisect_uniform_partition(h, w, n_sub, arrays)
        assert found.nl_bar == 1
        assert found.t_parallel == int(flat[0])

    def test_bisect_probe_count_is_logarithmic(self):
        layers = [GemmDims(64, 4096, 64)]
        vsa_nodes = [VsaDims(16, 8192)]
        arrays = WorkloadArrays.from_dims(layers, vsa_nodes)
        n_sub = 2048
        found = bisect_uniform_partition(4, 4, n_sub, arrays)
        dense = dense_uniform_partition(4, 4, n_sub, arrays)
        assert dense.probes == n_sub - 1
        # Two bisection passes, two (t_nn, t_vsa) probes per step.
        assert found.probes <= 6 * n_sub.bit_length()
        assert (found.t_parallel, found.nl_bar) == (
            dense.t_parallel, dense.nl_bar
        )

    def test_outcome_is_plain_data(self):
        arrays = WorkloadArrays.from_dims(
            [GemmDims(8, 8, 8)], [VsaDims(2, 64)]
        )
        found = bisect_uniform_partition(4, 4, 4, arrays)
        assert isinstance(found, PartitionSearchOutcome)
        assert found.nl_bar + found.nv_bar == 4

    def test_rejects_degenerate_inputs(self):
        arrays = WorkloadArrays.from_dims([GemmDims(8, 8, 8)], [VsaDims(2, 4)])
        no_vsa = WorkloadArrays.from_dims([GemmDims(8, 8, 8)])
        for search in (bisect_uniform_partition, dense_uniform_partition):
            with pytest.raises(ConfigError):
                search(4, 4, 1, arrays)
            with pytest.raises(ConfigError):
                search(4, 4, 8, no_vsa)

    def test_overflow_is_rejected_not_wrapped(self):
        """Dims that could wrap int64 must raise, never diverge silently."""
        huge = [GemmDims(30_000_000, 30_000_000, 30_000_000)]
        arrays = WorkloadArrays.from_dims(huge)
        with pytest.raises(ConfigError, match="int64"):
            nn_total_runtime_vec(4, 4, [1], arrays)
        with pytest.raises(ConfigError, match="scalar models"):
            nn_uniform_runtime_batch(
                4, 4, np.array([1], dtype=np.int64), arrays
            )
        with pytest.raises(ConfigError):
            sequential_runtime_batch([4], [4], [2], arrays)
        both = WorkloadArrays.from_dims(huge, [VsaDims(1, 2)])
        with pytest.raises(ConfigError):
            bisect_uniform_partition(4, 4, 4, both)
        with pytest.raises(ConfigError):
            dense_uniform_partition(4, 4, 4, both)
        huge_vsa = WorkloadArrays.from_dims(
            [GemmDims(1, 1, 1)], [VsaDims(2_000_000, 2_000_000_000)]
        )
        with pytest.raises(ConfigError):
            vsa_total_runtime_vec(4, 4, [1], huge_vsa)

    def test_headroom_check_admits_realistic_scales(self):
        """Paper-scale dims sail through; the guard memoizes per domain."""
        arrays = WorkloadArrays.from_dims(
            [GemmDims(4096, 4096, 4096)] * 64, [VsaDims(64, 8192)] * 64
        )
        assert bisect_uniform_partition(256, 256, 512, arrays).nl_bar >= 1
        assert (256, 256, 256, 256) in arrays._headroom_ok

    def test_workload_arrays_validation(self):
        with pytest.raises(ConfigError):
            WorkloadArrays.from_dims([])
        arrays = WorkloadArrays.from_dims([GemmDims(8, 8, 8)])
        with pytest.raises(ConfigError):
            nn_total_runtime_vec(4, 4, [1, 1], arrays)   # wrong length
        with pytest.raises(ConfigError):
            vsa_total_runtime_vec(4, 4, [1], arrays)     # no VSA nodes
