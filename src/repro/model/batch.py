"""Batched NumPy evaluation of the analytical runtime models (Eqs. 1-5).

The scalar models in :mod:`repro.model.runtime` are exact but
interpreter-bound: every candidate design point pays Python-level
function calls and ``lru_cache`` lookups per layer and per VSA node. The
DSE hot path evaluates the *same* workload dimensions for thousands of
``(H, W, N, N̄l)`` points, so this module re-expresses Eqs. 1-5 as
vectorized integer ceil-division arithmetic over precomputed dimension
arrays:

* :class:`WorkloadArrays` — the per-workload ``(m, n, k)`` layer arrays
  and ``(n, d)`` VSA arrays, built once per graph (and memoized by
  :func:`repro.model.cache.cached_workload_arrays`);
* ``*_vec`` functions — one design point, all layers/VSA nodes at once
  (the Phase II refinement loop's shape);
* ``*_batch`` functions — many partitions or many geometries at once
  (the Phase I sweep's shape);
* :func:`bisect_uniform_partition` — the monotone crossing-point search
  that replaces the dense ``N̄l ∈ [1, N)`` scan, with an explicit
  plateau-resolution step so its result is **bit-identical** to the
  serial strict-``<`` first-wins scan (see DESIGN.md "Batched models &
  partition bisection" for the monotonicity and tie-break proofs).

Exactness: everything here is ``int64`` integer arithmetic —
``ceil(a/b) = -(-a // b)`` — so results equal the scalar models' Python
ints exactly, not approximately. There is no floating point anywhere in
this module. Because NumPy wraps silently on int64 overflow, every
entry point first checks an exact Python-int worst-case bound for its
``(H, W)`` domain (the models are monotone, so the extreme sits at
partition 1) and raises :class:`~repro.errors.ConfigError` when a
workload's dimensions could overflow — the scalar models handle such
pathological sizes (``AnalyticBackend`` falls back to them) rather than
risk a silently wrong design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..errors import ConfigError
from ..nn.gemm import GemmDims
from ..trace.opnode import VsaDims

__all__ = [
    "WorkloadArrays",
    "fits_int64_domain",
    "nn_total_runtime_vec",
    "vsa_total_runtime_vec",
    "parallel_runtime_vec",
    "sequential_runtime_vec",
    "nn_uniform_runtime_batch",
    "vsa_uniform_runtime_batch",
    "parallel_uniform_runtime_batch",
    "sequential_runtime_batch",
    "bisect_uniform_partition",
    "dense_uniform_partition",
    "PartitionSearchOutcome",
]


def _ceil_div(a, b):
    """Elementwise ``⌈a / b⌉`` for non-negative ints/arrays (exact)."""
    return -(-a // b)


#: Stay one bit under ``2**63 - 1`` so even an off-by-one in the bound
#: reasoning cannot reach the wrap-around.
_INT64_HEADROOM = 1 << 62


def _worst_case_total(
    arrays: "WorkloadArrays", h_lo: int, h_hi: int, w_lo: int, w_hi: int
) -> int:
    """Exact Python-int upper bound on every kernel value for a domain.

    Every batched expression is monotone in the partition counts, so
    its maximum over a probe domain sits at partition 1; the geometry
    factors are bounded by the ``[h_lo, h_hi] × [w_lo, w_hi]`` box
    (coefficients grow with ``H``/``W``, ceil quotients shrink). The
    returned total dominates every matrix entry, partial sum, and
    result the kernels can produce for this domain.
    """
    cd = lambda a, b: -(-a // b)  # noqa: E731 - exact Python-int ceil
    worst_nn = sum(
        (2 * h_hi + w_hi + g.m - 2) * cd(g.n, h_lo) * cd(g.k, w_lo)
        for g in arrays.layers
    )
    worst_vsa = 0
    for v in arrays.vsa_nodes:
        t_hi = 3 * h_hi + v.d - 1
        spatial = v.n * cd(v.d, w_lo * h_lo) * t_hi
        temporal = cd(v.n, w_lo) * cd(v.d, h_lo) * t_hi
        worst_vsa += max(spatial, temporal)
    return worst_nn + worst_vsa


def fits_int64_domain(
    arrays: "WorkloadArrays", h_lo: int, h_hi: int, w_lo: int, w_hi: int
) -> bool:
    """True when the batched kernels cannot overflow for this domain.

    Memoized per :class:`WorkloadArrays` instance, so callers (the
    engine's ``auto``/``bisect`` paths, Phase II) can probe it per
    geometry for the cost of a set lookup and fall back to the scalar
    models when it fails.
    """
    key = (h_lo, h_hi, w_lo, w_hi)
    if key in arrays._headroom_ok:
        return True
    # Shrinking the box only shrinks the bound (coefficients are maxed
    # at the high edge, ceil quotients at the low edge), so any proven
    # box that contains this domain proves it too — the sweep validates
    # its whole (H, W) range once and every per-geometry kernel check
    # rides that proof instead of recomputing the bound.
    for a, b, c, d in arrays._headroom_ok:
        if a <= h_lo and h_hi <= b and c <= w_lo and w_hi <= d:
            arrays._headroom_ok.add(key)
            return True
    if _worst_case_total(arrays, h_lo, h_hi, w_lo, w_hi) >= _INT64_HEADROOM:
        return False
    arrays._headroom_ok.add(key)
    return True


def _check_int64_headroom(
    arrays: "WorkloadArrays", h_lo: int, h_hi: int, w_lo: int, w_hi: int
) -> None:
    """Raise :class:`ConfigError` instead of letting NumPy wrap silently —
    the scalar models handle arbitrary magnitudes."""
    if not fits_int64_domain(arrays, h_lo, h_hi, w_lo, w_hi):
        worst = _worst_case_total(arrays, h_lo, h_hi, w_lo, w_hi)
        raise ConfigError(
            "workload dimensions too large for the batched int64 runtime "
            f"kernels (worst-case cycle count {worst:.3e} exceeds the "
            f"int64 guard for H in [{h_lo}, {h_hi}], W in [{w_lo}, "
            f"{w_hi}]); use the scalar models for this workload"
        )


@dataclass(frozen=True, eq=False)
class WorkloadArrays:
    """A workload's cost dimensions as ready-to-broadcast int64 arrays.

    One instance captures everything Eqs. 1-5 read about a workload:
    ``m/n/k`` per GEMM layer (``R_l``) and ``vn/vd`` per VSA node
    (``R_v``). Build one per dataflow graph and reuse it across every
    candidate geometry and partition — the arrays never change during a
    sweep.
    """

    layers: tuple[GemmDims, ...]
    vsa_nodes: tuple[VsaDims, ...]
    m: np.ndarray = field(repr=False)
    n: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)
    vn: np.ndarray = field(repr=False)
    vd: np.ndarray = field(repr=False)
    #: ``(h_lo, h_hi, w_lo, w_hi)`` domains already proven overflow-safe
    #: (memo of :func:`_check_int64_headroom`; identity-keyed, never
    #: part of equality/serialization semantics).
    _headroom_ok: set = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    @classmethod
    def from_dims(
        cls,
        layers: Sequence[GemmDims],
        vsa_nodes: Sequence[VsaDims] = (),
    ) -> "WorkloadArrays":
        layers = tuple(layers)
        vsa_nodes = tuple(vsa_nodes)
        if not layers:
            raise ConfigError("WorkloadArrays needs at least one GEMM layer")
        return cls(
            layers=layers,
            vsa_nodes=vsa_nodes,
            m=np.array([g.m for g in layers], dtype=np.int64),
            n=np.array([g.n for g in layers], dtype=np.int64),
            k=np.array([g.k for g in layers], dtype=np.int64),
            vn=np.array([v.n for v in vsa_nodes], dtype=np.int64),
            vd=np.array([v.d for v in vsa_nodes], dtype=np.int64),
        )

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_vsa(self) -> int:
        return len(self.vsa_nodes)


# -- one design point, vector partitions (Phase II's shape) ------------------


def nn_total_runtime_vec(
    h: int, w: int, nl: Sequence[int] | np.ndarray, arrays: WorkloadArrays
) -> int:
    """Eqs. 1+2 with a per-layer partition vector ``Nl`` (length L)."""
    nl = np.asarray(nl, dtype=np.int64)
    if nl.shape != arrays.m.shape:
        raise ConfigError(
            f"partition vector length {nl.size} != layer count "
            f"{arrays.n_layers}"
        )
    _check_int64_headroom(arrays, h, h, w, w)
    per_layer = (
        (2 * h + w + arrays.m - 2)
        * _ceil_div(_ceil_div(arrays.n, nl), h)
        * _ceil_div(arrays.k, w)
    )
    return int(per_layer.sum())


def vsa_total_runtime_vec(
    h: int, w: int, nv: Sequence[int] | np.ndarray, arrays: WorkloadArrays
) -> int:
    """Eqs. 3-5 with a per-node partition vector ``Nv`` (length V)."""
    nv = np.asarray(nv, dtype=np.int64)
    if nv.shape != arrays.vn.shape:
        raise ConfigError(
            f"partition vector length {nv.size} != VSA node count "
            f"{arrays.n_vsa}"
        )
    if arrays.n_vsa == 0:
        return 0
    _check_int64_headroom(arrays, h, h, w, w)
    t = 3 * h + arrays.vd - 1
    spatial = (arrays.vn * _ceil_div(arrays.vd, w * h * nv) * t).sum()
    temporal = (
        _ceil_div(arrays.vn, w) * _ceil_div(arrays.vd, h * nv) * t
    ).sum()
    return int(min(spatial, temporal))


def parallel_runtime_vec(
    h: int,
    w: int,
    nl: Sequence[int] | np.ndarray,
    nv: Sequence[int] | np.ndarray,
    arrays: WorkloadArrays,
) -> int:
    """Algorithm 1 line 8: ``max(t_nn, t_vsa)`` under vector partitions."""
    return max(
        nn_total_runtime_vec(h, w, nl, arrays),
        vsa_total_runtime_vec(h, w, nv, arrays),
    )


def sequential_runtime_vec(
    h: int, w: int, n_sub: int, arrays: WorkloadArrays
) -> int:
    """Algorithm 1 line 12: NN then VSA, each on the whole array."""
    t_nn = nn_total_runtime_vec(
        h, w, np.full(arrays.n_layers, n_sub, dtype=np.int64), arrays
    )
    if arrays.n_vsa == 0:
        return t_nn
    t_vsa = vsa_total_runtime_vec(
        h, w, np.full(arrays.n_vsa, n_sub, dtype=np.int64), arrays
    )
    return t_nn + t_vsa


# -- one geometry, many uniform partitions (Phase I's inner loop) ------------


def nn_uniform_runtime_batch(
    h: int, w: int, nl_bars: np.ndarray, arrays: WorkloadArrays
) -> np.ndarray:
    """``t_nn`` at uniform splits: shape ``(P,)`` partitions → ``(P,)``."""
    _check_int64_headroom(arrays, h, h, w, w)
    nl = np.asarray(nl_bars, dtype=np.int64)[:, None]        # (P, 1)
    per_layer = (
        (2 * h + w + arrays.m - 2)
        * _ceil_div(_ceil_div(arrays.n, nl), h)
        * _ceil_div(arrays.k, w)
    )                                                        # (P, L)
    return per_layer.sum(axis=1)


def vsa_uniform_runtime_batch(
    h: int, w: int, nv_bars: np.ndarray, arrays: WorkloadArrays
) -> np.ndarray:
    """``t_vsa`` at uniform splits: shape ``(P,)`` partitions → ``(P,)``."""
    nv = np.asarray(nv_bars, dtype=np.int64)[:, None]        # (P, 1)
    if arrays.n_vsa == 0:
        return np.zeros(nv.shape[0], dtype=np.int64)
    _check_int64_headroom(arrays, h, h, w, w)
    t = 3 * h + arrays.vd - 1
    spatial = (arrays.vn * _ceil_div(arrays.vd, w * h * nv) * t).sum(axis=1)
    temporal = (
        _ceil_div(arrays.vn, w) * _ceil_div(arrays.vd, h * nv) * t
    ).sum(axis=1)
    return np.minimum(spatial, temporal)


def parallel_uniform_runtime_batch(
    h: int, w: int, n_sub: int, nl_bars: np.ndarray, arrays: WorkloadArrays
) -> np.ndarray:
    """``max(t_nn(N̄l), t_vsa(N − N̄l))`` over a batch of splits."""
    nl_bars = np.asarray(nl_bars, dtype=np.int64)
    return np.maximum(
        nn_uniform_runtime_batch(h, w, nl_bars, arrays),
        vsa_uniform_runtime_batch(h, w, n_sub - nl_bars, arrays),
    )


# -- many geometries at once (Phase I's outer loop) --------------------------


def sequential_runtime_batch(
    hs: np.ndarray, ws: np.ndarray, ns: np.ndarray, arrays: WorkloadArrays
) -> np.ndarray:
    """Sequential runtime of every ``(H, W, N)`` geometry: ``(G,)``.

    One call covers the whole candidate stream of a sweep — the
    geometry-batched form of :func:`sequential_runtime_vec`.
    """
    h = np.asarray(hs, dtype=np.int64)[:, None]              # (G, 1)
    w = np.asarray(ws, dtype=np.int64)[:, None]
    n = np.asarray(ns, dtype=np.int64)[:, None]
    _check_int64_headroom(
        arrays, int(h.min()), int(h.max()), int(w.min()), int(w.max())
    )
    t_nn = (
        (2 * h + w + arrays.m - 2)
        * _ceil_div(_ceil_div(arrays.n, n), h)
        * _ceil_div(arrays.k, w)
    ).sum(axis=1)                                            # (G,)
    if arrays.n_vsa == 0:
        return t_nn
    t = 3 * h + arrays.vd - 1                                # (G, V)
    spatial = (arrays.vn * _ceil_div(arrays.vd, w * h * n) * t).sum(axis=1)
    temporal = (
        _ceil_div(arrays.vn, w) * _ceil_div(arrays.vd, h * n) * t
    ).sum(axis=1)
    return t_nn + np.minimum(spatial, temporal)


# -- the monotone partition search -------------------------------------------


@dataclass(frozen=True)
class PartitionSearchOutcome:
    """Result of one geometry's static-partition search.

    ``probes`` counts the distinct candidate splits actually priced
    (one unit per ``N̄l`` at which ``t_nn`` and/or ``t_vsa`` was
    evaluated, the same unit the dense scan's ``N − 1`` uses) — the
    bisection pays ``O(log N)``. The returned
    ``(t_parallel, nl_bar, nv_bar)`` triple is identical across search
    strategies by construction.
    """

    t_parallel: int
    nl_bar: int
    nv_bar: int
    probes: int


class _UniformEvaluator:
    """Memoized scalar probes of ``t_nn(N̄l)`` / ``t_vsa(N̄v)`` at one geometry.

    Geometry-constant factors — ``(2H + W + m − 2)·⌈k/W⌉`` per layer,
    ``T = 3H + d − 1`` per VSA node — are precomputed once so each probe
    is a single vectorized ceil-div plus a dot-sum. Memoization makes
    repeated probes (the crossing pass and the plateau pass overlap)
    free; the memo keys are also the honest probe count — every
    distinct partition point the search actually priced.
    """

    def __init__(self, h: int, w: int, arrays: WorkloadArrays):
        self._nn_coef = (2 * h + w + arrays.m - 2) * _ceil_div(arrays.k, w)
        self._nn_n = arrays.n
        t = 3 * h + arrays.vd - 1
        self._sp_coef = arrays.vn * t
        self._tp_coef = _ceil_div(arrays.vn, w) * t
        self._vd = arrays.vd
        self._h = h
        self._wh = w * h
        self._nn_memo: dict[int, int] = {}
        self._vsa_memo: dict[int, int] = {}

    def points_probed(self, n_sub: int) -> int:
        """Distinct ``N̄l`` splits priced (dense-scan-comparable units)."""
        return len(
            self._nn_memo.keys() | {n_sub - nv for nv in self._vsa_memo}
        )

    def t_nn(self, nl: int) -> int:
        value = self._nn_memo.get(nl)
        if value is None:
            value = int(
                (
                    self._nn_coef
                    * _ceil_div(_ceil_div(self._nn_n, nl), self._h)
                ).sum()
            )
            self._nn_memo[nl] = value
        return value

    def t_vsa(self, nv: int) -> int:
        value = self._vsa_memo.get(nv)
        if value is None:
            spatial = (
                self._sp_coef * _ceil_div(self._vd, self._wh * nv)
            ).sum()
            temporal = (
                self._tp_coef * _ceil_div(self._vd, self._h * nv)
            ).sum()
            value = int(min(spatial, temporal))
            self._vsa_memo[nv] = value
        return value


def bisect_uniform_partition(
    h: int, w: int, n_sub: int, arrays: WorkloadArrays
) -> PartitionSearchOutcome:
    """Best uniform split ``N̄l : N̄v`` by monotone crossing-point bisection.

    The objective ``f(N̄l) = max(t_nn(N̄l), t_vsa(N − N̄l))`` is the max
    of a non-increasing and a non-decreasing step function of ``N̄l``,
    so it is non-increasing up to the crossing point ``c`` (the smallest
    ``N̄l`` with ``t_nn ≤ t_vsa``) and non-decreasing from ``c`` on. The
    search therefore:

    1. bisects for ``c`` (the predicate ``t_nn(N̄l) ≤ t_vsa(N − N̄l)``
       is monotone in ``N̄l``);
    2. takes the better of ``f(c − 1)`` and ``f(c)`` as the optimum
       value ``v*`` (ties go left, matching strict-``<`` first-wins);
    3. **plateau resolution** — when ``v* = f(c − 1)``, bisects again
       for the *smallest* ``N̄l`` with ``t_nn(N̄l) ≤ v*``: because
       ``t_nn ≥ v*`` everywhere left of ``c``, that point is the first
       index of the plateau where ``f`` equals ``v*``, i.e. exactly the
       split the serial ascending scan would return.

    Requires ``n_sub ≥ 2`` and a non-empty VSA node set (otherwise there
    is no split to search). Cost: ``O(log N)`` probes, each ``O(L + V)``
    vectorized — versus the dense scan's ``O(N · (L + V))``.
    """
    if n_sub < 2:
        raise ConfigError(f"partition search needs n_sub >= 2, got {n_sub}")
    if arrays.n_vsa == 0:
        raise ConfigError("partition search needs at least one VSA node")
    _check_int64_headroom(arrays, h, h, w, w)
    ev = _UniformEvaluator(h, w, arrays)

    def crossed(nl: int) -> bool:
        return ev.t_nn(nl) <= ev.t_vsa(n_sub - nl)

    def f(nl: int) -> int:
        return max(ev.t_nn(nl), ev.t_vsa(n_sub - nl))

    lo, hi = 1, n_sub - 1
    if crossed(lo):
        c = lo
    elif not crossed(hi):
        c = n_sub                     # no crossing inside the range
    else:
        # Invariant: not crossed(lo), crossed(hi).
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if crossed(mid):
                hi = mid
            else:
                lo = mid
        c = hi

    left = c - 1                      # last point of the non-increasing run
    right = min(c, n_sub - 1)         # first point of the non-decreasing run
    if left < 1:
        best_nl = right
        best_t = f(right)
    else:
        t_left = f(left)
        t_right = f(right) if right > left else t_left
        if t_left <= t_right:
            # The optimum sits on the non-increasing side; resolve the
            # plateau to its leftmost point (serial first-wins).
            best_t = t_left
            a_lo, a_hi = 1, left
            if ev.t_nn(a_lo) <= best_t:
                best_nl = a_lo
            else:
                # Invariant: t_nn(a_lo) > best_t, t_nn(a_hi) <= best_t.
                while a_hi - a_lo > 1:
                    mid = (a_lo + a_hi) // 2
                    if ev.t_nn(mid) <= best_t:
                        a_hi = mid
                    else:
                        a_lo = mid
                best_nl = a_hi
        else:
            best_t = t_right
            best_nl = right
    return PartitionSearchOutcome(
        t_parallel=best_t,
        nl_bar=best_nl,
        nv_bar=n_sub - best_nl,
        probes=ev.points_probed(n_sub),
    )


def dense_uniform_partition(
    h: int, w: int, n_sub: int, arrays: WorkloadArrays
) -> PartitionSearchOutcome:
    """Reference dense scan over all splits, via the batch kernels.

    Evaluates every ``N̄l ∈ [1, N)`` in one vectorized pass and applies
    the serial strict-``<`` first-wins rule (``argmin`` returns the first
    minimum). Used by equivalence tests as a NumPy-side oracle between
    the scalar dense scan and the bisection.
    """
    if n_sub < 2:
        raise ConfigError(f"partition search needs n_sub >= 2, got {n_sub}")
    if arrays.n_vsa == 0:
        raise ConfigError("partition search needs at least one VSA node")
    nl_bars = np.arange(1, n_sub, dtype=np.int64)
    t = parallel_uniform_runtime_batch(h, w, n_sub, nl_bars, arrays)
    best = int(np.argmin(t))          # first occurrence of the minimum
    return PartitionSearchOutcome(
        t_parallel=int(t[best]),
        nl_bar=int(nl_bars[best]),
        nv_bar=int(n_sub - nl_bars[best]),
        probes=int(n_sub - 1),
    )
