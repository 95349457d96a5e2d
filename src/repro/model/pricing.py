"""Exact integer pricing of the analytical models (Eqs. 1-5) for the DSE.

The scalar models in :mod:`repro.model.runtime` price one node at a
time. The DSE prices the *same* workload dimensions at many
``(H, W, N̄l)`` points, so this module regroups Eqs. 1-5 around the
distinct dimensions and prices in plain Python ints:

* :class:`WorkloadGroups` — each distinct GEMM shape and each distinct
  VSA shape with its count, built once per Phase I screen;
* :class:`UniformSplits` — one geometry's ``t_nn(N̄l)``, ``t_vsa(N̄v)``
  and sequential runtime at uniform splits, from coefficients folded
  per distinct layer ``n`` and VSA ``d``, with the monotone
  crossing-point bisection (:meth:`UniformSplits.search`) that returns
  the serial strict-``<`` first-wins scan's split **bit for bit** (see
  DESIGN.md "Integer pricing & partition bisection" for the grouping,
  the monotonicity and the tie-break proofs);
* :func:`partition_pricer` — Phase II's repeat pricing of per-node
  partition vectors at one geometry.

Exactness: everything is integer ceil-division, ``⌈a/b⌉ = -(-a // b)``,
so results equal the scalar models' ints. Python ints do not wrap, so
no workload is too large to price here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from ..errors import ConfigError
from ..nn.gemm import GemmDims
from ..trace.opnode import VsaDims

__all__ = [
    "WorkloadGroups",
    "UniformSplits",
    "PartitionSearchOutcome",
    "partition_pricer",
]


@dataclass(frozen=True)
class WorkloadGroups:
    """A workload's cost dimensions, one entry per distinct dimension set.

    ``layers`` holds ``(n, m, k, count)`` per distinct GEMM shape and
    ``vsa`` holds ``(d, n, count)`` per distinct VSA shape. A uniform
    split gives every node of a group the same allocation, so one
    geometry folds each group into a coefficient and a probe costs
    ``O(distinct dims)``, not ``O(L + V)``.
    """

    layers: tuple[tuple[int, int, int, int], ...]
    vsa: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_dims(
        cls, layers: Sequence[GemmDims], vsa_nodes: Sequence[VsaDims] = ()
    ) -> "WorkloadGroups":
        shapes = Counter(map(attrgetter("n", "m", "k"), layers))
        vectors = Counter(map(attrgetter("d", "n"), vsa_nodes))
        return cls(
            layers=tuple((*shape, count) for shape, count in shapes.items()),
            vsa=tuple((*shape, count) for shape, count in vectors.items()),
        )


@dataclass(frozen=True)
class PartitionSearchOutcome:
    """Result of one geometry's static-partition search.

    ``probes`` counts the distinct candidate splits actually priced
    (one unit per ``N̄l`` at which ``t_nn`` and/or ``t_vsa`` was
    evaluated, the same unit the reference scan's ``N − 1`` uses); the
    bisection pays ``O(log N)``.
    """

    t_parallel: int
    nl_bar: int
    nv_bar: int
    probes: int


class UniformSplits:
    """``t_nn(N̄l)`` / ``t_vsa(N̄v)`` of one ``(H, W, N)`` geometry.

    The geometry folds the groups into coefficients once:

    * ``t_nn(N̄l) = Σ_n C_n·⌈n/(N̄l·H)⌉`` with
      ``C_n = Σ count·(2H + W + m − 2)·⌈k/W⌉`` — Eq. 1's
      ``⌈⌈n/N̄l⌉/H⌉`` is ``⌈n/(N̄l·H)⌉`` for positive integers;
    * ``t_vsa(N̄v) = min(Σ_d SP_d·⌈d/(W·H·N̄v)⌉, Σ_d TP_d·⌈d/(H·N̄v)⌉)``
      with ``SP_d = Σ count·n·T_d``, ``TP_d = Σ count·⌈n/W⌉·T_d`` and
      ``T_d = 3H + d − 1`` (Eqs. 3-5).

    The search's probes are memoized; the memo keys are also the honest
    probe count — every distinct split the search actually priced.
    """

    def __init__(self, h: int, w: int, n_sub: int, groups: WorkloadGroups):
        self.n_sub = n_sub
        self.has_vsa = bool(groups.vsa)
        self._h = h
        self._wh = w * h
        nn: dict[int, int] = {}
        fill = 2 * h + w - 2
        for n, m, k, count in groups.layers:
            nn[n] = nn.get(n, 0) + count * (fill + m) * -(-k // w)
        self._nn = tuple(nn.items())
        spatial: dict[int, int] = {}
        temporal: dict[int, int] = {}
        for d, n, count in groups.vsa:
            spatial[d] = spatial.get(d, 0) + count * n
            temporal[d] = temporal.get(d, 0) + count * -(-n // w)
        self._vsa = tuple(
            (d, sp * (3 * h + d - 1), temporal[d] * (3 * h + d - 1))
            for d, sp in spatial.items()
        )
        self._nn_memo: dict[int, int] = {}
        self._vsa_memo: dict[int, int] = {}

    def _price_nn(self, nl: int) -> int:
        per_pass = nl * self._h
        total = 0
        for n, coef in self._nn:
            total += coef * -(-n // per_pass)
        return total

    def _price_vsa(self, nv: int) -> int:
        column = self._h * nv
        plane = self._wh * nv
        spatial = temporal = 0
        for d, sp, tp in self._vsa:
            spatial += sp * -(-d // plane)
            temporal += tp * -(-d // column)
        return min(spatial, temporal)

    def t_nn(self, nl: int) -> int:
        """Eqs. 1-2 with every layer on ``nl`` sub-arrays (memoized)."""
        value = self._nn_memo.get(nl)
        if value is None:
            value = self._nn_memo[nl] = self._price_nn(nl)
        return value

    def t_vsa(self, nv: int) -> int:
        """Eqs. 3-5 with every VSA node on ``nv`` sub-arrays (memoized)."""
        value = self._vsa_memo.get(nv)
        if value is None:
            value = self._vsa_memo[nv] = self._price_vsa(nv)
        return value

    def t_sequential(self) -> int:
        """Algorithm 1 line 12: NN then VSA, each on all ``N`` sub-arrays.

        Priced outside the memo, so it is never counted as a split.
        """
        return self._price_nn(self.n_sub) + self._price_vsa(self.n_sub)

    def search(self) -> PartitionSearchOutcome:
        """Best uniform split ``N̄l : N̄v`` by monotone crossing-point bisection.

        The objective ``f(N̄l) = max(t_nn(N̄l), t_vsa(N − N̄l))`` is the max
        of a non-increasing and a non-decreasing step function of ``N̄l``,
        so it is non-increasing up to the crossing point ``c`` (the
        smallest ``N̄l`` with ``t_nn ≤ t_vsa``) and non-decreasing from
        ``c`` on. The search therefore:

        1. bisects for ``c`` (the predicate ``t_nn(N̄l) ≤ t_vsa(N − N̄l)``
           is monotone in ``N̄l``);
        2. takes the better of ``f(c − 1)`` and ``f(c)`` as the optimum
           value ``v*`` (ties go left, matching strict-``<`` first-wins);
        3. **plateau resolution** — when ``v* = f(c − 1)``, bisects again
           for the *smallest* ``N̄l`` with ``t_nn(N̄l) ≤ v*``: because
           ``t_nn ≥ v*`` everywhere left of ``c``, that point is the first
           index of the plateau where ``f`` equals ``v*``, i.e. exactly
           the split the serial ascending scan would return.

        Requires ``N ≥ 2`` and at least one VSA node (otherwise there is
        no split to search).
        """
        n_sub = self.n_sub
        if n_sub < 2:
            raise ConfigError(f"partition search needs n_sub >= 2, got {n_sub}")
        if not self.has_vsa:
            raise ConfigError("partition search needs at least one VSA node")
        t_nn, t_vsa = self.t_nn, self.t_vsa

        def crossed(nl: int) -> bool:
            return t_nn(nl) <= t_vsa(n_sub - nl)

        def f(nl: int) -> int:
            return max(t_nn(nl), t_vsa(n_sub - nl))

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
                if t_nn(a_lo) <= best_t:
                    best_nl = a_lo
                else:
                    # Invariant: t_nn(a_lo) > best_t, t_nn(a_hi) <= best_t.
                    while a_hi - a_lo > 1:
                        mid = (a_lo + a_hi) // 2
                        if t_nn(mid) <= best_t:
                            a_hi = mid
                        else:
                            a_lo = mid
                    best_nl = a_hi
            else:
                best_t = t_right
                best_nl = right
        # Distinct N̄l splits priced, in the reference scan's units.
        probed = self._nn_memo.keys() | {n_sub - nv for nv in self._vsa_memo}
        return PartitionSearchOutcome(
            t_parallel=best_t,
            nl_bar=best_nl,
            nv_bar=n_sub - best_nl,
            probes=len(probed),
        )


def partition_pricer(
    h: int, w: int, layers: Sequence[GemmDims], vsa_nodes: Sequence[VsaDims]
) -> Callable[[Sequence[int], Sequence[int]], int]:
    """``max(t_nn, t_vsa)`` of per-node partitions at one geometry (Phase II).

    Per-node constants are computed once: ``(2H + W + m − 2)·⌈k/W⌉`` per
    layer and Eqs. 3/4's ``n·T`` / ``⌈n/W⌉·T`` per VSA shape. VSA nodes
    that share a shape share a group, and a call counts the group's
    allocations in C loops (a slice or ``itemgetter`` gather, ``set``,
    ``count``) — Phase II's vectors take few distinct values — so a call
    on a graph with tens of thousands of VSA nodes stays a handful of
    passes.
    """
    n_layers, n_vsa = len(layers), len(vsa_nodes)
    fill = 2 * h + w - 2
    nn = [((fill + g.m) * -(-g.k // w), g.n) for g in layers]
    members: dict[tuple[int, int], list[int]] = {}
    for j, v in enumerate(vsa_nodes):
        members.setdefault((v.n, v.d), []).append(j)
    singles = []      # (index, SP, TP, d) of a shape with one node
    shared = []       # (getter, SP, TP, d) of a shape with several
    for (n, d), idx in members.items():
        t = 3 * h + d - 1
        if len(idx) == 1:
            singles.append((idx[0], n * t, -(-n // w) * t, d))
            continue
        if idx[-1] - idx[0] == len(idx) - 1:
            get = itemgetter(slice(idx[0], idx[-1] + 1))   # one contiguous run
        else:
            get = itemgetter(*idx)
        shared.append((get, n * t, -(-n // w) * t, d))
    wh = w * h

    def price(nl: Sequence[int], nv: Sequence[int]) -> int:
        if len(nl) != n_layers or len(nv) != n_vsa:
            raise ConfigError(
                f"partition vector lengths ({len(nl)}, {len(nv)}) != node "
                f"counts ({n_layers}, {n_vsa})"
            )
        t_nn = 0
        for (coef, n), alloc in zip(nn, nl):
            t_nn += coef * -(-n // (alloc * h))
        spatial = temporal = 0
        for j, sp, tp, d in singles:
            alloc = nv[j]
            spatial += sp * -(-d // (wh * alloc))
            temporal += tp * -(-d // (h * alloc))
        for get, sp, tp, d in shared:
            allocs = get(nv)
            for alloc in set(allocs):
                count = allocs.count(alloc)
                spatial += count * sp * -(-d // (wh * alloc))
                temporal += count * tp * -(-d // (h * alloc))
        return max(t_nn, min(spatial, temporal))

    return price
