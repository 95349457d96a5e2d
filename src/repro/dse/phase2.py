"""Algorithm 1, Phase II: per-node partition refinement.

Starting from Phase I's static split, each iteration walks the layer nodes
in order; for layer ``i`` it locates the VSA nodes ``[j', j'')`` whose
execution overlaps that layer (via the dataflow graph's depth spans) and
shifts one sub-array across the NN/VSA boundary in whichever direction the
current imbalance indicates: if the NN side is faster (``t_nn < t_vsa``)
the layer donates a sub-array to the overlapping VSA nodes, otherwise it
takes one back. The best partition seen across all iterations wins.

The paper's listing tests ``t_seq < t_para`` here, which is loop-invariant;
we implement the evident intent (re-balancing on ``t_nn`` vs ``t_vsa`` —
see DESIGN.md "Interpretation notes").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DSEError
from ..graph.dataflow import DataflowGraph
from ..model.backend import AnalyticBackend, EvaluationBackend
from ..nn.gemm import GemmDims
from ..trace.opnode import VsaDims
from .phase1 import Phase1Result, extract_cost_dims

__all__ = ["Phase2Result", "run_phase2"]


@dataclass(frozen=True)
class Phase2Result:
    """Refined partition vectors and their runtime."""

    nl: tuple[int, ...]
    nv: tuple[int, ...]
    t_parallel: int
    iterations_run: int
    improved: bool

    def gain_over(self, t_phase1: int) -> float:
        """Fractional improvement over the Phase I runtime."""
        if t_phase1 <= 0:
            raise DSEError("Phase I runtime must be positive")
        return 1.0 - self.t_parallel / t_phase1


def run_phase2(
    graph: DataflowGraph,
    phase1: Phase1Result,
    iter_max: int = 8,
    backend: EvaluationBackend | None = None,
    cost_dims: tuple[list[GemmDims], list[VsaDims]] | None = None,
) -> Phase2Result:
    """Refine ``Nl``/``Nv`` around the Phase I point (Algorithm 1 l.17-25).

    ``backend`` is the cost model every candidate move is priced with
    (default: the analytic Eqs. 1-5, matching Phase I's default).
    ``cost_dims`` is ``extract_cost_dims(graph)`` when the caller (the
    engine's ``explore``, which priced Phase I on it) holds it already.
    """
    if iter_max < 1:
        raise DSEError(f"iter_max must be >= 1, got {iter_max}")
    backend = backend or AnalyticBackend()
    layers, vsa_nodes = cost_dims if cost_dims is not None else extract_cost_dims(graph)
    if not vsa_nodes:
        # Nothing to balance; Phase II is a no-op.
        nl = tuple([phase1.nl_bar] * len(layers))
        return Phase2Result(
            nl=nl, nv=(), t_parallel=phase1.t_parallel, iterations_run=0,
            improved=False,
        )

    h, w, n_sub = phase1.h, phase1.w, phase1.n_sub
    layer_names = [n.name for n in graph.layer_nodes]
    spans = [graph.vsa_span_for_layer(name) for name in layer_names]

    nl = [phase1.nl_bar] * len(layers)
    nv = [phase1.nv_bar] * len(vsa_nodes)

    # The refinement loop re-prices the full partition vectors on every
    # candidate move; the backend's pricer amortizes the per-geometry
    # setup (the analytic backend precomputes per-node constants and
    # prices each move in exact ints, bit-identical to the scalar
    # models).
    pricer = backend.partition_pricer(h, w, tuple(layers), tuple(vsa_nodes))

    def t_para() -> int:
        return int(pricer(nl, nv))

    best_t = t_para()
    best_nl, best_nv = list(nl), list(nv)
    iterations = 0

    def try_move(i: int, direction: int) -> int | None:
        """Cost after shifting one sub-array at layer ``i``; None if infeasible.

        ``direction = -1`` donates the layer's sub-array to its VSA span;
        ``+1`` takes one back. The per-moment capacity constraint
        ``Nl[i] + Nv[j] ≤ N`` holds for every overlapping VSA node ``j``.
        """
        j_lo, j_hi = spans[i]
        new_nl_i = nl[i] + direction
        if not 1 <= new_nl_i <= n_sub - 1:
            return None
        new_span = [nv[j] - direction for j in range(j_lo, j_hi)]
        if any(v < 1 or new_nl_i + v > n_sub for v in new_span):
            return None
        old_nl_i = nl[i]
        old_span = nv[j_lo:j_hi]
        nl[i] = new_nl_i
        nv[j_lo:j_hi] = new_span
        cost = t_para()
        nl[i] = old_nl_i
        nv[j_lo:j_hi] = old_span
        return cost

    # `current` tracks t_para() of the live (nl, nv) state across the
    # whole descent: the state only changes when a move is applied, and
    # the applied move's probe cost *is* the new steady-state runtime
    # (t_para is a pure function of the vectors). Re-pricing at every
    # layer visit would cost one extra full evaluation per (iteration,
    # layer) — pure waste under an expensive backend's pricer — for the
    # same values, so results are bit-identical either way.
    current = best_t
    for _ in range(iter_max):
        iterations += 1
        changed = False
        for i in range(len(layers)):
            # Greedy descent: apply the better of the two one-step moves
            # when it strictly improves the steady-state runtime.
            moves = [(try_move(i, d), d) for d in (-1, +1)]
            feasible = [(c, d) for c, d in moves if c is not None and c < current]
            if not feasible:
                continue
            cost, direction = min(feasible)
            j_lo, j_hi = spans[i]
            nl[i] += direction
            for j in range(j_lo, j_hi):
                nv[j] -= direction
            changed = True
            current = cost
            if cost < best_t:
                best_t = cost
                best_nl, best_nv = list(nl), list(nv)
        if not changed:
            break

    return Phase2Result(
        nl=tuple(best_nl),
        nv=tuple(best_nv),
        t_parallel=int(best_t),
        iterations_run=iterations,
        improved=best_t < phase1.t_parallel,
    )
