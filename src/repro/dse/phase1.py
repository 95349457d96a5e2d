"""Algorithm 1, Phase I: the result type and the cost dimensions it sweeps.

For every pruned power-of-two ``(H, W)`` pair the total sub-array count is
``N = ⌊M / (H·W)⌋``; the phase sweeps the static split ``N̄l : N̄v`` and
keeps the configuration with the lowest parallel runtime
``max(t_nn, t_vsa)``. It also evaluates the sequential schedule (whole
array for NN, then whole array for VSA) at every geometry and carries the
best sequential point forward — the final parallel-vs-sequential decision
is made after Phase II refinement (the paper's listing short-circuits at
line 14, but parallel mode's advantage comes precisely from the per-layer
granularity effects only Phase II can exploit; deciding early would
forfeit them — see DESIGN.md "Interpretation notes").

The sweep itself is :meth:`repro.dse.engine.DseEngine.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DSEError
from ..graph.dataflow import DataflowGraph
from ..nn.gemm import GemmDims
from ..trace.opnode import VsaDims

__all__ = ["Phase1Result", "extract_cost_dims"]


@dataclass(frozen=True)
class Phase1Result:
    """Best parallel and best sequential Phase I points.

    The parallel point (``h, w, n_sub, nl_bar, nv_bar``) seeds Phase II;
    the sequential point is the fallback compared against the refined
    parallel runtime.
    """

    h: int
    w: int
    n_sub: int
    nl_bar: int
    nv_bar: int
    t_parallel: int
    seq_h: int
    seq_w: int
    seq_n_sub: int
    t_sequential: int
    candidates_evaluated: int

    @property
    def sequential_wins_statically(self) -> bool:
        """Pre-refinement comparison (the paper's line-14 test)."""
        return self.t_sequential < self.t_parallel

    @property
    def best_cycles(self) -> int:
        return min(self.t_parallel, self.t_sequential)


def extract_cost_dims(
    graph: DataflowGraph,
) -> tuple[list[GemmDims], list[VsaDims]]:
    """Pull the DSE's cost dimensions (R_l GEMMs, R_v VSA dims) from a graph."""
    layers = [n.gemm for n in graph.layer_nodes if n.gemm is not None]
    vsa = [n.vsa for n in graph.vsa_nodes if n.vsa is not None]
    if not layers:
        raise DSEError("workload graph has no GEMM layer nodes")
    return layers, vsa
