"""The Phase I test oracle: scalar reference sweeps production is held to.

Production Phase I (:meth:`repro.dse.engine.DseEngine.evaluate`) screens
every candidate with the analytic backend's integer pricing and
partition bisection and, for any other backend, prices only the
candidates the analytic lower bound cannot prune. Its contract is that none of that shows: reports are
byte-identical to pricing every candidate through the scalar reference
scan. This module holds the two references the tests compare against:

* :func:`run_phase1` — the historical serial Phase I sweep over the
  scalar models of :mod:`repro.model.runtime`, independent of the
  backend seam, one :func:`scan_geometry` per candidate geometry;
* :class:`OracleEngine` — a :class:`~repro.dse.engine.DseEngine` whose
  ``evaluate`` prices every candidate through the base-class scalar scan
  :meth:`repro.model.backend.EvaluationBackend.score_geometry` and prunes
  nothing, so its ``explore`` is the exhaustive report for any backend.

Tests import it as ``import phase1_oracle`` (pytest puts this directory
on ``sys.path``); benches add ``tests/dse`` to ``sys.path`` first.
"""

from __future__ import annotations

from repro.dse.engine import DseEngine, _eval_from_score
from repro.dse.phase1 import Phase1Result, extract_cost_dims
from repro.errors import DSEError
from repro.graph.dataflow import DataflowGraph
from repro.model.backend import EvaluationBackend
from repro.model.designspace import hw_config_candidates
from repro.model.runtime import parallel_runtime, sequential_runtime
from repro.utils import log2_int


def scan_geometry(h, w, n_sub, layers, vsa_nodes) -> tuple[int, int, int, int]:
    """One geometry's scalar scan: ``(t_sequential, t_parallel, N̄l, N̄v)``.

    Every static split ``N̄l + N̄v = n_sub`` is priced with the scalar
    models; the first fastest wins. Without VSA nodes, "parallel"
    degenerates to the whole array running the NN layers.
    """
    t_seq = int(sequential_runtime(h, w, n_sub, layers, vsa_nodes))
    if not vsa_nodes:
        return t_seq, t_seq, n_sub, 0
    best = None
    for nl_bar in range(1, n_sub):
        nv_bar = n_sub - nl_bar
        t_para = int(parallel_runtime(
            h, w, [nl_bar] * len(layers), [nv_bar] * len(vsa_nodes),
            layers, vsa_nodes,
        ))
        if best is None or t_para < best[0]:
            best = (t_para, nl_bar, nv_bar)
    return (t_seq, *best)


def run_phase1(
    graph: DataflowGraph,
    max_pes: int,
    range_h: tuple[int, int] = (4, 256),
    range_w: tuple[int, int] = (4, 256),
    aspect_min: float = 0.25,
    aspect_max: float = 16.0,
) -> Phase1Result:
    """Sweep pruned geometries and static partitions (Algorithm 1 l.2-15)."""
    layers, vsa_nodes = extract_cost_dims(graph)
    m = log2_int(max_pes)

    best_para: tuple[int, int, int, int, int, int] | None = None  # t, h, w, n, nl, nv
    best_seq: tuple[int, int, int, int] | None = None             # t, h, w, n
    evaluated = 0
    for h, w in hw_config_candidates(m, aspect_min, aspect_max, prune=True):
        if not (range_h[0] <= h <= range_h[1] and range_w[0] <= w <= range_w[1]):
            continue
        n_sub = max_pes // (h * w)
        if n_sub < 2:
            continue

        t_seq, t_para, nl_bar, nv_bar = scan_geometry(
            h, w, n_sub, layers, vsa_nodes
        )
        evaluated += n_sub if vsa_nodes else 1
        if best_seq is None or t_seq < best_seq[0]:
            best_seq = (t_seq, h, w, n_sub)
        if best_para is None or t_para < best_para[0]:
            best_para = (t_para, h, w, n_sub, nl_bar, nv_bar)

    if best_para is None or best_seq is None:
        raise DSEError(
            f"Phase I found no feasible geometry for max_pes={max_pes} "
            f"within H range {range_h}, W range {range_w}"
        )
    t_para, h, w, n_sub, nl_bar, nv_bar = best_para
    t_seq, sh, sw, sn = best_seq
    return Phase1Result(
        h=h,
        w=w,
        n_sub=n_sub,
        nl_bar=nl_bar,
        nv_bar=nv_bar,
        t_parallel=t_para,
        seq_h=sh,
        seq_w=sw,
        seq_n_sub=sn,
        t_sequential=t_seq,
        candidates_evaluated=evaluated,
    )


def scalar_score(backend: EvaluationBackend, h, w, n_sub, layers, vsa_nodes):
    """``backend``'s score of one geometry through the scalar reference scan."""
    return EvaluationBackend.score_geometry(
        backend, h, w, n_sub, tuple(layers), tuple(vsa_nodes)
    )


class OracleEngine(DseEngine):
    """Prices every candidate through the scalar scan; prunes nothing."""

    def evaluate(self, graph, cost_dims=None):
        layers, vsa_nodes = cost_dims or extract_cost_dims(graph)
        evals = [
            _eval_from_score(c, scalar_score(
                self.backend, c.h, c.w, c.n_sub, layers, vsa_nodes
            ))
            for c in self.iter_candidates()
        ]
        if not evals:
            raise DSEError(f"no feasible geometry for max_pes={self.max_pes}")
        return evals, ()
