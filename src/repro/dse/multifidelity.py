"""Multi-fidelity Phase I: price only what the analytic screen cannot prune.

Every :class:`~repro.model.backend.EvaluationBackend` must price at or
above the compute-only ``analytic`` model — ``t_backend >= t_analytic``
pointwise, for both the sequential fallback and every static partition
(the memory-aware ``schedule`` backend can only *add* time). The
analytic scores are therefore an *admissible lower bound*, so Phase I
does not have to pay an expensive backend for every geometry: the engine
screens the whole candidate stream analytically in one cheap pass,
then this module prices candidates through the expensive backend one at
a time — cheapest-looking first — while an incumbent (latency, area,
energy) frontier of the points already priced proves later candidates
dominated from their lower bounds alone.

Pricing visits candidates in ascending analytic lower-bound *energy*
(``lb_cycles × area``, ties by candidate index): the low-energy geometries
are the strongest dominators, so the incumbent frontier forms before the
expensive large-``N`` candidates come up for pricing — those are exactly
the candidates whose ``O(N)`` schedule scan costs the most and whose
bounds are most often dominated. The visiting order only affects *cost*;
every candidate is judged by the same sound rule, so results do not
depend on it.

A candidate ``c`` is pruned only when all three hold:

1. some priced incumbent's objective vector strictly dominates ``c``'s
   lower-bound vector ``(lb_cycles, area, lb_cycles * area)`` — since the
   true cycles can only be larger and the area proxy is a pure function
   of the geometry, the true point is then strictly dominated too and can
   never enter :func:`repro.dse.engine.pareto_filter`'s output (dominated
   points also never affect which *other* points survive the filter);
2. the incumbent minimum ``t_parallel`` is below ``c``'s lower bound — or
   equal to it with a smaller candidate index, which under the engine's
   strict-``<`` first-wins reduction means ``c`` can never become the
   Phase I parallel winner;
3. symmetrically for ``t_sequential``.

Together these guarantee the *whole* :class:`~repro.dse.engine.DseReport`
— Phase I winners, Phase II refinement seeded from them, the frontier,
and every counter — is byte-identical to pricing every candidate; the
logical ``evaluated`` count of a pruned candidate is a pure function of
its geometry, so the report's accounting needs no pricing either. All
comparisons are exact integer arithmetic.

The lower bound is the one assumption the rule cannot prove, so it is
checked: a priced candidate whose cycles fall below its screen bound
raises :class:`~repro.errors.DSEError` naming the backend.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import DSEError
from ..model.backend import EvaluationBackend
from ..nn.gemm import GemmDims
from ..trace.opnode import VsaDims

__all__ = [
    "PrunedCandidate",
    "MultiFidelityOutcome",
    "multifidelity_evaluate",
]


def _dominates(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Strict Pareto domination of objective vector ``b`` by ``a``."""
    return all(x <= y for x, y in zip(a, b)) and a != b


class _RunningMin:
    """Minimum of priced values plus the first candidate index attaining it.

    Candidates are priced out of enumeration order, so the strict-``<``
    first-wins tie-break of the Phase I reduction must be reproduced
    explicitly: a candidate may only be ruled out by an *equal* incumbent
    value when that value belongs to a smaller candidate index.
    """

    __slots__ = ("value", "index")

    def __init__(self) -> None:
        self.value: int | None = None
        self.index: int = -1

    def update(self, value: int, index: int) -> None:
        if self.value is None or value < self.value:
            self.value, self.index = value, index
        elif value == self.value and index < self.index:
            self.index = index

    def rules_out(self, bound: int, candidate_index: int) -> bool:
        """No candidate with this lower ``bound`` can win the reduction."""
        if self.value is None or self.value > bound:
            return False
        return self.value < bound or self.index < candidate_index


@dataclass(frozen=True)
class PrunedCandidate:
    """A candidate proven dominated from its analytic lower bound alone.

    ``lb_sequential``/``lb_parallel`` are the screen's (analytic) cycle
    bounds; ``evaluated`` is the logical design-point count pricing would
    have attributed to this geometry — a pure function of the geometry,
    kept here so report counters stay byte-identical without pricing.
    """

    index: int
    h: int
    w: int
    n_sub: int
    lb_sequential: int
    lb_parallel: int
    evaluated: int


@dataclass(frozen=True)
class MultiFidelityOutcome:
    """What pricing the survivors of one analytic screen produced.

    ``evals`` holds the expensively-priced geometries in candidate order —
    exactly the backend's scores for those candidates; ``pruned`` the
    candidates skipped, with their lower bounds.
    """

    evals: list            # list[repro.dse.engine.GeometryEval]
    pruned: tuple[PrunedCandidate, ...]

    @property
    def screened(self) -> int:
        return len(self.evals) + len(self.pruned)

    @property
    def priced(self) -> int:
        return len(self.evals)

    @property
    def priced_probes(self) -> int:
        """Design points the expensive backend actually paid for."""
        return sum(ev.probes for ev in self.evals)


def multifidelity_evaluate(
    screen: Sequence,
    layers: tuple[GemmDims, ...],
    vsa_nodes: tuple[VsaDims, ...],
    backend: EvaluationBackend,
) -> MultiFidelityOutcome:
    """Price the survivors of an analytic ``screen`` through ``backend``.

    ``screen`` is the engine's analytic :class:`~repro.dse.engine.
    GeometryEval` list for the whole candidate stream, in candidate
    order; its cycles are the lower bounds. Survivors are priced
    serially in ascending lower-bound energy against the growing
    incumbent state. Returned evals are sorted by candidate index and
    bit-identical to ``backend``'s scores for the same candidates; the
    pricing order is a pure function of the screen, so it never depends
    on earlier pruning decisions.
    """
    # Imported here: engine imports this module at load time.
    from .engine import GeometryEval, area_pe_equiv

    areas = [area_pe_equiv(lb.h, lb.w, lb.n_sub) for lb in screen]
    order = sorted(
        range(len(screen)),
        key=lambda i: (screen[i].best_cycles * areas[i], screen[i].index),
    )

    evals: list[GeometryEval] = []
    pruned: list[PrunedCandidate] = []
    # Non-dominated objective vectors of the priced candidates so far.
    incumbents: list[tuple[int, int, int]] = []
    min_t_par = _RunningMin()
    min_t_seq = _RunningMin()

    for i in order:
        lb, area = screen[i], areas[i]
        lb_point = (lb.best_cycles, area, lb.best_cycles * area)
        prunable = (
            min_t_par.rules_out(lb.t_parallel, lb.index)
            and min_t_seq.rules_out(lb.t_sequential, lb.index)
            and any(_dominates(q, lb_point) for q in incumbents)
        )
        if prunable:
            pruned.append(PrunedCandidate(
                index=lb.index, h=lb.h, w=lb.w, n_sub=lb.n_sub,
                lb_sequential=lb.t_sequential, lb_parallel=lb.t_parallel,
                evaluated=lb.evaluated,
            ))
            continue
        score = backend.score_geometry(lb.h, lb.w, lb.n_sub, layers, vsa_nodes)
        if (score.t_sequential < lb.t_sequential
                or score.t_parallel < lb.t_parallel):
            raise DSEError(
                f"backend {type(backend).__name__} ({backend.info}) priced "
                f"geometry {(lb.h, lb.w, lb.n_sub)} at t_sequential="
                f"{score.t_sequential}, t_parallel={score.t_parallel}, below "
                f"its analytic lower bound ({lb.t_sequential}, "
                f"{lb.t_parallel}); Phase I pruning requires every backend "
                "to price at or above the analytic model"
            )
        ev = GeometryEval(
            index=lb.index, h=lb.h, w=lb.w, n_sub=lb.n_sub,
            t_sequential=score.t_sequential, t_parallel=score.t_parallel,
            nl_bar=score.nl_bar, nv_bar=score.nv_bar,
            evaluated=score.evaluated, probes=score.probes,
        )
        evals.append(ev)
        min_t_par.update(ev.t_parallel, ev.index)
        min_t_seq.update(ev.t_sequential, ev.index)
        point = (ev.best_cycles, area, ev.best_cycles * area)
        # Keep the incumbent set non-dominated: anything the new point
        # dominates can never out-prune it (domination is transitive).
        if not any(_dominates(q, point) or q == point for q in incumbents):
            incumbents = [q for q in incumbents if not _dominates(point, q)]
            incumbents.append(point)

    evals.sort(key=lambda ev: ev.index)
    return MultiFidelityOutcome(
        evals=evals,
        pruned=tuple(sorted(pruned, key=lambda p: p.index)),
    )
