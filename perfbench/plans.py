"""Fixed input pools and the seeded op plans drawn from them.

Every plan is a pure function of ``(seed, seconds)``: the seed only
draws the op order, the synth subset, the warm/cold split and the Zipf
request sequence from the fixed pools below, and ``seconds`` only sets
how many ops a run performs (at a nominal rate measured on a 2-core
x86_64 host). Both commits of a comparison therefore run exactly the
same ops. Nothing here imports ``repro``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "COMPILE_CLASSES",
    "SYNTH_POOL_SIZE",
    "CompileOp",
    "CompilePlan",
    "SweepPlan",
    "ServePlan",
    "compile_plan",
    "sweep_plan",
    "serve_plan",
]

# -- compile-cold ---------------------------------------------------------------

#: Registry workloads compiled by compile-cold (every Table I workload).
COMPILE_WORKLOADS = ("prae", "nvsa", "mimonet", "lvrf")

#: Nominal wall time of one pass over the 12 classes.
COMPILE_PASS_S = 10.0

#: Problems the accuracy-on classes execute (the CLI default).
ACCURACY_PROBLEMS = 16


@dataclass(frozen=True)
class CompileOp:
    """One ``repro compile``: build the workload, then ``NSFlow.compile``.

    Accuracy-on ops deploy at INT4 (the precision whose accuracy the
    pipeline actually degrades); the others at the default MP preset.
    """

    workload: str
    backend: str
    accuracy: bool
    problems: int = ACCURACY_PROBLEMS

    @property
    def precision(self) -> str:
        return "INT4" if self.accuracy else "MP"

    @property
    def label(self) -> str:
        return f"{self.workload}/{'int4-acc' if self.accuracy else self.backend}"


#: The 12 op classes: {4 workloads} x {analytic, schedule} with accuracy
#: off, plus the four at INT4 with accuracy on.
COMPILE_CLASSES = tuple(
    op
    for name in COMPILE_WORKLOADS
    for op in (
        CompileOp(name, "analytic", False),
        CompileOp(name, "schedule", False),
        CompileOp(name, "analytic", True),
    )
)

#: Untimed warm-up ops: every code path of a pass (both backends, each
#: workload's accuracy pipeline) at a fraction of a pass's cost.
COMPILE_WARMUP = (
    CompileOp("prae", "schedule", False),
    CompileOp("mimonet", "schedule", False),
) + tuple(CompileOp(name, "analytic", True, problems=2) for name in COMPILE_WORKLOADS)


@dataclass(frozen=True)
class CompilePlan:
    warmup: tuple[CompileOp, ...]
    ops: tuple[CompileOp, ...]


def compile_plan(seed: int, seconds: float) -> CompilePlan:
    """Whole passes over the 12 classes, each pass in a seeded order."""
    rng = random.Random(f"compile-cold:{seed}")
    passes = max(1, round(seconds / COMPILE_PASS_S))
    ops: list[CompileOp] = []
    for _ in range(passes):
        order = list(COMPILE_CLASSES)
        rng.shuffle(order)
        ops.extend(order)
    return CompilePlan(COMPILE_WARMUP, tuple(ops))


# -- synth scenario pool ----------------------------------------------------------

#: Synth workload seeds ``0 .. SYNTH_POOL_SIZE-1`` (each one scenario with
#: every other knob at its default). The reference file covers all of them.
SYNTH_POOL_SIZE = 1200

# -- sweep-claims -------------------------------------------------------------------

SWEEP_OPS_PER_S = 30.0
SWEEP_WARMUP_OPS = 20
#: Scenarios an earlier sweep left in the ledger: one claim row and one
#: result row each, so ~1 k rows before the timed sweep starts.
SWEEP_HISTORY = 500
SWEEP_HIT_SHARE = 0.7


@dataclass(frozen=True)
class SweepPlan:
    seeds: tuple[int, ...]          # scenario synth seeds in sweep order
    warmup: int                     # leading ops excluded from timing
    warm: frozenset[int]            # seeds already in the store
    history: tuple[int, ...]        # seeds whose rows the ledger already holds

    @property
    def timed(self) -> tuple[int, ...]:
        return self.seeds[self.warmup:]

    @property
    def hit_share(self) -> float:
        return sum(s in self.warm for s in self.timed) / len(self.timed)


def sweep_plan(seed: int, seconds: float) -> SweepPlan:
    rng = random.Random(f"sweep-claims:{seed}")
    cap = SYNTH_POOL_SIZE - SWEEP_WARMUP_OPS - SWEEP_HISTORY
    n = min(cap, max(1, round(SWEEP_OPS_PER_S * seconds)))
    order = rng.sample(range(SYNTH_POOL_SIZE), SYNTH_POOL_SIZE)
    k = SWEEP_WARMUP_OPS
    warmup, timed = order[:k], order[k:k + n]
    history = order[k + n:k + n + SWEEP_HISTORY]
    warm = rng.sample(warmup, round(SWEEP_HIT_SHARE * k)) + rng.sample(
        timed, round(SWEEP_HIT_SHARE * n)
    )
    return SweepPlan(tuple(warmup + timed), k, frozenset(warm), tuple(history))


# -- serve-zipf ---------------------------------------------------------------------

SERVE_KEYS = 400
SERVE_ZIPF_S = 1.1
SERVE_REQS_PER_S = 250.0
SERVE_WARMUP_REQS = 100
#: Cold scenarios outside the key set, requested during warm-up so the
#: pricer path is warm before timing starts.
SERVE_WARMUP_MISSES = 4
SERVE_MISS_SHARE = 0.02


@dataclass(frozen=True)
class ServePlan:
    keys: tuple[int, ...]           # synth seeds, most popular first
    requests: tuple[int, ...]       # synth seed of every request, in order
    warmup: int                     # leading requests excluded from timing
    warm: frozenset[int]            # seeds stored before the server starts

    @property
    def timed(self) -> tuple[int, ...]:
        return self.requests[self.warmup:]

    @property
    def miss_share(self) -> float:
        """Share of timed requests that miss: each cold key's first request."""
        warmup = set(self.requests[:self.warmup])
        cold = {s for s in self.timed if s not in self.warm and s not in warmup}
        return len(cold) / len(self.timed)


def serve_plan(seed: int, seconds: float) -> ServePlan:
    """A Zipf request sequence whose cold keys are the least popular ones.

    The store is pre-warmed with every requested key except the
    least-popular ones whose first request falls in the timed part,
    taken until they make ``SERVE_MISS_SHARE`` of the timed requests.
    """
    rng = random.Random(f"serve-zipf:{seed}")
    drawn = rng.sample(range(SYNTH_POOL_SIZE), SERVE_KEYS + SERVE_WARMUP_MISSES)
    keys, warmup_misses = drawn[:SERVE_KEYS], drawn[SERVE_KEYS:]
    n = max(1, round(SERVE_REQS_PER_S * seconds))
    weights = [1.0 / rank ** SERVE_ZIPF_S for rank in range(1, SERVE_KEYS + 1)]
    seq = rng.choices(keys, weights=weights, k=SERVE_WARMUP_REQS + n)
    warmup = seq[:SERVE_WARMUP_REQS]
    step = SERVE_WARMUP_REQS // SERVE_WARMUP_MISSES
    for i, miss in enumerate(warmup_misses):
        warmup.insert(i * (step + 1) + step // 2, miss)
    timed = seq[SERVE_WARMUP_REQS:]
    in_warmup, in_timed = set(warmup), set(timed)
    target = round(SERVE_MISS_SHARE * n)
    cold: list[int] = []
    for key in reversed(keys):
        if len(cold) == target:
            break
        if key in in_timed and key not in in_warmup:
            cold.append(key)
    warm = (in_warmup | in_timed) - set(cold) - set(warmup_misses)
    return ServePlan(tuple(keys), tuple(warmup + timed), len(warmup), frozenset(warm))
