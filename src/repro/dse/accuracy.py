"""Functional accuracy evaluation for DSE scenarios (Table IV axis).

The DSE engine prices latency, area, and an energy proxy from the
execution trace; none of that requires *running* the workload. This
module adds the fourth axis: for workloads with a functional pipeline
(PrAE, NVSA, LVRF over seeded RPM problems; MIMONet over seeded CVR/SVRT
items), execute the pipeline under the candidate design's mixed-precision
configuration and vector dimensions and report the fraction of problems
solved correctly.

Determinism and caching contract:

* An evaluation is identified by ``(workload fingerprint, n_problems,
  seed)``. The fingerprint already folds in the workload's full config —
  including its :class:`~repro.quant.MixedPrecisionConfig` and VSA vector
  dimensions — so two scenarios that differ only in precision hash to
  different evaluations, while re-pricing the same scenario is a cache
  hit.
* The problem set is generated from ``seed`` alone and the perception /
  classification randomness is drawn from the same seeded stream, so the
  same key yields a bit-identical accuracy in any process, in any
  evaluation order.
* Results (including ``None`` for workloads without a functional
  pipeline, e.g. the synth generator) are memoized in-process;
  :func:`accuracy_cache_stats` exposes executed/hit counters so tests
  can assert that warm paths re-execute nothing. On-disk reuse comes
  from the artifact store: the accuracy result is part of the cached
  report document.
* Every memo miss is timed as the ``accuracy.execute`` stage
  (:mod:`repro.dse.timing`, items = problems), so ``--timings`` shows
  the execution; like every stage timing it never enters a report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from ..errors import ConfigError
from ..quant import MixedPrecisionConfig
from ..utils import stable_digest
from ..workloads.base import NSAIWorkload
from .timing import time_stage

__all__ = [
    "DEFAULT_ACCURACY_PROBLEMS",
    "DEFAULT_ACCURACY_SEED",
    "AccuracyResult",
    "accuracy_cache_key",
    "deployed_workload",
    "evaluate_accuracy",
    "accuracy_cache_stats",
    "clear_accuracy_cache",
]

#: Default problem-set size: large enough that the Table IV precision
#: ladder (FP16 ≥ INT8 ≥ INT4) is visible, small enough that a cold
#: evaluation stays well under a second for the PMF-algebra workloads.
DEFAULT_ACCURACY_PROBLEMS = 16

#: Default problem-set seed.
DEFAULT_ACCURACY_SEED = 0


@dataclass(frozen=True)
class AccuracyResult:
    """One cached accuracy evaluation.

    ``value`` is the fraction of seeded problems solved correctly, or
    ``None`` for workloads without a functional pipeline (those scenarios
    rank on the three structural axes unchanged).
    """

    value: float | None
    n_problems: int
    seed: int
    workload: str

    def __post_init__(self) -> None:
        if self.value is not None and not 0.0 <= self.value <= 1.0:
            raise ConfigError(f"accuracy must be in [0, 1], got {self.value}")


# -- in-process memo ---------------------------------------------------------

_lock = threading.Lock()
_cache: dict[str, AccuracyResult] = {}
_stats = {"executed": 0, "hits": 0}


def accuracy_cache_key(
    workload: NSAIWorkload, n_problems: int, seed: int
) -> str:
    """Cache identity of one evaluation.

    The workload fingerprint covers (name, config) — and the config
    carries the mixed-precision assignment and the VSA dimensions — so
    the key is exactly (workload fingerprint × precision × dim ×
    problem-set size × seed).
    """
    if n_problems < 1:
        raise ConfigError(f"n_problems must be >= 1, got {n_problems}")
    return stable_digest(
        {
            "kind": "accuracy-eval",
            "workload": workload.fingerprint(),
            "n_problems": n_problems,
            "seed": seed,
        }
    )


def deployed_workload(
    workload: NSAIWorkload, precision: MixedPrecisionConfig | None
) -> NSAIWorkload:
    """The workload as it runs on the candidate design.

    A scenario's deployment precision is a *design* knob, not a
    workload-config default: accuracy must be measured with the
    workload's quantization points set to what the hardware actually
    computes in. Rebuilding the workload with its config's ``precision``
    replaced does exactly that — construction is seeded, so the twin is
    a pure function of (config, precision), and its fingerprint (which
    folds in the config) gives precision-distinct cache identities for
    free. Workloads without a ``precision`` config field (the synth
    generator) pass through untouched.
    """
    cfg = getattr(workload, "config", None)
    if (
        precision is None
        or cfg is None
        or getattr(cfg, "precision", None) is None
        or cfg.precision == precision
    ):
        return workload
    return type(workload)(replace(cfg, precision=precision))


def evaluate_accuracy(
    workload: NSAIWorkload,
    n_problems: int = DEFAULT_ACCURACY_PROBLEMS,
    seed: int = DEFAULT_ACCURACY_SEED,
    precision: MixedPrecisionConfig | None = None,
) -> AccuracyResult:
    """Evaluate (or recall) the workload's seeded functional accuracy.

    ``precision`` is the scenario's deployment precision; when given, the
    pipeline executes under it (see :func:`deployed_workload`) rather
    than under the workload config's own default.
    """
    workload = deployed_workload(workload, precision)
    key = accuracy_cache_key(workload, n_problems, seed)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _stats["hits"] += 1
            return cached
    with time_stage("accuracy.execute", items=n_problems):
        value = workload.evaluate_accuracy(n_problems, seed)
    result = AccuracyResult(
        value=value,
        n_problems=n_problems,
        seed=seed,
        workload=workload.name,
    )
    with _lock:
        # First writer wins; a concurrent duplicate executed the same
        # deterministic computation, so the results are identical.
        _cache.setdefault(key, result)
        if value is not None:
            _stats["executed"] += 1
    return result


def accuracy_cache_stats() -> dict[str, int]:
    """Counters: functional evaluations executed vs memo hits."""
    with _lock:
        return dict(_stats)


def clear_accuracy_cache() -> None:
    """Drop memoized evaluations and reset the counters (tests, benches)."""
    with _lock:
        _cache.clear()
        _stats["executed"] = 0
        _stats["hits"] = 0
