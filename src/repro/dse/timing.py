"""Per-stage timing and work counters for the DSE hot path.

The engine's wall-clock is dominated by a handful of stages — the
Phase I geometry sweep, the Phase II refinement loop, Pareto filtering —
and the point of the analytic backend's integer pricing
(:mod:`repro.model.pricing`) is to make those stages measurably faster.
This module is the measurement: a process-wide registry of named
:class:`StageStat` accumulators that the engine (and the accuracy
evaluator, ``accuracy.execute``) feeds and the CLI / sweep report
surface.

Deliberately **not** part of :class:`~repro.dse.engine.DseReport`:
reports are required to be byte-identical across ``jobs`` values, and
wall-clock never is. Timings follow the
same snapshot/delta pattern as the model-cache counters
(:func:`repro.model.cache.counters_snapshot`), so a sweep can report
exactly the work it performed:

>>> snap = timings_snapshot()
>>> # ... run explorations ...
>>> delta = stage_timings_since(snap)

``items`` counts stage-specific work units (geometries swept, model
probes paid, refinement moves tried); ``calls`` counts stage entries.
With ``jobs > 1`` the sweep stage is timed in the parent around the
pool ``map``, so worker wall-clock is attributed once, not per process;
probe counts travel back with each evaluation result and stay exact.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "StageStat",
    "record_stage",
    "time_stage",
    "stage_timings",
    "timings_snapshot",
    "stage_timings_since",
    "clear_stage_timings",
]


@dataclass
class StageStat:
    """Accumulated wall-clock and work counters of one named stage."""

    name: str
    seconds: float = 0.0
    calls: int = 0
    items: int = 0

    def add(self, seconds: float, items: int) -> None:
        self.seconds += seconds
        self.calls += 1
        self.items += items

    @property
    def items_per_second(self) -> float:
        return self.items / self.seconds if self.seconds > 0 else 0.0


_STAGES: dict[str, StageStat] = {}


def record_stage(name: str, seconds: float = 0.0, items: int = 0) -> None:
    """Accumulate one stage entry (pure counters pass ``seconds=0``)."""
    stat = _STAGES.get(name)
    if stat is None:
        stat = _STAGES[name] = StageStat(name)
    stat.add(seconds, items)


@contextmanager
def time_stage(name: str, items: int = 0):
    """Time a block under ``name``; ``items`` are credited on exit."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        record_stage(name, time.perf_counter() - t0, items)


def stage_timings() -> dict[str, StageStat]:
    """Copies of every stage accumulator, keyed by stage name."""
    return {
        name: StageStat(name, s.seconds, s.calls, s.items)
        for name, s in _STAGES.items()
    }


def timings_snapshot() -> dict[str, tuple[float, int, int]]:
    """Point-in-time ``(seconds, calls, items)`` per stage."""
    return {n: (s.seconds, s.calls, s.items) for n, s in _STAGES.items()}


def stage_timings_since(
    snapshot: dict[str, tuple[float, int, int]],
) -> dict[str, StageStat]:
    """Per-stage deltas accumulated after ``snapshot`` was taken.

    Stages with no new activity are omitted; stages cleared after the
    snapshot count from zero.
    """
    deltas: dict[str, StageStat] = {}
    for name, stat in _STAGES.items():
        sec0, calls0, items0 = snapshot.get(name, (0.0, 0, 0))
        # Accumulators only grow; any counter running backwards means
        # the stage was cleared after the snapshot, so the current
        # totals *are* the post-snapshot activity.
        if stat.calls < calls0 or stat.seconds < sec0 or stat.items < items0:
            seconds, calls, items = stat.seconds, stat.calls, stat.items
        else:
            seconds = stat.seconds - sec0
            calls = stat.calls - calls0
            items = stat.items - items0
        if calls > 0 or items > 0 or seconds > 0:
            deltas[name] = StageStat(name, seconds, calls, items)
    return deltas


def clear_stage_timings() -> None:
    """Reset every stage accumulator (benches call this between runs)."""
    _STAGES.clear()
