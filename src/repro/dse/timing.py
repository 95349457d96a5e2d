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
reports are required to be byte-identical from run to run, and
wall-clock never is. The accumulators only grow — nothing clears them —
so a sweep (or a bench) reports exactly the work it performed by
diffing two snapshots:

>>> snap = timings_snapshot()
>>> # ... run explorations ...
>>> delta = stage_timings_since(snap)

``items`` counts stage-specific work units (geometries swept, model
probes paid, refinement moves tried); ``calls`` counts stage entries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "StageStat",
    "record_stage",
    "time_stage",
    "timings_snapshot",
    "stage_timings_since",
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


def timings_snapshot() -> dict[str, tuple[float, int, int]]:
    """Point-in-time ``(seconds, calls, items)`` per stage."""
    return {n: (s.seconds, s.calls, s.items) for n, s in _STAGES.items()}


def stage_timings_since(
    snapshot: dict[str, tuple[float, int, int]],
) -> dict[str, StageStat]:
    """Per-stage deltas accumulated after ``snapshot`` was taken.

    Stages with no new activity are omitted; stages first recorded after
    the snapshot count from zero.
    """
    deltas: dict[str, StageStat] = {}
    for name, stat in _STAGES.items():
        sec0, calls0, items0 = snapshot.get(name, (0.0, 0, 0))
        if stat.calls > calls0:
            deltas[name] = StageStat(
                name, stat.seconds - sec0, stat.calls - calls0,
                stat.items - items0,
            )
    return deltas
