"""Counters and reset for the analytical models' ``lru_cache`` memo.

:func:`repro.model.runtime.layer_runtime` (Eq. 1) and
``vsa_node_runtime`` (Eqs. 3-4) are the only memoized models: each is a
``functools.lru_cache`` of 2^18 entries, whose hit (~490 ns) is cheaper
than recomputing Eq. 1 (~710 ns). The memory plan and SIMD width run
once per exploration and are computed directly — a key over the graph's
content would cost about as much as the memory plan itself.

:func:`cumulative_snapshot` gives process-lifetime ``(hits, misses)``
per layer (``lru.layer_runtime``, ``lru.vsa_node_runtime``), the totals
``repro serve``'s ``/stats`` ``model_cache`` serves. They only grow:
:func:`clear_model_caches` (for benchmarks that time cold runs) folds
the counts ``cache_clear()`` would drop into a carry, so two snapshots
diff to the work done between them whatever was cleared in between.
"""

from __future__ import annotations

from .runtime import layer_runtime, vsa_node_runtime

__all__ = ["clear_model_caches", "cumulative_snapshot"]

_MODELS = (layer_runtime, vsa_node_runtime)

#: ``(hits, misses)`` each layer had counted by its last ``cache_clear()``.
_CLEARED: dict[str, tuple[int, int]] = {}


def cumulative_snapshot() -> dict[str, tuple[int, int]]:
    """Monotonic ``(hits, misses)`` per ``lru.*`` layer, for the life of
    the process."""
    snap = {}
    for fn in _MODELS:
        info = fn.cache_info()
        name = f"lru.{fn.__name__}"
        h0, m0 = _CLEARED.get(name, (0, 0))
        snap[name] = (h0 + info.hits, m0 + info.misses)
    return snap


def clear_model_caches() -> None:
    """Empty both ``lru_cache`` layers, carrying their counts forward."""
    _CLEARED.update(cumulative_snapshot())
    for fn in _MODELS:
        fn.cache_clear()
