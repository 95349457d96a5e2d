"""Exception hierarchy for the NSFlow reproduction.

Every error raised by this library derives from :class:`NSFlowError` so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate on the concrete subclass.
"""

from __future__ import annotations


class NSFlowError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigError(NSFlowError):
    """A design or workload configuration is inconsistent or out of range."""


class TraceError(NSFlowError):
    """An execution trace is malformed or cannot be produced."""


class GraphError(NSFlowError):
    """A dataflow graph violates a structural invariant (cycle, dangling edge)."""


class DSEError(NSFlowError):
    """Design-space exploration could not find a feasible design."""


class ShapeError(NSFlowError):
    """Tensor/vector operands have incompatible shapes."""


class PrecisionError(NSFlowError):
    """An unsupported precision or quantization configuration was requested."""


class SimulationError(NSFlowError):
    """The hardware simulator reached an inconsistent state."""


class ScheduleError(NSFlowError):
    """The controller could not schedule the dataflow graph on the design."""


class ResourceError(NSFlowError):
    """A design does not fit the target FPGA's resource budget."""


class MergeConflictError(NSFlowError):
    """Shard ledgers/stores disagree about one scenario's artifacts.

    Compilation is deterministic, so the same cache key recorded ``ok``
    with two different artifact digests means a corrupted store, a
    version-skewed worker, or a broken cache key — merging must stop,
    not silently pick a side.
    """


class LedgerWriteError(NSFlowError):
    """A ledger append could not be made durable.

    Raised on a short ``write(2)`` (the classic ENOSPC symptom) or when
    an fsync keeps failing after retries. The append is *not* silently
    dropped and *not* blindly re-issued — re-appending a row whose bytes
    may already be on disk would duplicate it.
    """


class ScenarioTimeoutError(NSFlowError):
    """A scenario exceeded its per-scenario wall-clock budget.

    Recorded in the ledger as a retryable ``error`` row, exactly like
    any other scenario failure: a ``--resume`` pass re-prices it.
    """


class ServeError(NSFlowError):
    """Talking to (or running) the ``repro serve`` service failed.

    Raised by the thin client for connection failures and non-2xx
    responses (carrying the server's error message), and by the
    server-thread test/bench harness when the serve loop crashes or
    fails to drain.
    """


class InjectedFault(NSFlowError, OSError):
    """An error raised by an armed failpoint (see :mod:`repro.faults`).

    Subclasses :class:`OSError` so injected I/O failures travel the same
    ``except OSError`` recovery paths (retry policies, heartbeat
    supervision) as the real thing.
    """
