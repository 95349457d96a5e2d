"""``repro serve``: a warm-process DSE service over the sweep machinery.

Every one-shot ``repro compile``/``repro sweep`` invocation pays Python
startup, ``import repro``, process-pool fork, and model/artifact cache
warm-up before doing any useful work — even when the answer is already
sitting in the content-addressed :class:`~repro.flow.artifacts.
ArtifactStore`. This module keeps all of that warm in one long-lived
process: a stdlib-``asyncio`` HTTP/JSON service (no new dependencies —
the HTTP/1.1 handler is ~60 lines below) that prices compile and sweep
requests through the existing :func:`~repro.flow.sweep.run_sweep` /
:class:`~repro.dse.engine.DsePool` machinery.

Perf mechanics
--------------
* **single-flight coalescing** — concurrent requests whose scenario
  cache key (:func:`~repro.flow.sweep.scenario_key`, the *same* sha256
  key the store and ledger use) matches an in-flight computation await
  the same future instead of re-pricing. The in-flight slot is claimed
  synchronously — before the handler's first ``await`` — so two
  requests arriving in the same loop iteration cannot both miss the
  map.
* **warm-path fast serve** — a request whose key the store already
  holds is answered from the store alone: the reply never touches the
  :class:`DsePool` (its ``maps`` counter is the proof the tests
  assert), only a store read on a small reader thread pool.
* **streamed progress** — sweep jobs append to a server-side
  :class:`~repro.flow.ledger.RunLedger` exactly as a local sweep would;
  clients poll ``GET /jobs/<id>?since=N`` for the rows appended since
  their last poll (:class:`~repro.flow.ledger.LedgerRecord` documents —
  the same serialization the ledger file uses).
* **keep-alive** — a connection serves requests until the client sends
  ``Connection: close`` or speaks HTTP/1.0, idles past
  :data:`KEEPALIVE_IDLE_S`, or the server drains; the ``Connection``
  response header says which. An error raised before the request body
  is fully read (a malformed request line, an over-limit
  ``Content-Length``) closes the connection, since the unread bytes
  would parse as the next request.
* **graceful drain** — SIGTERM (or ``POST /drain``) stops accepting
  work: new POSTs get 503, the in-flight scenario of any running sweep
  finishes normally (its ledger row closes its claim), unstarted
  scenarios are never claimed (``run_sweep``'s ``should_stop`` hook),
  and the pool is closed with :meth:`DsePool.close`. Every idle
  connection is closed when the drain starts (and once more before the
  listener closes) and responses sent while draining say
  ``Connection: close``: Python 3.12's ``Server.wait_closed()`` waits
  for every open connection. Because a job's ledger survives on disk,
  re-submitting the same grid after a restart resumes it — the job id
  is a content hash of the grid.

Concurrency model: one asyncio loop owns all bookkeeping (stats, the
coalescing map, the job table); all pool pricing — single compiles and
whole sweeps — is serialized through a one-thread executor, mirroring
the CLI where one process owns one pool. Warm-path store reads run on a
separate small reader pool so cache hits never queue behind a compile.

The server's ledger worker id is **stable across restarts** (no pid):
a SIGKILLed server that left stale claims re-acquires them immediately
on restart instead of waiting out the claim lease.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import pathlib
import signal
import socket
import threading
import time
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from ..dse.engine import DsePool
from ..errors import ConfigError, NSFlowError, ServeError
from ..faults import RetryPolicy, faultpoint
from ..model.cache import cumulative_snapshot
from ..utils import jsonable, stable_digest
from .artifacts import ArtifactStore
from .ledger import RunLedger
from .sweep import (
    DEFAULT_LEASE_TIMEOUT_S,
    ScenarioGrid,
    ScenarioSpec,
    run_sweep,
    scenario_key,
)

__all__ = [
    "DseServer",
    "ServeStats",
    "SweepJob",
    "sweep_job_id",
    "scenario_spec_from_doc",
    "scenario_grid_from_doc",
    "running_server",
    "MAX_BODY_BYTES",
    "KEEPALIVE_IDLE_S",
]

#: Request-body cap: grids are small JSON documents; anything larger is
#: a client bug (or abuse), rejected with 413 before buffering it.
MAX_BODY_BYTES = 1 << 20

#: Seconds a keep-alive connection may wait for its next request before
#: the server closes it.
KEEPALIVE_IDLE_S = 30.0


@dataclass
class ServeStats:
    """The server's lifetime counters (``GET /stats``).

    ``pricings`` counts scenarios actually priced on the pool by
    ``/compile`` requests; ``warm_hits`` requests answered from the
    store without touching the pool; ``coalesced`` requests that
    awaited another request's in-flight future instead of pricing —
    the single-flight proof the bench and tests assert
    (``coalesced == N - 1`` for N concurrent identical requests);
    ``connections`` counts accepted connections, each of which may
    carry many requests (keep-alive).
    """

    connections: int = 0
    requests: int = 0
    compiles: int = 0
    warm_hits: int = 0
    pricings: int = 0
    coalesced: int = 0
    sweeps: int = 0
    jobs_coalesced: int = 0
    rejected: int = 0
    errors: int = 0

    def doc(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SweepJob:
    """One submitted sweep grid and its server-side state.

    ``job_id`` is a content hash of the expanded grid — resubmitting
    the same grid coalesces onto the running job, and resubmitting it
    after a restart resumes from the job's ledger (same id, same
    ledger path). The sweep and every ``GET /jobs`` poll share the one
    ``ledger`` instance, so a poll parses only the rows appended since
    the previous read.
    """

    job_id: str
    grid: ScenarioGrid
    ledger: RunLedger
    scenarios: int
    status: str = "running"          # running | done | error | stopped
    error: str | None = None
    summary: dict | None = None

    @property
    def ledger_path(self) -> pathlib.Path:
        return self.ledger.path

    def doc(self) -> dict:
        out = {
            "job_id": self.job_id,
            "status": self.status,
            "scenarios": self.scenarios,
            "ledger": str(self.ledger_path),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.summary is not None:
            out["summary"] = self.summary
        return out


def sweep_job_id(grid: ScenarioGrid) -> str:
    """Content hash of a grid — the job identity.

    A pure function of the grid declaration, so identical submissions
    (same axes, same filters) map to one job and one ledger file, which
    is what makes resubmit-after-restart a resume instead of a re-run.
    """
    return stable_digest(jsonable(dataclasses.asdict(grid)), length=16)


_SPEC_FIELDS = {f.name for f in dataclasses.fields(ScenarioSpec)}
_GRID_FIELDS = {f.name for f in dataclasses.fields(ScenarioGrid)}


def _overrides_tuple(value) -> tuple[tuple[str, object], ...]:
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return tuple((str(k), v) for k, v in value)


def scenario_spec_from_doc(doc: dict) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a request document.

    Unknown fields are rejected (a typoed knob must not silently price
    the wrong scenario); validation itself is ``ScenarioSpec``'s — the
    same :class:`~repro.errors.ConfigError` messages the CLI prints.
    """
    if not isinstance(doc, dict):
        raise ConfigError("compile request body must be a JSON object")
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise ConfigError(
            f"unknown compile request field(s): {', '.join(sorted(unknown))}"
        )
    if "workload" not in doc:
        raise ConfigError("compile request needs a 'workload' field")
    kwargs = dict(doc)
    if "overrides" in kwargs:
        kwargs["overrides"] = _overrides_tuple(kwargs["overrides"])
    return ScenarioSpec(**kwargs)


def scenario_grid_from_doc(doc: dict) -> ScenarioGrid:
    """Build a :class:`ScenarioGrid` from a sweep request document."""
    if not isinstance(doc, dict):
        raise ConfigError("sweep request body must be a JSON object")
    unknown = set(doc) - _GRID_FIELDS
    if unknown:
        raise ConfigError(
            f"unknown sweep request field(s): {', '.join(sorted(unknown))}"
        )
    if "workloads" not in doc:
        raise ConfigError("sweep request needs a 'workloads' field")
    kwargs = dict(doc)
    if "overrides" in kwargs:
        kwargs["overrides"] = _overrides_tuple(kwargs["overrides"])
    return ScenarioGrid(**kwargs)


class _HttpError(Exception):
    """Route an error response: carries the HTTP status + message."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class DseServer:
    """The warm-process DSE service. See the module docstring.

    One instance owns one :class:`DsePool` (the ``jobs`` worker budget
    shared by every request, exactly like one CLI sweep), one
    :class:`ArtifactStore`, and one asyncio loop. ``port=0`` binds an
    ephemeral port; :attr:`port` holds the real one once
    :meth:`serve`'s ``on_ready`` callback fires.
    """

    def __init__(
        self,
        cache_dir: str | pathlib.Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        max_retries: int = 2,
        worker_id: str | None = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    ):
        self.cache_dir = pathlib.Path(cache_dir)
        self.host = host
        self.port = port
        self.jobs = jobs
        self.retry = RetryPolicy(max_attempts=max_retries + 1)
        # Stable across restarts by design: a restarted server must
        # re-own (not wait out) stale claims its SIGKILLed predecessor
        # left in a job ledger.
        self.worker_id = worker_id or f"serve@{socket.gethostname()}"
        self.lease_timeout_s = lease_timeout_s
        self.store = ArtifactStore(self.cache_dir, retry=self.retry)
        self.pool = DsePool(jobs)
        self.stats = ServeStats()
        self.started_at = time.time()
        self._inflight: dict[str, asyncio.Future] = {}
        self._jobs: dict[str, SweepJob] = {}
        self._job_tasks: dict[str, asyncio.Future] = {}
        # All pool pricing — single compiles and whole sweeps — funnels
        # through this one thread: one process, one pool, one pricer.
        self._pricer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-pricer"
        )
        # Warm-path store reads must never queue behind a compile.
        self._readers = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="serve-reader"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._draining = False
        #: Connections waiting for their next request line.
        self._idle: set[asyncio.StreamWriter] = set()

    # -- lifecycle -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def request_drain(self) -> None:
        """Begin a graceful drain; safe to call from any thread.

        Idempotent. New work is rejected with 503, running sweeps stop
        at their next scenario boundary (``should_stop``), in-flight
        pricings finish and answer their waiters, then the listener
        closes and the pool shuts down.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def _begin() -> None:
            self._draining = True
            self._close_idle()
            if self._stop is not None:
                self._stop.set()

        try:
            loop.call_soon_threadsafe(_begin)
        except RuntimeError:  # loop already closed mid-call
            pass

    async def serve(
        self, on_ready: Callable[["DseServer"], None] | None = None
    ) -> None:
        """Bind, serve until drained, then shut the pool down."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main-thread loop (tests) or platform without
                # signal support: /drain and request_drain() remain.
                pass
        if on_ready is not None:
            on_ready(self)
        try:
            async with server:
                await self._stop.wait()
                self._draining = True
                # Keep the listener open while draining so clients can
                # still poll job progress; only POSTs are rejected.
                while self._inflight or self._job_tasks:
                    pending = [
                        t for t in self._job_tasks.values() if not t.done()
                    ]
                    inflight = [
                        f for f in self._inflight.values() if not f.done()
                    ]
                    if not pending and not inflight:
                        break
                    await asyncio.wait(
                        pending + inflight,
                        return_when=asyncio.ALL_COMPLETED,
                    )
                # Connections that went idle during the drain; no await
                # lies between here and the listener's close.
                self._close_idle()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(Exception):
                    self._loop.remove_signal_handler(sig)
            self._pricer.shutdown(wait=True)
            self._readers.shutdown(wait=True)
            self.pool.close()

    # -- HTTP plumbing ---------------------------------------------------------

    def _close_idle(self) -> None:
        for writer in tuple(self._idle):
            writer.close()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        try:
            keep_alive = True
            while keep_alive:
                request = None
                try:
                    request = await self._read_request(reader, writer)
                    if request is None:   # closed, idle too long, or drained
                        return
                    method, path, query, body, keep_alive = request
                    self.stats.requests += 1
                    status, doc = await self._route(method, path, query, body)
                except _HttpError as exc:
                    self.stats.errors += 1
                    status, doc = exc.status, {"error": str(exc)}
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                except NSFlowError as exc:
                    self.stats.errors += 1
                    status, doc = 400, {"error": str(exc)}
                except Exception as exc:  # noqa: BLE001 - the server must not die
                    self.stats.errors += 1
                    status, doc = 500, {"error": f"{type(exc).__name__}: {exc}"}
                # A request that failed before its body was read leaves
                # bytes that would parse as the next request: close.
                keep_alive = request is not None and keep_alive and not self._draining
                self._write_response(writer, status, doc, keep_alive)
                await writer.drain()
        except ConnectionError:     # the client went away mid-response
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, dict, bytes, bool] | None:
        """One request, with whether the client keeps the connection open.

        ``None`` when the connection closed before a request line came.
        """
        self._idle.add(writer)
        idle_timer = asyncio.get_running_loop().call_later(
            KEEPALIVE_IDLE_S, writer.close
        )
        try:
            line = await reader.readline()
        finally:
            self._idle.discard(writer)
            idle_timer.cancel()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        keep_alive = (
            parts[2:3] == ["HTTP/1.1"]
            and headers.get("connection", "").lower() != "close"
        )
        return method, split.path, query, body, keep_alive

    def _write_response(
        self, writer: asyncio.StreamWriter, status: int, doc: dict,
        keep_alive: bool,
    ) -> None:
        payload = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            doc = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return doc

    # -- routing ---------------------------------------------------------------

    async def _route(
        self, method: str, path: str, query: dict, body: bytes
    ) -> tuple[int, dict]:
        if method == "GET":
            if path == "/healthz":
                return 200, {"ok": True, "draining": self._draining}
            if path == "/stats":
                return 200, self._stats_doc()
            if path == "/jobs":
                return 200, {
                    "jobs": [job.doc() for job in self._jobs.values()]
                }
            if path.startswith("/jobs/"):
                return await self._get_job(path[len("/jobs/"):], query)
            raise _HttpError(404, f"no such resource: {path}")
        if method == "POST":
            if path == "/drain":
                self.request_drain()
                return 202, {"draining": True}
            if self._draining:
                self.stats.rejected += 1
                raise _HttpError(503, "server is draining; not accepting work")
            if path == "/compile":
                return await self._post_compile(self._json_body(body))
            if path == "/sweep":
                return await self._post_sweep(self._json_body(body))
            raise _HttpError(404, f"no such resource: {path}")
        raise _HttpError(405, f"method {method} not supported")

    def _stats_doc(self) -> dict:
        doc = self.stats.doc()
        doc.update(
            uptime_s=time.time() - self.started_at,
            draining=self._draining,
            inflight=len(self._inflight),
            jobs=len(self._jobs),
            pool_jobs=self.jobs,
            pool_maps=self.pool.maps,
            worker_id=self.worker_id,
            store=dataclasses.asdict(self.store.stats),
            model_cache={
                name: {"hits": hits, "misses": misses}
                for name, (hits, misses) in cumulative_snapshot().items()
            },
        )
        return doc

    # -- /compile: warm path, coalescing, pricing ------------------------------

    async def _post_compile(self, doc: dict) -> tuple[int, dict]:
        self.stats.compiles += 1
        spec = scenario_spec_from_doc(doc)     # ConfigError -> 400
        key = scenario_key(spec)
        existing = self._inflight.get(key)
        if existing is not None:
            # Single flight: same key, same future. The claim below is
            # synchronous (no await between the lookup and the insert),
            # so concurrent identical requests cannot all miss.
            self.stats.coalesced += 1
            return await asyncio.shield(existing)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            result = await self._answer_compile(spec, key)
            future.set_result(result)
            return result
        except BaseException as exc:
            # Waiters get the same failure; the future's result is
            # always consumed (shield keeps it out of their way).
            if not future.done():
                future.set_exception(exc)
                with contextlib.suppress(BaseException):
                    future.exception()   # mark retrieved for waiters == 0
            raise
        finally:
            self._inflight.pop(key, None)

    async def _answer_compile(
        self, spec: ScenarioSpec, key: str
    ) -> tuple[int, dict]:
        t0 = time.perf_counter()
        loop = asyncio.get_running_loop()
        cached = await loop.run_in_executor(
            self._readers, self.store.load, key
        )
        if cached is not None:
            self.stats.warm_hits += 1
            return 200, self._compile_doc(
                spec, key, cached, cached=True, evaluations=0,
                elapsed_s=time.perf_counter() - t0,
            )
        self.stats.pricings += 1
        artifacts, evaluations, was_cached = await loop.run_in_executor(
            self._pricer, self._price, spec, key
        )
        return 200, self._compile_doc(
            spec, key, artifacts, cached=was_cached, evaluations=evaluations,
            elapsed_s=time.perf_counter() - t0,
        )

    def _price(self, spec: ScenarioSpec, key: str):
        """Price one scenario on the pool (pricer thread only).

        Re-checks the store first: a sweep job serialized ahead of us on
        this same thread may have stored the entry since the warm-path
        miss — compiling again would waste the pool and (harmlessly but
        noisily) double-price.
        """
        from .sweep import _compile_scenario

        cached = self.store.load(key)
        if cached is not None:
            return cached, 0, True
        faultpoint("sweep.compile")
        design, artifacts = _compile_scenario(spec, self.pool)
        self.store.store(key, design, spec.key_doc())
        return artifacts, design.dse.phase1.candidates_evaluated, False

    @staticmethod
    def _compile_doc(
        spec: ScenarioSpec, key: str, artifacts, *, cached: bool,
        evaluations: int, elapsed_s: float,
    ) -> dict:
        return {
            "scenario_id": spec.scenario_id,
            "key": key,
            "status": "ok",
            "cached": cached,
            "latency_ms": artifacts.latency_ms,
            "total_cycles": artifacts.total_cycles,
            "evaluations": evaluations,
            "elapsed_s": elapsed_s,
        }

    # -- /sweep: jobs over the ledger ------------------------------------------

    async def _post_sweep(self, doc: dict) -> tuple[int, dict]:
        self.stats.sweeps += 1
        grid = scenario_grid_from_doc(doc)     # ConfigError -> 400
        specs = grid.expand()
        if not specs:
            raise _HttpError(400, "grid is empty after include/exclude")
        job_id = sweep_job_id(grid)
        job = self._jobs.get(job_id)
        if job is not None and job.status == "running":
            # Job-level single flight: identical grids share one run.
            self.stats.jobs_coalesced += 1
            out = job.doc()
            out["coalesced"] = True
            return 202, out
        job = SweepJob(
            job_id=job_id,
            grid=grid,
            ledger=RunLedger(self.cache_dir / "jobs" / f"{job_id}.jsonl",
                             retry=self.retry),
            scenarios=len(specs),
        )
        self._jobs[job_id] = job
        task = asyncio.get_running_loop().run_in_executor(
            self._pricer, self._run_job, job
        )
        self._job_tasks[job_id] = task
        task.add_done_callback(
            lambda _t, jid=job_id: self._job_tasks.pop(jid, None)
        )
        return 202, job.doc()

    def _run_job(self, job: SweepJob) -> None:
        """Run one sweep job to completion (pricer thread only)."""
        try:
            ledger = job.ledger
            result = run_sweep(
                job.grid,
                store=self.store,
                pool=self.pool,
                ledger=ledger,
                resume=ledger.exists(),
                worker=self.worker_id,
                lease_timeout_s=self.lease_timeout_s,
                retry=self.retry,
                should_stop=lambda: self._draining,
            )
            job.summary = {
                "scenarios": result.n_scenarios,
                "compiled": result.n_compiled,
                "cached": result.n_cached,
                "resumed": result.n_resumed,
                "errors": result.n_errors,
                "fresh_model_evaluations": result.fresh_model_evaluations,
                "elapsed_s": result.elapsed_s,
            }
            if result.stopped:
                job.status = "stopped"
            elif result.n_errors:
                job.status = "error"
                job.error = f"{result.n_errors} scenario(s) failed"
            else:
                job.status = "done"
        except Exception as exc:  # noqa: BLE001 - job isolation
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = "error"

    async def _get_job(self, job_id: str, query: dict) -> tuple[int, dict]:
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        try:
            since = int(query.get("since", "0") or "0")
        except ValueError:
            raise _HttpError(400, "bad 'since' value") from None
        if since < 0:
            raise _HttpError(400, "bad 'since' value")
        records = await asyncio.get_running_loop().run_in_executor(
            self._readers, job.ledger.records
        )
        doc = job.doc()
        doc["rows"] = [
            dataclasses.asdict(r) for r in records[since:]
        ]
        doc["next"] = len(records)
        return 200, doc


@contextlib.contextmanager
def running_server(
    cache_dir: str | pathlib.Path, **kwargs
) -> Iterator[DseServer]:
    """Run a :class:`DseServer` on a background thread (tests, benches).

    Yields the server once it is bound (``server.port`` is real); on
    exit requests a drain and joins the thread, propagating any crash
    of the serve loop as :class:`~repro.errors.ServeError`.
    """
    server = DseServer(cache_dir, **kwargs)
    ready = threading.Event()
    crashed: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(server.serve(on_ready=lambda _s: ready.set()))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            crashed.append(exc)
            ready.set()

    thread = threading.Thread(target=_run, name="serve-loop", daemon=True)
    thread.start()
    if not ready.wait(timeout=30.0) or crashed:
        raise ServeError(
            f"server failed to start: {crashed[0] if crashed else 'timeout'}"
        )
    try:
        yield server
    finally:
        server.request_drain()
        thread.join(timeout=120.0)
        if thread.is_alive():
            raise ServeError("server did not drain within 120 s")
        if crashed:
            raise ServeError(f"server crashed: {crashed[0]}") from crashed[0]
