"""Thin HTTP/JSON client for the ``repro serve`` service.

Stdlib-only (:mod:`http.client`). Each calling thread reuses one
keep-alive connection; a request the server never answered because it
had closed that connection (idle, or draining) is resent once on a new
one, which is safe because every endpoint is idempotent.
:meth:`ServeClient.close` (or leaving a ``with`` block) closes every
connection the client opened. Every method returns the server's decoded
JSON document; non-2xx responses and transport failures raise
:class:`~repro.errors.ServeError` carrying the server's ``error``
message, so CLI callers surface exactly what the server said.

``repro submit`` and ``repro sweep --server URL`` are built on this
module; :meth:`ServeClient.wait_job` is the polling loop behind both —
it streams each newly appended ledger row to a callback (the CLI's
per-scenario progress lines) until the job leaves the ``running``
state.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections.abc import Callable
from urllib.parse import urlencode, urlsplit

from ..errors import ServeError

__all__ = ["ServeClient", "DEFAULT_POLL_S"]

#: Default delay between ``/jobs/<id>`` polls while waiting on a job.
DEFAULT_POLL_S = 0.2


class ServeClient:
    """Talk to a :class:`~repro.flow.server.DseServer` at ``base_url``.

    >>> with ServeClient("http://127.0.0.1:8177") as client:  # doctest: +SKIP
    ...     client.health()
    {'ok': True, 'draining': False}
    """

    def __init__(self, base_url: str, timeout_s: float = 120.0):
        split = urlsplit(base_url if "//" in base_url else f"//{base_url}",
                         scheme="http")
        if split.scheme != "http":
            raise ServeError(
                f"unsupported server URL scheme {split.scheme!r} "
                f"(only http is served): {base_url!r}"
            )
        if not split.hostname:
            raise ServeError(f"server URL has no host: {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout_s = timeout_s
        self._local = threading.local()
        # Every connection this client opened, with the thread it serves,
        # so close() reaches all of them; a finished thread's connection
        # is closed as soon as another thread opens one.
        self._conns: dict[http.client.HTTPConnection, threading.Thread] = {}
        self._conns_lock = threading.Lock()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Close every keep-alive connection this client opened.

        Call it once no request is in flight. The client stays usable: a
        later request from any thread opens a new connection.
        """
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -------------------------------------------------------------

    def request(self, method: str, path: str, doc: dict | None = None) -> dict:
        """One HTTP round trip; returns the decoded JSON document."""
        body = None
        headers = {"Accept": "application/json"}
        if doc is not None:
            body = json.dumps(doc).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            with self._conns_lock:
                for old, thread in list(self._conns.items()):
                    if not thread.is_alive():
                        old.close()
                        del self._conns[old]
                self._conns[conn] = threading.current_thread()
        try:
            reused = conn.sock is not None
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected included: the server closed the
                # connection before answering. Only a reused one is
                # resent; a fresh connection's failure is final.
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServeError(
                f"cannot reach server at {self.base_url}: {exc}"
            ) from exc
        try:
            out = json.loads(payload.decode("utf-8")) if payload else {}
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServeError(
                f"server sent a non-JSON response ({response.status}): {exc}"
            ) from exc
        if response.status >= 300:
            message = out.get("error", payload.decode("utf-8", "replace"))
            raise ServeError(
                f"server returned {response.status}: {message}"
            )
        return out

    # -- endpoints -------------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def compile_scenario(self, spec_doc: dict) -> dict:
        """Price (or fetch from the warm cache) one scenario."""
        return self.request("POST", "/compile", spec_doc)

    def submit_sweep(self, grid_doc: dict) -> dict:
        """Submit a sweep grid; returns the job document (``job_id``)."""
        return self.request("POST", "/sweep", grid_doc)

    def jobs(self) -> dict:
        return self.request("GET", "/jobs")

    def job(self, job_id: str, since: int = 0) -> dict:
        """One job's status plus its ledger rows from index ``since``."""
        query = urlencode({"since": since}) if since else ""
        path = f"/jobs/{job_id}" + (f"?{query}" if query else "")
        return self.request("GET", path)

    def drain(self) -> dict:
        """Ask the server to drain and shut down gracefully."""
        return self.request("POST", "/drain")

    def wait_job(
        self,
        job_id: str,
        *,
        poll_s: float = DEFAULT_POLL_S,
        timeout_s: float | None = None,
        on_rows: Callable[[list[dict]], None] | None = None,
    ) -> dict:
        """Poll a job until it leaves ``running``; stream rows as they land.

        ``on_rows`` receives each batch of newly appended ledger-row
        documents exactly once (the ``since`` cursor advances by the
        server's ``next`` index). Raises :class:`ServeError` when
        ``timeout_s`` elapses first.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        since = 0
        while True:
            doc = self.job(job_id, since=since)
            rows = doc.get("rows", [])
            if rows and on_rows is not None:
                on_rows(rows)
            since = doc.get("next", since)
            if doc.get("status") != "running":
                return doc
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"job {job_id} still running after {timeout_s:g} s"
                )
            time.sleep(poll_s)
