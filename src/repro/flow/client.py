"""Thin HTTP/JSON client for the ``repro serve`` service.

Stdlib-only, and it frames HTTP/1.1 itself over one keep-alive socket
per calling thread (:class:`_Connection`):

* **One write per request.** The request line, ``Host``, ``Accept``,
  ``Content-Type`` (with a body), ``Content-Length`` and the JSON body
  are built as one bytes object and written with one ``sendall``.
* **Content-Length replies.** The status line and headers are read from
  the socket's buffered reader, then exactly ``Content-Length`` body
  bytes. A reply without ``Content-Length``, a malformed status line or
  a short body is a protocol error; there is no chunked decoding and no
  pipelining. A reply saying ``Connection: close`` closes the socket
  once its body is read.
* **One resend.** A request on a *reused* connection that fails before
  any reply byte arrives (reset, broken pipe, or end of stream before
  the status line: the server had closed the connection, idle or
  draining) is resent once on a new connection, which is safe because
  every endpoint is idempotent. A fresh connection's failure, and any
  failure after the first reply byte, is final.

``timeout_s`` bounds the connect and every read; a timeout drops the
connection. :meth:`ServeClient.close` (or leaving a ``with`` block)
closes every connection the client opened. Every method returns the
server's decoded JSON document; non-2xx responses and transport
failures raise :class:`~repro.errors.ServeError` carrying the server's
``error`` message, so CLI callers surface exactly what the server said.

``repro submit`` and ``repro sweep --server URL`` are built on this
module; :meth:`ServeClient.wait_job` is the polling loop behind both —
it streams each newly appended ledger row to a callback (the CLI's
per-scenario progress lines) until the job leaves the ``running``
state.
"""

from __future__ import annotations

import errno
import io
import json
import socket
import threading
import time
from collections.abc import Callable
from urllib.parse import urlencode, urlsplit

from ..errors import ServeError

__all__ = ["ServeClient", "DEFAULT_POLL_S"]

#: Default delay between ``/jobs/<id>`` polls while waiting on a job.
DEFAULT_POLL_S = 0.2

#: Longest status or header line accepted from a server, in bytes.
_MAX_LINE = 65536


class _BadReply(Exception):
    """The server's reply broke HTTP/1.1 framing after its first byte."""


class _Connection:
    """One keep-alive socket and its buffered reader.

    ``sock`` is ``None`` until the first request and after :meth:`close`;
    the next :meth:`send` then opens a new socket.
    """

    def __init__(self, address: tuple[str, int], timeout_s: float | None):
        self.address = address
        self.timeout_s = timeout_s
        self.sock: socket.socket | None = None
        self.reader: io.BufferedReader | None = None

    def send(self, message: bytes) -> None:
        """Write one request and wait for the first byte of its reply.

        Raises :class:`ConnectionResetError` when the server closes the
        connection before sending any reply byte.
        """
        if self.sock is None:
            self._open()
        self.sock.sendall(message)
        if not self.reader.peek(1):
            raise ConnectionResetError(
                "server closed the connection before replying"
            )

    def read_reply(self) -> tuple[int, bytes]:
        """The reply's status and its ``Content-Length`` body bytes."""
        line = self._line()
        parts = line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                or len(parts[1]) != 3 or not parts[1].isdigit()):
            raise _BadReply(f"malformed status line {line!r}")
        status = int(parts[1])
        length = None
        close = False
        while (line := self._line()) not in (b"\r\n", b"\n"):
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                value = value.strip()
                if not value.isdigit():
                    raise _BadReply(f"reply {status} has a bad Content-Length {value!r}")
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        if length is None:
            raise _BadReply(f"reply {status} has no Content-Length")
        body = self.reader.read(length)
        if len(body) != length:
            raise _BadReply(
                f"reply {status} ended after {len(body)} of {length} body bytes"
            )
        if close:
            self.close()
        return status, body

    def close(self) -> None:
        reader, sock = self.reader, self.sock
        self.reader = self.sock = None
        if reader is not None:
            reader.close()
        if sock is not None:
            sock.close()

    def _open(self) -> None:
        sock = socket.create_connection(self.address, self.timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            if exc.errno != errno.ENOPROTOOPT:
                sock.close()
                raise
        self.sock, self.reader = sock, sock.makefile("rb")

    def _line(self) -> bytes:
        line = self.reader.readline(_MAX_LINE + 1)
        if not line:
            raise _BadReply("server closed the connection mid-reply")
        if len(line) > _MAX_LINE:
            raise _BadReply(f"reply line over {_MAX_LINE} bytes")
        return line


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
        host = f"[{self.host}]" if ":" in self.host else self.host   # IPv6
        self._authority = f"{host}:{self.port}"
        self._headers = f"Host: {self._authority}\r\nAccept: application/json\r\n"
        self._local = threading.local()
        # Every connection this client opened, with the thread it serves,
        # so close() reaches all of them; a finished thread's connection
        # is closed as soon as another thread opens one.
        self._conns: dict[_Connection, threading.Thread] = {}
        self._conns_lock = threading.Lock()

    @property
    def base_url(self) -> str:
        return f"http://{self._authority}"

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
        target = f"{method} {path}"
        if (target.count(" ") != 1 or not target.isascii()
                or not target.isprintable()):
            raise ServeError(
                f"cannot reach server at {self.base_url}: request "
                f"{target!r} holds a space, control or non-ASCII character"
            )
        body = b"" if doc is None else json.dumps(doc).encode("utf-8")
        head = f"{target} HTTP/1.1\r\n{self._headers}"
        if doc is not None:
            head += "Content-Type: application/json\r\n"
        message = f"{head}Content-Length: {len(body)}\r\n\r\n".encode() + body
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection(
                (self.host, self.port), self.timeout_s
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
                conn.send(message)
            except (ConnectionResetError, BrokenPipeError):
                # The server closed the connection before replying. Only
                # a reused one is resent; a fresh connection's failure is
                # final.
                if not reused:
                    raise
                conn.close()
                conn.send(message)
            status, payload = conn.read_reply()
        except (OSError, _BadReply) as exc:
            conn.close()
            raise ServeError(
                f"cannot reach server at {self.base_url}: {exc}"
            ) from exc
        try:
            out = json.loads(payload.decode("utf-8")) if payload else {}
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServeError(
                f"server sent a non-JSON response ({status}): {exc}"
            ) from exc
        if status >= 300:
            error = out.get("error", payload.decode("utf-8", "replace"))
            raise ServeError(f"server returned {status}: {error}")
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
