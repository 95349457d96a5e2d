"""Transport tests for :class:`~repro.flow.client.ServeClient`.

The client frames HTTP/1.1 itself, so these tests talk to a scripted
raw-socket peer instead of ``repro serve``: each accepted connection
runs a list of steps (read one request, write some bytes), and the
peer counts the connections it accepted and records every request it
read. They cover the one-write request, replies split across writes,
``Connection: close``, the one resend of a reused connection, the
failures that are final, protocol errors and the read timeout.
"""

from __future__ import annotations

import errno
import json
import re
import socket
import threading
import time

import pytest

from repro.errors import ServeError
from repro.flow.client import ServeClient

#: Script step: read one request (or the end of the stream) and record it.
READ = "read"


def reply(doc: dict, connection: str = "keep-alive") -> bytes:
    """The bytes of one well-formed JSON reply."""
    body = json.dumps(doc).encode()
    return (f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: {connection}\r\n"
            f"\r\n").encode() + body


class Peer:
    """A raw-socket HTTP peer serving scripted connections on a thread.

    Each positional argument scripts one accepted connection, in order:
    :data:`READ` reads one request (ending the script at end of stream),
    bytes are written with one ``sendall``. A connection closes when its
    script ends; connections past the scripted ones close at once.
    """

    def __init__(self, *scripts: list):
        self.scripts = scripts
        self.accepted = 0
        self.requests: list[bytes] = []
        self._errors: list[BaseException] = []
        self._stopping = False
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "Peer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stopping = True
        socket.create_connection(("127.0.0.1", self.port), timeout=5).close()
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive(), "peer still serving"
        if self._errors:
            raise self._errors[0]

    def client(self, timeout_s: float = 10.0) -> ServeClient:
        return ServeClient(f"http://127.0.0.1:{self.port}", timeout_s=timeout_s)

    def _serve(self) -> None:
        try:
            while True:
                conn, _ = self._listener.accept()
                with conn, conn.makefile("rb") as reader:
                    if self._stopping:
                        return
                    conn.settimeout(10)
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    script = (self.scripts[self.accepted]
                              if self.accepted < len(self.scripts) else [])
                    self.accepted += 1
                    for step in script:
                        if step == READ:
                            if not self._read(reader):
                                break
                        else:
                            conn.sendall(step)
        except BaseException as exc:  # noqa: BLE001 - raised in __exit__
            self._errors.append(exc)

    def _read(self, reader) -> bool:
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = reader.readline()
            if not line:
                return False
            head += line
        length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
        self.requests.append(head + reader.read(int(length.group(1)) if length else 0))
        return True


def _request_lines(peer: Peer) -> list[bytes]:
    return [request.split(b"\r\n", 1)[0] for request in peer.requests]


def test_each_request_is_one_write(monkeypatch):
    """The request line, headers and JSON body leave in one write, on a
    fresh connection and on a reused one."""
    writes: list[bytes] = []
    caller = threading.get_ident()
    for name in ("sendall", "send"):
        def counting(sock, data, *args, _original=getattr(socket.socket, name)):
            if threading.get_ident() == caller:
                writes.append(bytes(data))
            return _original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, counting)
    doc = {"workload": "synth", "overrides": {"seed": 3}}
    body = json.dumps(doc).encode()
    with Peer([READ, reply({"n": 1}), READ, reply({"n": 2}), READ]) as peer, \
            peer.client() as client:
        for n in (1, 2):
            writes.clear()
            assert client.compile_scenario(doc) == {"n": n}
            assert writes == [
                (f"POST /compile HTTP/1.1\r\nHost: 127.0.0.1:{peer.port}\r\n"
                 f"Accept: application/json\r\nContent-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n").encode() + body
            ]
    assert peer.requests == [writes[0]] * 2
    assert peer.accepted == 1


def test_reply_split_across_writes_parses():
    body = b'{"ok": true, "draining": false}'
    pieces = [
        b"HTTP/1.1 200 OK\r\n",
        b"Content-Type: application/json\r\nContent-Le",
        b"ngth: %d\r\nConnection: keep-alive\r\n\r\n" % len(body),
        body[:7],
        body[7:],
    ]
    with Peer([READ, *pieces, READ, reply({"n": 2}), READ]) as peer, \
            peer.client() as client:
        assert client.health() == {"ok": True, "draining": False}
        assert client.health() == {"n": 2}
    assert peer.accepted == 1


def test_connection_close_reply_opens_one_new_connection():
    with Peer([READ, reply({"n": 1}, connection="close"), READ],
              [READ, reply({"n": 2}), READ, reply({"n": 3}), READ]) as peer, \
            peer.client() as client:
        assert [client.health() for _ in range(3)] == [{"n": 1}, {"n": 2}, {"n": 3}]
    assert peer.accepted == 2
    assert _request_lines(peer) == [b"GET /healthz HTTP/1.1"] * 3


def test_reused_connection_closed_before_replying_is_resent_once():
    # The first connection reads the second request and closes unanswered.
    with Peer([READ, reply({"n": 1}), READ],
              [READ, reply({"n": 2}), READ]) as peer, \
            peer.client() as client:
        assert client.health() == {"n": 1}
        assert client.stats() == {"n": 2}
    assert peer.accepted == 2
    assert _request_lines(peer) == [b"GET /healthz HTTP/1.1",
                                    b"GET /stats HTTP/1.1", b"GET /stats HTTP/1.1"]


def test_a_resent_request_is_not_resent_again():
    with Peer([READ, reply({"n": 1}), READ], [READ]) as peer, \
            peer.client() as client:
        assert client.health() == {"n": 1}
        with pytest.raises(ServeError, match=r"cannot reach server at http://"
                           r"127\.0\.0\.1:\d+: server closed the connection "
                           r"before replying"):
            client.health()
    assert peer.accepted == 2


def test_fresh_connection_closed_before_replying_is_not_resent():
    with Peer([READ]) as peer, peer.client() as client:
        with pytest.raises(ServeError, match="cannot reach server"):
            client.health()
    assert peer.accepted == 1


def test_refused_fresh_connection_is_not_retried(monkeypatch):
    connects: list[tuple] = []
    create_connection = socket.create_connection
    monkeypatch.setattr(
        socket, "create_connection",
        lambda address, *a, **kw: connects.append(address)
        or create_connection(address, *a, **kw),
    )
    with socket.socket() as bound:            # bound, never listening
        bound.bind(("127.0.0.1", 0))
        port = bound.getsockname()[1]
        with pytest.raises(ServeError,
                           match=f"cannot reach server at http://127.0.0.1:{port}"):
            ServeClient(f"http://127.0.0.1:{port}").health()
    assert connects == [("127.0.0.1", port)]


@pytest.mark.parametrize("bad_reply, message", [
    (b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n{}",
     r"cannot reach server at .*: reply 200 has no Content-Length"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
     r"cannot reach server at .*: reply 200 ended after 2 of 10 body bytes"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}",
     r"cannot reach server at .*: reply 200 has a bad Content-Length"),
    (b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}",
     r"cannot reach server at .*: malformed status line b'HTTP/1.1 OK\\r\\n'"),
    (b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 5\r\n\r\noops!",
     r"server sent a non-JSON response \(500\)"),
], ids=["no-content-length", "short-body", "negative-content-length",
        "malformed-status-line", "non-json-500"])
def test_protocol_errors_raise_serve_error(bad_reply, message):
    with Peer([READ, bad_reply]) as peer, peer.client() as client:
        with pytest.raises(ServeError, match=message):
            client.health()


def test_silent_peer_times_out_and_drops_the_connection():
    with Peer([READ, READ], [READ, reply({"n": 2}), READ]) as peer, \
            peer.client(timeout_s=0.5) as client:
        t0 = time.monotonic()
        with pytest.raises(ServeError, match="cannot reach server at .*: timed out"):
            client.health()
        assert time.monotonic() - t0 < 5.0
        assert client.health() == {"n": 2}
    assert peer.accepted == 2


def test_request_line_rejects_spaces_and_control_characters():
    with Peer() as peer, peer.client() as client:
        for path in ("/jobs/a b", "/jobs/a\r\nX-Injected: 1", "/jobs/é"):
            with pytest.raises(ServeError, match="holds a space, control or non-ASCII"):
                client.request("GET", path)
    assert peer.accepted == 0


def test_ipv6_host_keeps_its_brackets(monkeypatch):
    """The base URL round-trips through the constructor, and the Host
    header and every transport error name the bracketed host."""
    client = ServeClient("http://[::1]:8177")
    assert (client.host, client.port) == ("::1", 8177)
    assert client.base_url == "http://[::1]:8177"
    assert ServeClient(client.base_url).base_url == client.base_url
    create_connection = socket.create_connection
    with Peer([READ, reply({"ok": True}), READ]) as peer, client:
        # Reach the IPv4 loopback peer whatever the host's IPv6 setup.
        monkeypatch.setattr(
            socket, "create_connection",
            lambda address, *a, **kw: create_connection(("127.0.0.1", peer.port), *a, **kw),
        )
        assert client.health() == {"ok": True}
    assert peer.requests[0].startswith(
        b"GET /healthz HTTP/1.1\r\nHost: [::1]:8177\r\n"
    )

    def refuse(address, *args, **kwargs):
        raise ConnectionRefusedError(errno.ECONNREFUSED, "Connection refused")

    monkeypatch.setattr(socket, "create_connection", refuse)
    with pytest.raises(ServeError,
                       match=re.escape("cannot reach server at http://[::1]:8177: ")):
        client.health()
