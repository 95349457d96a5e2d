"""Lifecycle tests for the ``repro serve`` warm-process DSE service.

Covers the perf mechanics the service exists for: single-flight
coalescing (N concurrent identical requests → exactly one pricing), the
warm cache-hit path that never prices, HTTP keep-alive (raw
sockets) and the client's one resend, sweep jobs streamed
through the server-side ledger, and graceful drain — both the
``POST /drain`` path in-process and SIGTERM against a real server
subprocess with an in-flight sweep (stalled via an injected
``sweep.compile`` delay), including resume-after-restart byte-identity
against a local sweep. A SIGKILLed server gets the same check, with
the job submitted and resumed through ``repro submit``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import http.client
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import ledger_oracle
import pytest

import repro.flow.client as client_module
import repro.flow.ledger as ledger_module
import repro.flow.server as server_module
from repro.errors import ServeError
from repro.faults import injected_faults
from repro.flow.artifacts import ArtifactStore
from repro.flow.cli import main as cli_main
from repro.flow.client import ServeClient
from repro.flow.ledger import LedgerRecord, RunLedger, merge_ledgers
from repro.flow.report import job_summary
from repro.flow.server import MAX_BODY_BYTES, running_server, sweep_job_id
from repro.flow.sweep import ScenarioGrid, ScenarioSpec, run_sweep, scenario_key

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _client(server) -> ServeClient:
    return ServeClient(f"http://127.0.0.1:{server.port}")


def test_health_stats_and_bad_requests(tmp_path):
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        assert client.health() == {"ok": True, "draining": False}
        stats = client.stats()
        assert stats["pricings"] == 0 and stats["inflight"] == 0
        for field, value in (("nope", 1), ("search", "multifidelity")):
            with pytest.raises(ServeError, match=rf"400: unknown compile "
                               rf"request field\(s\): {field}$"):
                client.compile_scenario({"workload": "prae", field: value})
        with pytest.raises(ServeError, match="unknown workload"):
            client.compile_scenario({"workload": "no-such-workload"})
        with pytest.raises(ServeError, match="404"):
            client.job("no-such-job")


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def _connect(server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=5)


def _exchange(sock: socket.socket, request: bytes) -> tuple[int, str, dict]:
    """Send one raw request; return the status, ``Connection`` and body."""
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    return (response.status, response.getheader("Connection"),
            json.loads(response.read()))


def _closed_by_server(sock: socket.socket) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def test_keep_alive_serves_requests_on_one_connection(tmp_path):
    with running_server(tmp_path / "cache") as server:
        with _client(server) as client:
            before = client.stats()["connections"]
        with _connect(server) as sock:
            assert _exchange(sock, HEALTHZ)[:2] == (200, "keep-alive")
            status, connection, stats = _exchange(
                sock, b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
            )
        assert (status, connection) == (200, "keep-alive")
        assert stats["connections"] == before + 1


def test_close_requests_get_close_then_eof(tmp_path):
    """``Connection: close`` and HTTP/1.0 end the connection after one
    answer, and so does an error raised before the body was read; an
    error after it (404) keeps the connection."""
    with running_server(tmp_path / "cache") as server:
        with _connect(server) as sock:
            assert _exchange(sock, HEALTHZ)[:2] == (200, "keep-alive")
            assert _exchange(
                sock, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )[:2] == (200, "close")
            assert _closed_by_server(sock)
        with _connect(server) as sock:
            assert _exchange(
                sock, b"GET /healthz HTTP/1.0\r\n\r\n"
            )[:2] == (200, "close")
            assert _closed_by_server(sock)
        with _connect(server) as sock:
            assert _exchange(
                sock, b"GET /nope HTTP/1.1\r\n\r\n"
            )[:2] == (404, "keep-alive")
            over = (f"POST /compile HTTP/1.1\r\nContent-Length: "
                    f"{MAX_BODY_BYTES + 1}\r\n\r\n").encode()
            assert _exchange(sock, over)[:2] == (413, "close")
            assert _closed_by_server(sock)
        with _connect(server) as sock:
            assert _exchange(sock, b"NONSENSE\r\n\r\n") == (
                400, "close", {"error": "malformed request line"}
            )
            assert _closed_by_server(sock)


def test_drain_closes_idle_keep_alive_connections(tmp_path):
    """Python 3.12's ``Server.wait_closed()`` waits for every open
    connection, so a drain must close the idle ones to finish."""
    with running_server(tmp_path / "cache") as server:
        sock = _connect(server)
        assert _exchange(sock, HEALTHZ)[:2] == (200, "keep-alive")
        t0 = time.monotonic()
    with sock:
        assert time.monotonic() - t0 < 5.0
        assert _closed_by_server(sock)


def test_idle_connection_is_closed(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_S", 0.2)
    with running_server(tmp_path / "cache") as server:
        with _connect(server) as sock:
            assert _exchange(sock, HEALTHZ)[:2] == (200, "keep-alive")
            t0 = time.monotonic()
            assert _closed_by_server(sock)
            assert time.monotonic() - t0 < 3.0


def test_client_resends_once_on_a_closed_idle_connection(tmp_path, monkeypatch):
    """A reused connection the server closed costs exactly one resend; a
    fresh connection that cannot connect is not retried."""
    monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_S", 1.0)
    sends: list[str] = []
    send = client_module._Connection.send
    monkeypatch.setattr(
        client_module._Connection, "send",
        lambda conn, message: sends.append(
            message.split(b" ", 2)[1].decode()) or send(conn, message),
    )
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        before = client.stats()
        time.sleep(2.0)               # the server closes the idle connection
        sends.clear()
        assert client.health()["ok"]
        assert sends == ["/healthz", "/healthz"]
        after = client.stats()
        # The server saw the resent /healthz and this /stats, on one new
        # connection.
        assert after["requests"] - before["requests"] == 2
        assert after["connections"] - before["connections"] == 1
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sends.clear()
    with pytest.raises(ServeError, match="cannot reach server"):
        ServeClient(f"http://127.0.0.1:{port}").health()
    assert sends == ["/healthz"]


def test_compile_miss_then_warm_hit(tmp_path):
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        spec_doc = {"workload": "synth", "overrides": {"seed": 11}}
        miss = client.compile_scenario(spec_doc)
        hit = client.compile_scenario(spec_doc)
        assert miss["status"] == hit["status"] == "ok"
        assert not miss["cached"] and hit["cached"]
        assert miss["key"] == hit["key"] == scenario_key(
            ScenarioSpec(workload="synth", overrides=(("seed", 11),))
        )
        assert miss["latency_ms"] == hit["latency_ms"]
        assert hit["evaluations"] == 0
        stats = client.stats()
        assert stats["pricings"] == 1
        assert stats["warm_hits"] == 1


def test_single_flight_coalescing(tmp_path):
    """N concurrent identical requests perform exactly one pricing."""
    n = 6
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        spec_doc = {"workload": "synth", "overrides": {"seed": 21}}
        # Stall the one real compile long enough for every concurrent
        # request to arrive while it is in flight.
        with injected_faults("sweep.compile:delay=0.5"):
            with ThreadPoolExecutor(max_workers=n) as pool:
                results = list(pool.map(
                    lambda _i: client.compile_scenario(spec_doc), range(n)
                ))
        keys = {r["key"] for r in results}
        latencies = {r["latency_ms"] for r in results}
        assert len(keys) == 1 and len(latencies) == 1
        assert all(r["status"] == "ok" for r in results)
        stats = client.stats()
        assert stats["pricings"] == 1
        assert stats["coalesced"] == n - 1
        assert stats["warm_hits"] == 0


def test_warm_path_never_prices(tmp_path):
    """Cache hits are answered from the store alone: the second request
    is a warm hit and the pricer ran once, for the miss."""
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        spec_doc = {"workload": "synth", "overrides": {"seed": 31}}
        assert not client.compile_scenario(spec_doc)["cached"]
        hit = client.compile_scenario(spec_doc)
        assert hit["cached"]
        stats = client.stats()
        assert stats["pricings"] == 1
        assert stats["warm_hits"] == 1


def test_sweep_job_streams_rows_and_coalesces(tmp_path):
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        grid_doc = {"workloads": ["synth:0-3"]}
        with injected_faults("sweep.compile:delay=0.3"):
            job = client.submit_sweep(grid_doc)
            assert job["status"] == "running" and job["scenarios"] == 4
            assert job["job_id"] == sweep_job_id(
                ScenarioGrid(workloads=("synth:0-3",))
            )
            # An identical grid submitted while running coalesces onto
            # the same job instead of starting a second run.
            again = client.submit_sweep(grid_doc)
            assert again["job_id"] == job["job_id"]
            assert again.get("coalesced") is True
            batches: list[list[dict]] = []
            final = client.wait_job(
                job["job_id"], timeout_s=60, on_rows=batches.append
            )
        assert final["status"] == "done"
        assert final["summary"]["scenarios"] == 4
        assert final["summary"]["errors"] == 0
        rows = [row for batch in batches for row in batch]
        assert len(rows) == 4
        assert all(row["status"] == "ok" for row in rows)
        assert client.stats()["jobs_coalesced"] == 1
        # The job ledger is a real RunLedger on disk, claim rows and all.
        ledger = RunLedger(tmp_path / "cache" / "jobs"
                           / f"{job['job_id']}.jsonl")
        assert len(ledger.records()) == 4
        assert ledger.open_claims() == {}


def test_resumed_job_reports_zero_dse_work(tmp_path):
    """A fully resumed job ends with the zero-work line a warm local
    sweep prints, and ``/stats`` keeps ``model_cache`` and ``pricings``."""
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        grid_doc = {"workloads": ["synth:0-1"]}
        cold = client.wait_job(client.submit_sweep(grid_doc)["job_id"],
                               timeout_s=60)
        assert cold["status"] == "done" and cold["summary"]["evaluations"] > 0
        warm = client.wait_job(client.submit_sweep(grid_doc)["job_id"],
                               timeout_s=60)
        assert warm["status"] == "done" and warm["summary"]["resumed"] == 2
        assert ("Fresh DSE evaluations: 0 candidate models"
                in job_summary(warm).splitlines())
        stats = client.stats()
        assert "pricings" in stats
        assert set(stats["model_cache"]) == {
            "lru.layer_runtime", "lru.vsa_node_runtime",
        }


def test_drain_finishes_inflight_and_rejects_new_work(tmp_path):
    """While a drain waits for an in-flight pricing, new work gets 503;
    once the server has drained, its listener is gone."""
    new_work = {"workload": "synth", "overrides": {"seed": 42}}
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        spec_doc = {"workload": "synth", "overrides": {"seed": 41}}
        with injected_faults("sweep.compile:delay=0.6"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                inflight = pool.submit(client.compile_scenario, spec_doc)
                time.sleep(0.2)           # request is mid-pricing
                client.drain()
                with pytest.raises(ServeError, match="503: server is draining"):
                    client.compile_scenario(new_work)
                # The in-flight pricing finishes and answers normally.
                assert inflight.result(timeout=30)["status"] == "ok"
    with pytest.raises(ServeError, match="cannot reach server"):
        client.compile_scenario(new_work)


@pytest.mark.parametrize("request_bytes", [HEALTHZ, b""], ids=["request", "silent"])
def test_a_connection_accepted_as_the_drain_ends_is_closed(tmp_path, request_bytes):
    """A socket asyncio accepts in the loop pass that ends a drain is
    closed, not left open and unanswered.

    The client connects (the kernel completes the handshake; nothing is
    accepted yet) and requests the drain inside one callback on the
    server's loop, so its next poll runs the drain's end and the accept
    together: the accepted socket's transport is built after the drain
    decided to close the listener. ``Server.close()`` at that point
    fails the transport (``Server._attach`` asserts) and the socket
    stays open until garbage collection; the client would wait out its
    timeout. The outcome depends on the loop's order, not on timing.
    """
    server = server_module.DseServer(tmp_path / "cache")
    ready = threading.Event()
    loops: list[asyncio.AbstractEventLoop] = []

    def on_ready(_server) -> None:
        loops.append(asyncio.get_running_loop())
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve(on_ready=on_ready)), daemon=True
    )
    thread.start()
    assert ready.wait(timeout=30)
    clients: list[socket.socket] = []

    def connect_then_drain() -> None:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        sock.sendall(request_bytes)
        clients.append(sock)
        server.request_drain()

    loops[0].call_soon_threadsafe(connect_then_drain)
    thread.join(timeout=60)
    assert not thread.is_alive()
    with clients[0] as sock:
        assert _closed_by_server(sock)


@contextlib.contextmanager
def _spawned_server(tmp_path, *extra_args):
    """``repro serve`` as a subprocess, with a client.

    On exit the client's connections and the server's stdout pipe are
    closed, and a server still running is killed.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache"), *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    ) as proc:
        try:
            ready = proc.stdout.readline()
            m = re.search(r"http://[\d.]+:(\d+)", ready)
            if m is None:
                raise AssertionError(f"no ready line from server: {ready!r}")
            with ServeClient(f"http://127.0.0.1:{m.group(1)}") as client:
                yield proc, client
        finally:
            if proc.poll() is None:
                proc.kill()


def test_sigterm_drains_inflight_sweep_and_resume_matches_local(tmp_path):
    """SIGTERM mid-sweep: the in-flight scenario finishes, nothing else
    starts, claims are closed; resubmitting after restart resumes the
    job to a result byte-identical to a local sweep of the same grid."""
    with _spawned_server(
        tmp_path, "--faults", "sweep.compile:delay=0.6x*",
    ) as (proc, client):
        job = client.submit_sweep({"workloads": ["synth:0-3"]})
        job_id = job["job_id"]
        deadline = time.monotonic() + 30
        while not client.job(job_id)["rows"]:
            assert time.monotonic() < deadline, "no scenario finished"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    ledger_path = tmp_path / "cache" / "jobs" / f"{job_id}.jsonl"
    ledger = RunLedger(ledger_path)
    records = ledger.records()
    # Drained mid-grid: at least the in-flight scenario landed, at
    # least one scenario was never started, and no claim was left open
    # (the drain finishes, not abandons, claimed work).
    assert 1 <= len(records) < 4
    assert all(r.status == "ok" for r in records)
    assert ledger.open_claims() == {}

    # Restart (no faults) and resubmit the identical grid: same job id,
    # same ledger, completed scenarios resume instead of re-pricing.
    with _spawned_server(tmp_path) as (proc, client):
        job = client.submit_sweep({"workloads": ["synth:0-3"]})
        assert job["job_id"] == job_id
        final = client.wait_job(job_id, timeout_s=60)
        assert final["status"] == "done"
        assert final["summary"]["errors"] == 0
        assert final["summary"]["resumed"] == len(records)
        client.drain()
        assert proc.wait(timeout=60) == 0, "server did not drain cleanly"

    # Byte-identity: the server-produced ledger merges to exactly the
    # canonical rows of a local `repro sweep` over the same grid.
    local_ledger = tmp_path / "local-ledger.jsonl"
    result = run_sweep(
        ScenarioGrid(workloads=("synth:0-3",)),
        store=ArtifactStore(tmp_path / "local-cache"),
        ledger=local_ledger,
    )
    assert result.n_errors == 0
    served = merge_ledgers([ledger_path])
    local = merge_ledgers([local_ledger])
    assert served.canonical_ledger_text() == local.canonical_ledger_text()
    assert served.report_text() == local.report_text()


def test_sigkill_restart_resubmit_matches_local(tmp_path, capsys):
    """SIGKILL mid-sweep: a restarted server re-owns its stale claims,
    and ``repro submit`` of the same grid resumes the job to a result
    byte-identical to a local sweep."""
    server_args = ("--worker-id", "sigkill-test", "--lease-timeout", "1")
    submit = ["submit", "--workloads", "synth:0-5"]
    with _spawned_server(
        tmp_path, *server_args, "--faults", "sweep.compile:delay=0.5x*",
    ) as (proc, client):
        assert cli_main([*submit, "--server", client.base_url,
                         "--no-wait"]) == 0
        m = re.search(r"Submitted job (\w+) \((\d+) scenarios\)",
                      capsys.readouterr().out)
        assert m is not None
        job_id, total = m.group(1), int(m.group(2))
        deadline = time.monotonic() + 30
        while not client.job(job_id)["rows"]:
            assert time.monotonic() < deadline, "no scenario finished"
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL
    ledger_path = tmp_path / "cache" / "jobs" / f"{job_id}.jsonl"
    assert 1 <= len(RunLedger(ledger_path).records()) < total

    with _spawned_server(tmp_path, *server_args) as (proc, client):
        assert cli_main([*submit, "--server", client.base_url]) == 0
        out = capsys.readouterr().out
        assert f"Submitted job {job_id} " in out
        assert re.search(r"^\[\s*\d+/\d+\] \S+\s+resumed ", out, re.M)
        client.drain()
        assert proc.wait(timeout=60) == 0, "server did not drain cleanly"

    local_ledger = tmp_path / "local-ledger.jsonl"
    assert run_sweep(ScenarioGrid(workloads=("synth:0-5",)),
                     store=ArtifactStore(tmp_path / "local-cache"),
                     ledger=local_ledger).n_errors == 0
    served = merge_ledgers([ledger_path])
    local = merge_ledgers([local_ledger])
    assert served.double_priced == []
    assert served.open_claims == []
    assert served.canonical_ledger_text() == local.canonical_ledger_text()
    assert served.report_text() == local.report_text()


def test_submit_labels_a_recovered_row_recovered(tmp_path, capsys):
    """A stored entry that fails its audit is recompiled; the submit
    progress line and the job table both call the row ``recovered``."""
    store = ArtifactStore(tmp_path / "cache")
    (outcome,) = run_sweep(ScenarioGrid(workloads=("synth:3",)),
                           store=store).outcomes
    report = store.path_for(outcome.key) / "report.json"
    report.write_text(report.read_text().replace('"', "'", 1))
    with running_server(tmp_path / "cache") as server:
        assert cli_main(["submit", "--server", f"http://127.0.0.1:{server.port}",
                         "--workloads", "synth:3"]) == 0
    out = capsys.readouterr().out
    sid = re.escape(outcome.scenario_id)
    assert re.search(rf"^\[1/1\] {sid}\s+recovered ", out, re.M)
    assert re.search(rf"^{sid}\s+\| ok\s+\| recovered ", out, re.M)


def test_resubmit_prints_only_this_runs_rows(tmp_path, capsys):
    """Resubmitting a finished job resumes every scenario, and ``repro
    submit`` streams and tabulates only that run's three rows, not the
    first run's as well."""
    submit = ["submit", "--workloads", "synth:0-2"]
    with running_server(tmp_path / "cache") as server:
        url = f"http://127.0.0.1:{server.port}"
        assert cli_main([*submit, "--server", url]) == 0
        capsys.readouterr()
        assert cli_main([*submit, "--server", url]) == 0
    out = capsys.readouterr().out
    progress = re.findall(r"^\[(\d+)/(\d+)\] \S+\s+(\S+) ", out, re.M)
    assert progress == [(str(n), "3", "resumed") for n in (1, 2, 3)]
    table = re.findall(r"^\S+\s+\| (\S+)\s+\| (\S+)\s+\|", out, re.M)
    assert table == [("Status", "Source")] + [("ok", "resumed")] * 3


def test_concurrent_resubmits_share_one_run_and_its_first_row(tmp_path):
    """Submits racing to start a job's second run start exactly one; all
    get that run's ``first_row``, past the first run's rows."""
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        grid_doc = {"workloads": ["synth:0-1"]}
        job = client.submit_sweep(grid_doc)
        assert job["first_row"] == 0
        assert client.wait_job(job["job_id"], timeout_s=60)["status"] == "done"
        for key in server.store.keys():       # the second run recompiles
            shutil.rmtree(server.store.path_for(key))
        with injected_faults("sweep.compile:delay=0.3"):
            with ThreadPoolExecutor(max_workers=6) as pool:
                docs = list(pool.map(lambda _i: client.submit_sweep(grid_doc),
                                     range(6)))
            final = client.wait_job(job["job_id"], since=2, timeout_s=60)
        assert [d.get("coalesced", False) for d in docs].count(False) == 1
        assert [d["first_row"] for d in docs] == [2] * 6
        assert final["status"] == "done" and final["next"] == 4
        assert len(client.job(job["job_id"], since=2)["rows"]) == 2


def test_job_rows_are_ledger_records(tmp_path):
    """Polled rows round-trip through the LedgerRecord schema."""
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        job = client.submit_sweep({"workloads": ["synth:7"]})
        final = client.wait_job(job["job_id"], timeout_s=60)
        assert final["status"] == "done"
        doc = client.job(job["job_id"])
        assert doc["next"] == 1
        record = LedgerRecord.from_doc(doc["rows"][0])
        assert record.status == "ok"
        assert record.worker == server.worker_id
        # since-cursor: nothing new after the end.
        assert client.job(job["job_id"], since=doc["next"])["rows"] == []
        out = json.dumps(doc["rows"][0], sort_keys=True)
        assert "traceback" in doc["rows"][0] and out  # full schema served


def test_job_polls_parse_only_appended_rows(tmp_path, monkeypatch):
    """Polls read the job's own ledger: an unchanged one parses nothing."""
    parsed: list[bytes] = []
    parse_line = ledger_module._parse_line

    def counting_parse_line(raw: bytes):
        parsed.append(raw)
        return parse_line(raw)

    monkeypatch.setattr(ledger_module, "_parse_line", counting_parse_line)
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        job = client.submit_sweep({"workloads": ["synth:0-2"]})
        assert client.wait_job(job["job_id"], timeout_s=60)["status"] == "done"
        first = client.job(job["job_id"])
        parsed.clear()
        second = client.job(job["job_id"])
        assert parsed == []
        assert second["rows"] == first["rows"]
        tail = client.job(job["job_id"], since=1)
        assert parsed == [] and tail["rows"] == first["rows"][1:]
    # The rows are the ones a from-scratch read of the file gives.
    path = tmp_path / "cache" / "jobs" / f"{job['job_id']}.jsonl"
    records = [e for e in ledger_oracle.entries(path) if isinstance(e, LedgerRecord)]
    assert first["rows"] == [dataclasses.asdict(r) for r in records]
    assert first["next"] == len(records) == 3


def test_bad_since_cursor_is_a_client_error(tmp_path):
    """Malformed/negative ``since`` values surface as 400s, not a 500."""
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        job = client.submit_sweep({"workloads": ["synth:7"]})
        client.wait_job(job["job_id"], timeout_s=60)
        with pytest.raises(ServeError, match=r"400.*bad 'since'"):
            client.job(job["job_id"], since=-1)
        with pytest.raises(ServeError, match=r"400.*bad 'since'"):
            client.request("GET", f"/jobs/{job['job_id']}?since=abc")
        # A well-formed cursor on the same job still answers normally.
        assert client.job(job["job_id"], since=0)["status"] == "done"


def test_accuracy_request_threads_through_the_server(tmp_path):
    """ScenarioSpec's accuracy fields are accepted on /compile and join
    the scenario identity served back to the client."""
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        doc = {"workload": "synth", "overrides": {"seed": 11},
               "accuracy": True, "accuracy_problems": 4}
        out = client.compile_scenario(doc)
        assert out["status"] == "ok"
        assert out["key"] == scenario_key(
            ScenarioSpec(workload="synth", overrides=(("seed", 11),),
                         accuracy=True, accuracy_problems=4)
        )
        plain = client.compile_scenario(
            {"workload": "synth", "overrides": {"seed": 11}}
        )
        assert plain["key"] != out["key"]


def test_client_close_closes_every_connection_it_opened(tmp_path):
    """``close()`` reaches each thread's keep-alive connection, and a
    request after it opens exactly one new connection."""
    with running_server(tmp_path / "cache") as server, \
            _client(server) as client:
        first = client.stats()["connections"]
        assert client.stats()["connections"] == first     # kept alive
        client.close()
        assert client.stats()["connections"] == first + 1
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _i: client.health(), range(4)))
        opened = list(client._conns)
        assert len(opened) >= 2 and all(c.sock is not None for c in opened)
        client.close()
        assert all(c.sock is None for c in opened)
