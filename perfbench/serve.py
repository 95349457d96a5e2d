"""serve-zipf: a ``repro serve`` subprocess under two closed-loop callers."""

from __future__ import annotations

import json
import pathlib
import sys
import threading
import time

from perfbench import plans, procs, reference, tracing

__all__ = ["CALLERS", "server_command", "start", "stop", "drive", "check_reply",
           "check_store", "server_layers", "measure"]

#: Concurrent callers, each keeping one ``/compile`` in flight.
CALLERS = 2


def server_command(cache: pathlib.Path, spans: pathlib.Path | None) -> list[str]:
    args = ["serve", "--port", "0", "--cache-dir", str(cache), "--jobs", "1"]
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, "-m", "perfbench.serve_launcher", str(spans), *args]


def start(cmd: list[str], env: dict, log: pathlib.Path):
    """Spawn the server; returns ``(seconds to ready line, proc, base URL)``."""
    seconds, proc, line = procs.ready_seconds(cmd, env, log, "Serving on ")
    return seconds, proc, line.split()[2]


def stop(proc, url: str, log: pathlib.Path):
    """Drain the server and reap it; returns its rusage."""
    from repro.errors import ServeError
    from repro.flow.client import ServeClient

    try:
        ServeClient(url, timeout_s=30.0).drain()
    except ServeError:
        proc.terminate()
    try:
        return procs.reap(proc, 60.0, "repro serve", log)
    finally:
        proc.stdout.close()


def drive(url: str, seeds: list[int]) -> list[tuple[float, float, dict | None, str | None]]:
    """Send one ``/compile`` per seed from ``CALLERS`` closed-loop callers.

    Returns ``(start, end, reply, error)`` per request, in ``seeds`` order.
    """
    from repro.errors import ServeError
    from repro.flow.client import ServeClient

    client = ServeClient(url, timeout_s=60.0)
    results: list = [None] * len(seeds)
    cursor = iter(range(len(seeds)))
    lock = threading.Lock()

    def caller() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            doc = {"workload": "synth", "overrides": {"seed": seeds[i]}}
            t0 = time.perf_counter()
            try:
                reply, error = client.compile_scenario(doc), None
            except ServeError as exc:
                reply, error = None, str(exc)
            results[i] = (t0, time.perf_counter(), reply, error)

    threads = [threading.Thread(target=caller) for _ in range(CALLERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def check_reply(seed: int, reply: dict | None, error: str | None, entry: dict,
                warm: bool) -> str | None:
    if error is not None:
        return error
    for field in ("key", "total_cycles", "latency_ms"):
        if reply.get(field) != entry[field]:
            return f"{field} {reply.get(field)!r} != reference {entry[field]!r}"
    if warm and not reply["cached"]:
        return "priced a pre-warmed key"
    return None


def check_store(cache: pathlib.Path, seeds, synth: list[dict]) -> list[str]:
    """The server's stored entries for ``seeds`` against the reference."""
    from repro.flow.artifacts import ArtifactStore

    store = ArtifactStore(cache)
    problems = []
    for seed in sorted(seeds):
        entry = synth[seed]
        art = store.load(entry["key"])
        if art is None:
            problems.append(f"synth seed {seed}: priced but not stored")
            continue
        error = reference.check_design(entry, art.config, art.report, art.total_cycles)
        if error is None and store.entry_digest(entry["key"]) != entry["entry_digest"]:
            error = "store entry digest differs from the reference"
        if error is not None:
            problems.append(f"synth seed {seed}: {error}")
    return problems


def server_layers(spans_path: pathlib.Path, window: tuple[float, float],
                  latencies_s: list[float], stats0: dict, stats1: dict):
    """Per-layer metrics of the server from its spans and two ``/stats``.

    ``flow.server`` self time is the callers' round trips minus the
    server-side root spans; the pricer wait is, per missed key, the gap
    between the reader thread's failed store load and the pricer
    thread's load of the same key.
    """
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [tracing.Span(**s) for s in doc["spans"]]
    lo, hi = window

    def in_window(s) -> bool:
        return lo <= s.t0 <= hi

    metrics, rows = tracing.layer_metrics(
        spans, [tuple(e) for e in doc["events"]], in_window,
        lambda t, op: lo <= t <= hi, len(latencies_s), sum(latencies_s), "flow.server",
    )
    missed: dict[str, float] = {}
    waits = []
    for s in sorted((s for s in spans if s.name == "flow.artifacts.load" and in_window(s)),
                    key=lambda s: s.t0):
        key, hit = s.tag
        if s.thread.startswith("serve-reader") and not hit:
            missed[key] = s.t1
        elif s.thread.startswith("serve-pricer") and key in missed:
            waits.append(s.t0 - missed.pop(key))
    delta = {k: stats1[k] - stats0[k] for k in ("compiles", "warm_hits", "coalesced")}
    hits = misses = 0
    for name, counts in stats1["model_cache"].items():
        before = stats0["model_cache"].get(name, {"hits": 0, "misses": 0})
        hits += counts["hits"] - before["hits"]
        misses += counts["misses"] - before["misses"]
    metrics.update({
        "flow.server.pricer_wait_ms": 1e3 * sum(waits) / len(waits) if waits else 0.0,
        "flow.server.hit_ratio": delta["warm_hits"] / delta["compiles"] if delta["compiles"] else 0.0,
        "flow.server.coalesced": float(delta["coalesced"]),
        "model.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "faults.retries": float(doc["retries"]),     # over the server's life
    })
    return metrics, rows


def measure(ctx, cache: pathlib.Path, traced: bool) -> dict:
    """One server lifetime over the plan; the raw result ``run.py`` reports."""
    from repro.flow.client import ServeClient

    plan = plans.serve_plan(ctx.seed, ctx.seconds)
    synth = reference.load_reference()["synth"]
    spans = ctx.scratch / "server-spans.json" if traced else None
    log = ctx.scratch / "serve.log"
    _, proc, url = start(server_command(cache, spans), ctx.env, log)
    try:
        client = ServeClient(url)
        warmup = drive(url, list(plan.requests[:plan.warmup]))
        stats0 = client.stats()
        timed = drive(url, list(plan.timed))
        stats1 = client.stats()
    finally:
        usage = stop(proc, url, log)
    failures: list[str] = []
    failed = 0
    ops = []
    for i, (seed, (t0, t1, reply, error)) in enumerate(zip(plan.requests, warmup + timed)):
        error = check_reply(seed, reply, error, synth[seed], seed in plan.warm)
        if error is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"request {i} (synth seed {seed}): {error}")
        if i >= plan.warmup:
            ops.append(("hit" if reply and reply["cached"] else "miss",
                        (t1 - t0) * 1e3, error is None))
    cold = {s for s in plan.requests if s not in plan.warm}
    if stats1["pricings"] != len(cold):
        failed += 1
        failures.append(f"{stats1['pricings']} pricings for {len(cold)} cold keys")
    problems = check_store(cache, cold, synth)
    failed += len(problems)
    failures.extend(problems[:5])
    window = (timed[0][0], max(t1 for _, t1, _, _ in timed))
    out = {"ops": ops, "attempted": len(plan.requests), "failed": failed,
           "failures": failures[:5], "window_s": window[1] - window[0],
           "peak_rss_kb": usage.ru_maxrss}
    if traced:
        metrics, rows = server_layers(spans, window, [(t1 - t0) for t0, t1, _, _ in timed],
                                      stats0, stats1)
        out["layers"] = {"metrics": metrics, "rows": rows}
    return out
