#!/usr/bin/env python3
"""Serve-path latency benchmark: cold CLI vs the warm-process service.

Prices the same scenario four ways and times each request end to end:

* **cold CLI, cache miss** — ``python -m repro sweep`` in a fresh
  subprocess with an empty cache: interpreter + import + pricing.
* **cold CLI, cache hit** — the same subprocess invocation again; the
  artifact store answers, but the process cold-start is paid in full.
* **warm server, cache miss** — ``POST /compile`` against a running
  :class:`~repro.flow.server.DseServer`: pricing only, imports and
  pool already resident.
* **warm server, cache hit** — the same request again: an HTTP
  round-trip plus one store read.

A fifth leg fires N identical concurrent requests at a scenario nobody
has priced yet and reads the server's single-flight counters back: the
contract is exactly **one** pricing and **N − 1** coalesced waiters.

A sixth leg splits a warm hit: one fresh client makes 200 sequential
hits over synth keys stored before the server started, and the same
keys go through the in-process ``scenario_key`` and
``ArtifactStore.load``. It records the three medians under
``warm_server.hit_split``; the contract is that the 200 hits open
exactly **one** connection (keep-alive).

Results land in ``BENCH_serve.json`` (repo root). The headline number
is ``speedup_warm_hit_vs_cold_cli_hit`` — the ISSUE's acceptance bar is
>= 10x, and in practice the warm path wins by ~2 orders of magnitude
because it skips interpreter start-up and module imports entirely.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --check-only

``--check-only`` (CI's perf-smoke job) runs one small scenario through
both paths and asserts the three deterministic contracts — coalescing
(1 pricing, N−1 coalesced), the >= 10x warm-hit bar, which has two
orders of magnitude of headroom, and one connection for the split's
200 hits — without writing the JSON. The split's medians are printed,
never gated.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from statistics import median

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.flow.artifacts import ArtifactStore  # noqa: E402
from repro.flow.client import ServeClient  # noqa: E402
from repro.flow.server import running_server  # noqa: E402
from repro.flow.sweep import ScenarioSpec, run_sweep, scenario_key  # noqa: E402

BENCH_WORKLOAD = "prae"
COALESCE_N = 8
#: The hit split: sequential warm hits, cycling over this many synth keys.
SPLIT_HITS = 200
SPLIT_KEYS = 20


def _cli_sweep_s(cache_dir: pathlib.Path, workload: str) -> float:
    """One full ``repro sweep`` subprocess, timed wall to wall."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "sweep",
         "--workloads", workload, "--cache-dir", str(cache_dir)],
        check=True, capture_output=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT,
    )
    return time.perf_counter() - t0


def bench_cold_cli(tmp: pathlib.Path, workload: str) -> dict:
    cache = tmp / "cli-cache"
    miss_s = _cli_sweep_s(cache, workload)
    hit_s = _cli_sweep_s(cache, workload)
    return {"miss_s": miss_s, "hit_s": hit_s}


def _split_specs() -> list[ScenarioSpec]:
    return [ScenarioSpec(workload="synth", overrides=(("seed", 1000 + i),))
            for i in range(SPLIT_KEYS)]


def bench_hit_split(url: str, cache: pathlib.Path) -> dict:
    """Sequential warm hits from one fresh client, and their in-process
    key and store-load medians on the same keys."""
    specs = _split_specs()
    observer = ServeClient(url)
    before = observer.stats()["connections"]
    client = ServeClient(url)
    round_trips = []
    for i in range(SPLIT_HITS):
        spec = specs[i % SPLIT_KEYS]
        doc = {"workload": spec.workload, "overrides": dict(spec.overrides)}
        t0 = time.perf_counter()
        reply = client.compile_scenario(doc)
        round_trips.append(time.perf_counter() - t0)
        assert reply["cached"], reply
    connections = observer.stats()["connections"] - before
    store = ArtifactStore(cache)
    keys, loads = [], []
    for i in range(SPLIT_HITS):
        spec = specs[i % SPLIT_KEYS]
        t0 = time.perf_counter()
        key = scenario_key(spec)
        t1 = time.perf_counter()
        assert store.load(key) is not None
        keys.append(t1 - t0)
        loads.append(time.perf_counter() - t1)
    return {
        "hits": SPLIT_HITS,
        "keys": SPLIT_KEYS,
        "connections": connections,
        "round_trip_ms": median(round_trips) * 1e3,
        "scenario_key_ms": median(keys) * 1e3,
        "store_load_ms": median(loads) * 1e3,
    }


def bench_warm_server(tmp: pathlib.Path, workload: str) -> dict:
    """Miss/hit latency, the coalescing contract and the hit split, one
    warm server."""
    cache = tmp / "serve-cache"
    run_sweep(_split_specs(), store=ArtifactStore(cache))
    with running_server(cache) as server:
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        spec_doc = {"workload": workload}

        t0 = time.perf_counter()
        miss = client.compile_scenario(spec_doc)
        miss_s = time.perf_counter() - t0
        assert miss["status"] == "ok" and not miss["cached"]

        t0 = time.perf_counter()
        hit = client.compile_scenario(spec_doc)
        hit_s = time.perf_counter() - t0
        assert hit["status"] == "ok" and hit["cached"]

        before = client.stats()
        fresh_doc = {"workload": "synth", "overrides": {"seed": 97}}
        with ThreadPoolExecutor(max_workers=COALESCE_N) as pool:
            burst = list(pool.map(
                lambda _i: client.compile_scenario(fresh_doc),
                range(COALESCE_N),
            ))
        after = client.stats()
        assert all(r["status"] == "ok" for r in burst)

        return {
            "miss_s": miss_s,
            "hit_s": hit_s,
            "coalescing": {
                "requests": COALESCE_N,
                "pricings": after["pricings"] - before["pricings"],
                "coalesced": after["coalesced"] - before["coalesced"],
                "warm_hits": after["warm_hits"] - before["warm_hits"],
            },
            "hit_split": bench_hit_split(client.base_url, cache),
        }


def run_bench(workload: str) -> tuple[dict, list[str]]:
    """Both legs in one scratch dir; returns (doc, contract failures)."""
    failures: list[str] = []
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-serve-"))
    try:
        cli = bench_cold_cli(tmp, workload)
        serve = bench_warm_server(tmp, workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    speedup_hit = cli["hit_s"] / serve["hit_s"] if serve["hit_s"] else 0.0
    speedup_miss = cli["miss_s"] / serve["miss_s"] if serve["miss_s"] else 0.0
    doc = {
        "bench": "serve",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workload": workload,
        "cold_cli": cli,
        "warm_server": serve,
        "speedup_warm_hit_vs_cold_cli_hit": speedup_hit,
        "speedup_warm_miss_vs_cold_cli_miss": speedup_miss,
    }

    co = serve["coalescing"]
    if co["pricings"] != 1 or co["coalesced"] != COALESCE_N - 1:
        failures.append(
            f"coalescing contract: {COALESCE_N} identical requests did "
            f"{co['pricings']} pricings ({co['coalesced']} coalesced); "
            f"expected 1 pricing, {COALESCE_N - 1} coalesced"
        )
    split = serve["hit_split"]
    if split["connections"] != 1:
        failures.append(
            f"keep-alive contract: {split['hits']} sequential hits from one "
            f"client opened {split['connections']} connections; expected 1"
        )
    if speedup_hit < 10.0:
        failures.append(
            f"warm cache-hit speedup {speedup_hit:.1f}x below the 10x bar "
            f"(cold CLI hit {cli['hit_s']:.3f}s vs warm {serve['hit_s']:.4f}s)"
        )
    return doc, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=BENCH_WORKLOAD,
                        help="scenario workload to price on both paths "
                             f"(default: {BENCH_WORKLOAD})")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_serve.json",
                        help="result JSON path "
                             "(default: repo-root BENCH_serve.json)")
    parser.add_argument("--check-only", action="store_true",
                        help="assert the coalescing + 10x contracts on a "
                             "small scenario and exit; skip the JSON write")
    args = parser.parse_args(argv)

    workload = "synth" if args.check_only else args.workload
    doc, failures = run_bench(workload)

    cli, serve = doc["cold_cli"], doc["warm_server"]
    co = serve["coalescing"]
    print(f"cold CLI   ({workload}): miss {cli['miss_s']*1e3:8.1f} ms, "
          f"hit {cli['hit_s']*1e3:8.1f} ms")
    print(f"warm serve ({workload}): miss {serve['miss_s']*1e3:8.1f} ms, "
          f"hit {serve['hit_s']*1e3:8.1f} ms")
    print(f"speedup: hit {doc['speedup_warm_hit_vs_cold_cli_hit']:.1f}x, "
          f"miss {doc['speedup_warm_miss_vs_cold_cli_miss']:.1f}x")
    print(f"coalescing: {co['requests']} requests -> {co['pricings']} "
          f"pricing, {co['coalesced']} coalesced")
    split = serve["hit_split"]
    print(f"hit split (median of {split['hits']}): round trip "
          f"{split['round_trip_ms']:.3f} ms, scenario_key "
          f"{split['scenario_key_ms']:.3f} ms, store load "
          f"{split['store_load_ms']:.3f} ms; {split['connections']} connection(s)")

    if failures:
        for failure in failures:
            print(f"CONTRACT FAILURE: {failure}", file=sys.stderr)
        return 1
    if args.check_only:
        print("check-only: coalescing, 10x warm-hit and keep-alive "
              "contracts hold")
        return 0

    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
