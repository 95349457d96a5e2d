#!/usr/bin/env python
"""Chaos smoke gate: a multi-worker sweep under a seeded fault schedule.

Runs the fault-tolerance headline guarantee end to end, with no test
framework in the loop (CI's ``chaos-smoke`` job):

1. serial golden — one fault-free in-process sweep over a synth seed
   grid;
2. four concurrent worker *processes* sharing ONE ledger + artifact
   store via the claim protocol, armed with seeded fault schedules
   (``REPRO_FAULTS``): an injected fsync failure (absorbed by the retry
   policy) and an injected compile stall that blows the
   ``--scenario-timeout`` budget (recorded as a retryable error row);
3. a cleanup ``--resume`` pass with a corrupt-read fault armed: one
   cached artifact entry fails the read-time audit, is quarantined to
   ``<store>/quarantine/``, and is recompiled as a *recovered* row;
4. the shared ledger is merged: the canonical ledger and report must be
   **byte-identical** to the serial golden's, with zero double-priced
   scenarios and zero open claims, and every injected fault kind must
   be visible in the shared ``fires.log`` audit trail.

Any violated invariant exits non-zero.

Usage:
    PYTHONPATH=src python tools/chaos_smoke.py [--seeds 0-199]
        [--workers 4] [--workdir DIR] [--check-only]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
)

from repro.faults import FAULTS_ENV, FAULTS_STATE_ENV  # noqa: E402
from repro.flow import (  # noqa: E402
    ArtifactStore,
    RunLedger,
    ScenarioGrid,
    merge_ledgers,
    run_sweep,
)

#: Tiny synth family — milliseconds per scenario.
SYNTH_OVR = (("n_ops", 8), ("vector_dim", 64), ("blocks", 2),
             ("gemm_scale", 16))

#: Per-worker fault schedules. Every kind the chaos contract demands:
#: an fsync failure, a compile stall that blows the scenario timeout
#: (a ``!once`` rule is a global one-shot via the shared state dir),
#: and — in the cleanup pass — a corrupted artifact read. A SIGKILLed
#: sweep process is CI's ``distributed-smoke`` job.
WAVE_FAULTS = {
    2: "ledger.append.fsync:raise@2",
    3: "sweep.compile:delay=2.5@3!once",
    4: "",
}
CLEANUP_FAULTS = "artifacts.load.read:corrupt@2"

#: Fault kinds that must appear in the shared fires.log audit trail.
REQUIRED_FIRES = (
    "ledger.append.fsync:raise",
    "sweep.compile:delay",
    "artifacts.load.read:corrupt",
)


def synth_grid(seeds: str) -> ScenarioGrid:
    return ScenarioGrid(workloads=(f"synth:{seeds}",), max_pes=(256,),
                        overrides=SYNTH_OVR)


def _worker_main(args: argparse.Namespace) -> int:
    """Subprocess entry: one sweep over the shared ledger + store.

    The fault schedule arrives via ``REPRO_FAULTS`` in the environment
    (set by the driver), exactly how a user would arm one; a JSON
    summary of the result counters is dropped next to the cache so the
    driver can assert each fault was really absorbed."""
    result = run_sweep(
        synth_grid(args.seeds),
        store=ArtifactStore(args.cache / "store"),
        ledger=args.cache / "ledger.jsonl",
        worker=args.worker_id or None,
        lease_timeout_s=args.lease,
        scenario_timeout_s=args.scenario_timeout or None,
        resume=args.resume,
    )
    tag = args.worker_id or "cleanup"
    (args.cache / f"summary-{tag}.json").write_text(json.dumps({
        "n_scenarios": result.n_scenarios,
        "n_compiled": result.n_compiled,
        "n_cached": result.n_cached,
        "n_errors": result.n_errors,
        "n_deferred": result.n_deferred,
        "n_timeouts": result.n_timeouts,
        "n_recovered": result.n_recovered,
        "io_retries": result.io_retries,
        "heartbeat_lost": result.heartbeat_lost,
        "fault_fires": result.fault_fires,
        "store_corrupt": result.store_stats.corrupt,
        "store_quarantined": result.store_stats.quarantined,
    }, indent=2, sort_keys=True))
    return 0


def _spawn(workdir: pathlib.Path, args: argparse.Namespace, *,
           worker_id: str = "", faults: str = "",
           scenario_timeout: float = 0.0,
           resume: bool = False) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop(FAULTS_ENV, None)
    if faults:
        env[FAULTS_ENV] = faults
    env[FAULTS_STATE_ENV] = str(workdir / "fault-state")
    cmd = [
        sys.executable, os.path.abspath(__file__), "--role", "worker",
        "--cache", str(workdir / "shared"), "--seeds", args.seeds,
        "--worker-id", worker_id,
        "--scenario-timeout", str(scenario_timeout),
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(
        cmd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def _check(ok: bool, what: str) -> bool:
    print(("PASS" if ok else "FAIL") + f"  {what}")
    return ok


def _summary(workdir: pathlib.Path, tag: str) -> dict:
    path = workdir / "shared" / f"summary-{tag}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _driver_main(args: argparse.Namespace) -> int:
    workdir = args.workdir or pathlib.Path(tempfile.mkdtemp(
        prefix="nsflow-chaos-smoke-"
    ))
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ.pop(FAULTS_ENV, None)   # the golden must stay fault-free
    n = args.workers
    grid_size = len(synth_grid(args.seeds).expand())
    print(f"workdir: {workdir}")
    print(f"grid: synth:{args.seeds} ({grid_size} scenarios), "
          f"{n} workers sharing one ledger under fault schedules:")
    for i in range(1, n + 1):
        spec = WAVE_FAULTS.get(i, "")
        print(f"  worker {i}: {spec or '(none)'}")
    print(f"  cleanup: {CLEANUP_FAULTS} (resume pass)")

    # 1. serial golden.
    t0 = time.monotonic()
    golden_ledger = RunLedger(workdir / "golden" / "ledger.jsonl")
    golden_sweep = run_sweep(
        synth_grid(args.seeds),
        store=ArtifactStore(workdir / "golden" / "store"),
        ledger=golden_ledger,
    )
    golden = merge_ledgers([golden_ledger])
    print(f"golden: {golden_sweep.n_compiled} compiled "
          f"in {time.monotonic() - t0:.1f} s")

    # 2. the chaos wave: n workers, one shared ledger, faults armed.
    t0 = time.monotonic()
    procs = [
        _spawn(
            workdir, args, worker_id=f"chaos-w{i}",
            faults=WAVE_FAULTS.get(i, ""),
            scenario_timeout=(
                0.8 if "sweep.compile" in WAVE_FAULTS.get(i, "") else 0.0
            ),
        )
        for i in range(1, n + 1)
    ]
    errs = [p.communicate(timeout=900)[1] for p in procs]
    ok = True
    for i, (p, err) in enumerate(zip(procs, errs), start=1):
        ok &= _check(p.returncode == 0,
                     f"worker {i} exited cleanly"
                     + (f": {err.strip()}" if p.returncode else ""))
    print(f"chaos wave done in {time.monotonic() - t0:.1f} s")

    # 3. cleanup resume pass with the corrupt-read fault armed: retries
    # any timeout-errored rows and recovers the quarantined entry.
    cleanup = _spawn(workdir, args, faults=CLEANUP_FAULTS, resume=True)
    _, err = cleanup.communicate(timeout=900)
    ok &= _check(cleanup.returncode == 0,
                 "cleanup resume pass exited cleanly"
                 + (f": {err.strip()}" if cleanup.returncode else ""))

    # 4. every injected fault kind really fired (and was survived).
    summaries = {i: _summary(workdir, f"chaos-w{i}")
                 for i in range(1, n + 1)}
    summaries["cleanup"] = _summary(workdir, "cleanup")
    fires_log = workdir / "fault-state" / "fires.log"
    fired = set()
    if fires_log.is_file():
        for line in fires_log.read_text().splitlines():
            point, action, _pid = line.rsplit(":", 2)
            fired.add(f"{point}:{action}")
    for kind in REQUIRED_FIRES:
        ok &= _check(kind in fired, f"fault fired: {kind}")
    ok &= _check(sum(s.get("n_errors", 0) for s in summaries.values()) >= 1
                 and sum(s.get("n_timeouts", 0)
                         for s in summaries.values()) >= 1,
                 "scenario timeout recorded as a retryable error row")
    ok &= _check(any(s.get("io_retries", 0) >= 1
                     for s in summaries.values()),
                 "transient fsync failure absorbed by the retry policy")
    ok &= _check(summaries["cleanup"].get("n_recovered", 0) >= 1
                 and summaries["cleanup"].get("store_quarantined", 0) >= 1,
                 "corrupt artifact entry quarantined and recovered")
    store = ArtifactStore(workdir / "shared" / "store")
    ok &= _check(len(store.quarantined_keys()) >= 1,
                 "quarantine directory holds the corrupt entry's evidence")

    # 5. merge: exactly-once accounting must have survived the faults.
    merged = merge_ledgers([RunLedger(workdir / "shared" / "ledger.jsonl")])
    ok &= _check(merged.double_priced == [],
                 f"zero double-priced scenarios "
                 f"(got {len(merged.double_priced)})")
    ok &= _check(merged.open_claims == [], "zero open claims after merge")
    ok &= _check(
        len(merged.rows) == grid_size
        and all(r.status == "ok" for r in merged.rows),
        f"all {grid_size} scenarios priced ok",
    )
    ok &= _check(
        merged.canonical_ledger_text() == golden.canonical_ledger_text(),
        "merged canonical ledger byte-identical to the fault-free serial",
    )
    ok &= _check(merged.report_text() == golden.report_text(),
                 "merged report byte-identical to the fault-free serial")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("driver", "worker"),
                        default="driver", help=argparse.SUPPRESS)
    parser.add_argument("--seeds", default="0-199",
                        help="synth seed range (default: 0-199)")
    parser.add_argument("--workers", type=int, default=4,
                        help="concurrent worker processes sharing the ledger")
    parser.add_argument("--workdir", type=pathlib.Path, default=None,
                        help="working directory (default: a fresh tempdir)")
    parser.add_argument("--check-only", action="store_true",
                        help="CI mode: same invariants on a smaller grid "
                             "(synth:0-79)")
    # worker-role plumbing
    parser.add_argument("--cache", type=pathlib.Path, help=argparse.SUPPRESS)
    parser.add_argument("--worker-id", dest="worker_id", default="",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scenario-timeout", dest="scenario_timeout",
                        type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--resume", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--lease", type=float, default=300.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.check_only and args.seeds == "0-199":
        args.seeds = "0-79"
    if args.role == "worker":
        return _worker_main(args)
    return _driver_main(args)


if __name__ == "__main__":
    sys.exit(main())
