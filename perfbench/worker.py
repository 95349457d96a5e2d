"""The measured process of compile-cold and sweep-claims, plus fixtures.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.worker setup   --workload W --seed N --seconds S --dir D
    python3 -m perfbench.worker fixture --workload W --seed N --seconds S --dir D
    python3 -m perfbench.worker measure --workload W --seed N --seconds S --dir D \
        --trace 0|1 --out RESULT.json [--spans SPANS.jsonl]

``setup`` does a workload's set-up (imports plus its long-lived
objects), prints ``READY`` and exits; ``run.py`` times it from spawn.
``fixture`` builds the pre-warmed store and pre-grown ledger in ``D``.
``measure`` runs the seeded ops and writes their latencies, the output
check and, when traced, the per-layer split to ``RESULT.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
from collections import Counter

from perfbench import plans, reference, tracing

#: Ledger worker id of the timed sweep, and of the earlier sweep whose
#: rows the fixture ledger holds.
SWEEP_WORKER = "perfbench-sweep"
HISTORY_WORKER = "perfbench-earlier-sweep"
LEDGER_NAME = "sweep-ledger.jsonl"


def _failure(msg: str | None, failures: list[str]) -> bool:
    if msg is not None and len(failures) < 5:
        failures.append(msg)
    return msg is None


# -- setup probes ------------------------------------------------------------------


def setup(args) -> None:
    if args.workload == "compile-cold":
        from repro import NSFlow, build_workload  # noqa: F401
        from repro.dse.accuracy import clear_accuracy_cache  # noqa: F401
        from repro.model.cache import clear_model_caches  # noqa: F401
    else:
        from repro.flow.artifacts import ArtifactStore
        from repro.flow.ledger import RunLedger
        from repro.flow.sweep import run_sweep  # noqa: F401

        # The sweep's long-lived objects: its store, ledger and scenarios.
        ArtifactStore(args.dir / "store")
        RunLedger(args.dir / LEDGER_NAME)
        plan = plans.sweep_plan(args.seed, args.seconds)
        [reference.synth_spec(s) for s in plan.seeds]
    print("READY", flush=True)


# -- fixtures ----------------------------------------------------------------------


def fixture(args) -> None:
    from repro.flow.artifacts import ArtifactStore
    from repro.flow.ledger import ClaimRecord, LedgerRecord, RunLedger
    from repro.flow.sweep import run_sweep

    if args.workload == "sweep-claims":
        plan = plans.sweep_plan(args.seed, args.seconds)
        warm = [s for s in plan.seeds if s in plan.warm]
        store_dir = args.dir / "store"
    else:
        plan = plans.serve_plan(args.seed, args.seconds)
        warm = sorted(plan.warm)
        store_dir = args.dir / "cache"
    result = run_sweep([reference.synth_spec(s) for s in warm],
                       store=ArtifactStore(store_dir))
    if result.n_errors:
        raise SystemExit(f"fixture pricing failed: {result.outcomes[0].error}")
    if args.workload != "sweep-claims":
        return
    # The rows a claims-active sweep of other scenarios left behind: a
    # claim, then the ok result that closed it, per scenario.
    synth = reference.load_reference()["synth"]
    ledger = RunLedger(args.dir / LEDGER_NAME)
    start = time.time() - 3600.0
    for i, seed in enumerate(plan.history):
        entry = synth[seed]
        ledger.append(ClaimRecord(
            scenario_id=entry["scenario_id"], key=entry["key"],
            worker=HISTORY_WORKER, ts=start + i * 0.05,
        ))
        ledger.append(LedgerRecord(
            scenario_id=entry["scenario_id"], key=entry["key"], status="ok",
            cached=False, resumed=False, latency_ms=entry["latency_ms"],
            evaluations=entry["evaluations"], elapsed_s=0.05,
            worker=HISTORY_WORKER, artifact_digest=entry["entry_digest"],
        ))


# -- measured ops ------------------------------------------------------------------


def _counters() -> tuple[dict, int]:
    """Cumulative model-cache counters and I/O retries, for window deltas."""
    from repro.faults import retry_count
    from repro.model.cache import cumulative_snapshot

    return cumulative_snapshot(), retry_count()


def _compile_cold(args, rec: tracing.Recorder | None) -> dict:
    from repro import build_workload
    from repro.dse.accuracy import accuracy_cache_stats, clear_accuracy_cache
    from repro.model.cache import clear_model_caches

    plan = plans.compile_plan(args.seed, args.seconds)
    ref = reference.load_reference()["compile"]
    if rec is not None:
        build_workload = rec.wrap("workloads.build", build_workload)
    for op in plan.warmup:
        clear_model_caches()
        clear_accuracy_cache()
        reference.compile_once(op, build_workload)
    if rec is not None:
        rec.window_counters = _counters()
    ops, failures = [], []
    t_start = time.perf_counter()
    for i, op in enumerate(plan.ops):
        clear_model_caches()
        clear_accuracy_cache()
        if rec is not None:
            rec.op = i
        t0 = time.perf_counter()
        try:
            design = reference.compile_once(op, build_workload)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            design, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if design is not None:
            error = reference.check_design(
                ref[op.label], design.config, design.dse, design.schedule.total_cycles
            )
            error = error and f"{op.label}: {error}"
        if rec is not None:
            rec.count("dse.accuracy_executed", accuracy_cache_stats()["executed"])
        ops.append((op.label, (t1 - t0) * 1e3, _failure(error, failures)))
        del design
    return {"ops": ops, "attempted": len(ops),
            "failed": sum(1 for _, _, ok in ops if not ok), "failures": failures,
            "window_s": t1 - t_start, "timed_from_op": 0}


def _sweep_claims(args, rec: tracing.Recorder | None) -> dict:
    from repro.flow.artifacts import ArtifactStore
    from repro.flow.ledger import RunLedger, merge_ledgers
    from repro.flow.sweep import run_sweep

    plan = plans.sweep_plan(args.seed, args.seconds)
    synth = reference.load_reference()["synth"]
    store = ArtifactStore(args.dir / "store")
    ledger = RunLedger(args.dir / LEDGER_NAME)
    specs = [reference.synth_spec(s) for s in plan.seeds]
    marks: list[float] = []

    def progress(_outcome) -> None:
        if rec is not None and len(marks) == plan.warmup - 1:
            rec.window_counters = _counters()   # charged to the last warm-up op
        marks.append(time.perf_counter())
        if rec is not None:
            rec.op = len(marks)

    if rec is not None:
        rec.op = 0
    t_start = time.perf_counter()
    result = run_sweep(specs, store=store, ledger=ledger, worker=SWEEP_WORKER,
                       progress=progress)
    starts = [t_start] + marks[:-1]
    failures: list[str] = []
    priced = Counter(o.key for o in result.outcomes if not o.cached)
    double = set(merge_ledgers([ledger]).double_priced)
    ops = []
    failed = len(specs) - len(result.outcomes)
    if failed:
        failures.append(f"{failed} scenarios never ran")
    for i, (seed, outcome) in enumerate(zip(plan.seeds, result.outcomes)):
        entry = synth[seed]
        error = None
        if not outcome.ok:
            error = outcome.error or f"deferred to {outcome.holder}"
        elif outcome.key != entry["key"]:
            error = f"key {outcome.key} != reference {entry['key']}"
        elif outcome.cached != (seed in plan.warm):
            error = "served from the store" if outcome.cached else "priced a pre-warmed key"
        elif priced[outcome.key] > 1 or outcome.key in double:
            error = "priced twice"
        elif outcome.artifact_digest != entry["entry_digest"]:
            error = (f"store entry digest {outcome.artifact_digest} != "
                     f"reference {entry['entry_digest']}")
        else:
            art = outcome.artifacts
            error = reference.check_design(entry, art.config, art.report, art.total_cycles)
        error = error and f"synth seed {seed}: {error}"
        ok = _failure(error, failures)
        failed += not ok
        if i >= plan.warmup:
            ops.append(("hit" if outcome.cached else "miss",
                        (marks[i] - starts[i]) * 1e3, ok))
    return {"ops": ops, "attempted": len(specs), "failed": failed,
            "failures": failures, "window_s": marks[-1] - marks[plan.warmup - 1],
            "timed_from_op": plan.warmup}


def measure(args) -> None:
    rec = None
    if args.trace:
        rec = tracing.Recorder()
        tracing.install(rec)
    run = _compile_cold if args.workload == "compile-cold" else _sweep_claims
    out = run(args, rec)
    if rec is not None:
        first = out["timed_from_op"]
        metrics, rows = tracing.layer_metrics(
            rec.spans, rec.events,
            keep_span=lambda s: s.op >= first,
            keep_event=lambda t, op: op >= first,
            n_ops=len(out["ops"]),
            op_seconds=sum(ms for _, ms, _ in out["ops"]) / 1e3,
            residual="flow.sweep" if args.workload == "sweep-claims" else None,
        )
        (cache0, retries0), (cache1, retries1) = rec.window_counters, _counters()
        hits = misses = 0
        for name, (h, m) in cache1.items():
            h0, m0 = cache0.get(name, (0, 0))
            hits, misses = hits + h - h0, misses + m - m0
        metrics["model.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["faults.retries"] = float(retries1 - retries0)
        # No server runs in these workloads.
        metrics.update({"flow.server.pricer_wait_ms": 0.0, "flow.server.hit_ratio": 0.0,
                        "flow.server.coalesced": 0.0})
        out["layers"] = {"metrics": metrics, "rows": rows}
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in rec.spans:
                    fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    args.out.write_text(json.dumps(out), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("command", choices=("setup", "fixture", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=("compile-cold", "sweep-claims", "serve-zipf"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dir", type=pathlib.Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--spans", type=pathlib.Path)
    args = parser.parse_args(argv)
    {"setup": setup, "fixture": fixture, "measure": measure}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
