#!/usr/bin/env python3
"""End-to-end benchmark of the NSFlow reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload compile-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --record-reference        # rewrite reference.json

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer split (and the tracing overhead: the same
ops run untraced, traced, then untraced again). The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Every op's output is
checked against ``perfbench/reference.json``. Scratch state lives in a
fresh directory under ``.perfbench/`` and is removed at exit; span
dumps of traced runs are kept in ``.perfbench/traces/``. The workloads,
metrics and the per-layer to end-to-end mapping are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("compile-cold", "sweep-claims", "serve-zipf")
#: Fresh starts whose median is ``setup_s``.
SETUP_STARTS = 5


@dataclass
class Ctx:
    seed: int
    seconds: float
    scratch: pathlib.Path
    env: dict

    def log(self, name: str) -> pathlib.Path:
        return self.scratch / f"{name}.log"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of sorted ``values``."""
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


# -- running a workload ------------------------------------------------------------


def _worker(ctx: Ctx, command: str, workload: str, fixture: pathlib.Path, *extra: str):
    return [
        sys.executable, "-m", "perfbench.worker", command, "--workload", workload,
        "--seed", str(ctx.seed), "--seconds", str(ctx.seconds), "--dir", str(fixture),
        *extra,
    ]


def build_fixture(ctx: Ctx, workload: str, name: str = "fixture") -> pathlib.Path:
    """The workload's pre-warmed store / pre-grown ledger, built in a child."""
    from perfbench import procs

    fixture = ctx.scratch / name
    fixture.mkdir()
    if workload != "compile-cold":
        procs.run(_worker(ctx, "fixture", workload, fixture), ctx.env,
                  ctx.log("fixture"), f"{workload} fixture build")
    return fixture


def setup_times(ctx: Ctx, workload: str, fixture: pathlib.Path) -> list[float]:
    """Spawn-to-first-op times of ``SETUP_STARTS`` fresh processes."""
    from perfbench import procs, serve

    times = []
    log = ctx.log("setup")
    for i in range(SETUP_STARTS):
        if workload == "serve-zipf":
            cmd = serve.server_command(ctx.scratch / f"setup-cache-{i}", None)
            seconds, proc, url = serve.start(cmd, ctx.env, log)
            serve.stop(proc, url, log)
        else:
            seconds, proc, _ = procs.ready_seconds(
                _worker(ctx, "setup", workload, fixture), ctx.env, log, "READY")
            procs.reap(proc, 30.0, "setup probe", log)
            proc.stdout.close()
        times.append(seconds)
    return times


def measure(ctx: Ctx, workload: str, fixture: pathlib.Path, traced: bool) -> dict:
    """One timed run of the workload's seeded ops (in a child process)."""
    from perfbench import procs, serve

    traces = ROOT / ".perfbench" / "traces"
    if workload == "serve-zipf":
        result = serve.measure(ctx, fixture / "cache", traced)
        if traced:
            traces.mkdir(exist_ok=True)
            shutil.copy(ctx.scratch / "server-spans.json", traces / "serve-zipf-server.json")
        return result
    out = ctx.scratch / f"measure-{int(traced)}.json"
    extra = ["--trace", str(int(traced)), "--out", str(out)]
    if traced:
        traces.mkdir(exist_ok=True)
        extra += ["--spans", str(traces / f"{workload}.jsonl")]
    usage = procs.run(_worker(ctx, "measure", workload, fixture, *extra), ctx.env,
                      ctx.log("measure"), f"{workload} worker")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["peak_rss_kb"] = usage.ru_maxrss
    return result


# -- metrics -------------------------------------------------------------------------


def end_to_end(workload: str, result: dict, setup: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Percentiles never straddle op classes whose latencies differ 10x or
    more: compile-cold's 12 classes span 25 ms to ~3 s, so there each
    pNN is taken within every class and the 12 values are combined by
    geometric mean; on sweep-claims and serve-zipf the fixed hit/miss
    mix puts p50 inside the hits and the tail inside the misses, so pNN
    is taken over all ops.
    """
    by_class: dict[str, list[float]] = defaultdict(list)
    for label, ms, ok in result["ops"]:
        if ok:
            by_class[label].append(ms)
    if not by_class:
        raise RuntimeError("no op completed correctly")
    classes = [sorted(v) for v in by_class.values()]
    pooled = sorted(ms for v in classes for ms in v)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(result["ops"]) / result["window_s"],
        "op_ms.gmean": statistics.geometric_mean(statistics.median(v) for v in classes),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    for q in (50, 95, 99):
        metrics[f"op_ms.p{q}"] = (
            statistics.geometric_mean(percentile(v, q) for v in classes)
            if workload == "compile-cold" else percentile(pooled, q)
        )
    return metrics


def describe(workload: str, result: dict, setup: list[float]) -> dict[str, str]:
    """How each end-to-end value was formed (samples behind it)."""
    counts = defaultdict(int)
    for label, _, ok in result["ops"]:
        counts[label] += ok
    n = len(result["ops"])
    split = ", ".join(f"{counts[c]} {c}" for c in sorted(counts)) \
        if workload != "compile-cold" else f"{len(counts)} classes x {n // max(1, len(counts))}"
    pct = ("per class, geometric mean over classes" if workload == "compile-cold"
           else f"over {n} ops ({split})")
    return {
        "setup_s": f"median of {len(setup)} fresh starts",
        "ops_per_s": f"{n} ops / {result['window_s']:.2f} s window",
        "op_ms.gmean": f"geometric mean of class medians ({split})",
        "op_ms.p50": pct, "op_ms.p95": pct, "op_ms.p99": pct,
        "peak_rss_mb": "peak RSS of the " + (
            "server process" if workload == "serve-zipf" else "measured process"),
    }


def run_workload(ctx: Ctx, workload: str, trace: bool, spec: dict) -> dict:
    """Run one workload; returns its report (metrics, units, table lines)."""
    from perfbench import procs, tracing

    fixture = build_fixture(ctx, workload)
    lines = []
    if not trace:
        setup = setup_times(ctx, workload, fixture)
        result = measure(ctx, workload, fixture, traced=False)
        values = end_to_end(workload, result, setup)
        notes = describe(workload, result, setup)
        lines.append(f"{workload}: seed {ctx.seed}, {ctx.seconds:g} s, "
                     f"{result['failed']} of {result['attempted']} ops failed")
        for m in spec["end_to_end"]:
            lines.append(f"  {m['name']:<13} {values[m['name']]:12.4f} {m['unit']:<5} "
                         f"{notes[m['name']]}")
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    else:
        # Untraced runs before and after the traced one, so a drift in
        # host speed cancels out of the overhead; each run gets a fresh
        # copy of the fixture because a sweep changes its store and ledger.
        fixtures = [fixture] * 3
        if workload != "compile-cold":
            fixtures[1:] = [ctx.scratch / "fixture-traced", ctx.scratch / "fixture-after"]
            for copy in fixtures[1:]:
                shutil.copytree(fixture, copy)
        imports = procs.import_split(ctx.env)
        before = measure(ctx, workload, fixtures[0], traced=False)
        result = measure(ctx, workload, fixtures[1], traced=True)
        after = measure(ctx, workload, fixtures[2], traced=False)
        layers = result["layers"]
        ops_plain = statistics.fmean(len(r["ops"]) / r["window_s"] for r in (before, after))
        ops_traced = len(result["ops"]) / result["window_s"]
        values = {**layers["metrics"], **imports,
                  "trace.overhead_pct": 100.0 * (ops_plain / ops_traced - 1.0)}
        op_ms = statistics.fmean(ms for _, ms, _ in result["ops"])
        lines.append(f"{workload}: seed {ctx.seed}, {ctx.seconds:g} s traced, "
                     f"{result['failed']} of {result['attempted']} ops failed")
        lines.append(tracing.format_layer_table(
            f"Per-layer self time over {len(result['ops'])} timed ops",
            [tuple(r) for r in layers["rows"]], op_ms))
        for m in spec["per_layer"]:
            if m["unit"] != "ms/op":          # those are rows of the table
                lines.append(f"  {m['name']:<28} {values[m['name']]:14.4f} {m['unit']}")
        lines.append(f"  tracing overhead: {ops_plain:.3f} op/s untraced (mean of the runs "
                     f"before and after) vs {ops_traced:.3f} op/s traced "
                     f"({values['trace.overhead_pct']:+.1f} %)")
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    for failure in result["failures"]:
        lines.append(f"  FAILED: {failure}")
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured work, in seconds on the reference host "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-price every drawable op into reference.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no NSFlow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import procs

    procs.pin_to_one_cpu()
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        env = procs.child_env(scratch)
        tempfile.tempdir = env["TMPDIR"]
        if args.record_reference:
            from perfbench.reference import REFERENCE_PATH, record_reference

            record_reference(scratch)
            print(f"wrote {REFERENCE_PATH}")
            return 0
        reports = {}
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            ctx = Ctx(args.seed, args.seconds or spec["run_seconds"], scratch / name, env)
            ctx.scratch.mkdir()
            reports[name] = run_workload(ctx, name, bool(args.trace), spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for report in reports.values():
        print("\n".join(report["lines"]))
    prefix = len(reports) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            (f"{name}/{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in reports.items() for metric, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
