#!/usr/bin/env python3
"""DSE hot-path benchmark: production Phase I against the scalar oracle.

Times cold- and warm-cache :meth:`repro.dse.engine.DseEngine.explore`
and its Phase I (:meth:`~repro.dse.engine.DseEngine.evaluate`) for the
production engine — exact integer pricing over the workload's distinct
dimensions and the monotone crossing-point split bisection at every
``N`` — and for the test oracle ``tests/dse/phase1_oracle.py``, whose
engine prices every candidate through the scalar reference scan. It
verifies the two produce byte-identical reports, times a small
production scenario sweep and one large graph, and writes the result
set to ``BENCH_dse_hotpath.json`` (repo root).

The headline numbers are per-workload **Phase I** speedups (oracle ÷
production ``evaluate`` wall-clock) and the model-probe reduction: the
bisection does ``O(log N)`` probes per geometry instead of ``N − 1``.
The large-graph row (``scalable_nsai`` at ``symbolic_scale=150``,
~26k VSA nodes of two distinct shapes) records the ``phase1.sweep`` and
``phase2.refine`` stage wall times, printed and not gated: the guard
that pricing cost follows the distinct dimensions, not the node count.

Usage::

    PYTHONPATH=src python benchmarks/bench_dse_hotpath.py
    PYTHONPATH=src python benchmarks/bench_dse_hotpath.py --max-pes 512 --check-only

``--check-only`` runs the equivalence contract and skips the sweep and
the JSON write — CI's perf-smoke job uses it to guard the *results*
contract (production ≡ oracle, bit for bit) without depending on runner
wall-clock. Exit status 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "dse"))

from phase1_oracle import OracleEngine  # noqa: E402

from repro.dse.engine import DseEngine  # noqa: E402
from repro.dse.timing import stage_timings_since, timings_snapshot  # noqa: E402
from repro.flow.sweep import ScenarioGrid, run_sweep  # noqa: E402
from repro.graph import build_dataflow_graph  # noqa: E402
from repro.model.cache import clear_model_caches  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

DEFAULT_WORKLOADS = ("nvsa", "mimonet")
SWEEP_WORKLOADS = ("prae", "mimonet")
ENGINES = {"production": DseEngine, "oracle": OracleEngine}
#: The large-graph row: ~26k VSA nodes, two distinct VSA shapes.
LARGE_GRAPH = {"symbolic_ratio": 0.2, "symbolic_scale": 150}
LARGE_GRAPH_REPEATS = 3


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bench_engine(engine, graph) -> tuple[object, dict]:
    """Cold/warm explore and warm Phase I of one engine; (report, row)."""
    clear_model_caches()
    report, cold_s = _timed(lambda: engine.explore(graph))
    _, warm_s = _timed(lambda: engine.explore(graph))
    (evals, _), phase1_s = _timed(lambda: engine.evaluate(graph))
    return report, {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "phase1_s": phase1_s,
        "model_probes": sum(ev.probes for ev in evals),
        "geometries": len(evals),
    }


def bench_workload(name: str, max_pes: int) -> tuple[dict, dict]:
    """Both engines on one workload; returns (row, reports)."""
    graph = build_dataflow_graph(build_workload(name).build_trace())
    row: dict = {
        "workload": name,
        "max_pes": max_pes,
        "layer_nodes": len(graph.layer_nodes),
        "vsa_nodes": len(graph.vsa_nodes),
        "engines": {},
    }
    reports = {}
    for label, cls in ENGINES.items():
        reports[label], row["engines"][label] = bench_engine(
            cls(max_pes=max_pes), graph
        )
    prod, oracle = row["engines"]["production"], row["engines"]["oracle"]
    row["phase1_speedup_vs_oracle"] = (
        oracle["phase1_s"] / prod["phase1_s"]
        if prod["phase1_s"] > 0 else float("inf")
    )
    row["probe_reduction"] = (
        oracle["model_probes"] / prod["model_probes"]
        if prod["model_probes"] else float("inf")
    )
    return row, reports


def bench_large_graph(max_pes: int) -> dict:
    """Phase I and Phase II stage wall times of production explores of
    ``scalable_nsai`` at :data:`LARGE_GRAPH` (median of a few runs)."""
    graph = build_dataflow_graph(
        build_workload("scalable_nsai", **LARGE_GRAPH).build_trace()
    )
    phase1, phase2 = [], []
    for _ in range(LARGE_GRAPH_REPEATS):
        clear_model_caches()
        snap = timings_snapshot()
        DseEngine(max_pes=max_pes).explore(graph)
        stages = stage_timings_since(snap)
        phase1.append(stages["phase1.sweep"].seconds)
        phase2.append(stages["phase2.refine"].seconds)
    return {
        "workload": "scalable_nsai",
        "config": LARGE_GRAPH,
        "max_pes": max_pes,
        "layer_nodes": len(graph.layer_nodes),
        "vsa_nodes": len(graph.vsa_nodes),
        "repeats": LARGE_GRAPH_REPEATS,
        "phase1_sweep_s": sorted(phase1)[len(phase1) // 2],
        "phase2_refine_s": sorted(phase2)[len(phase2) // 2],
    }


def bench_sweep_grid(max_pes: int) -> dict:
    """A small production scenario grid end to end, with its stage split."""
    grid = ScenarioGrid(workloads=SWEEP_WORKLOADS, max_pes=(max_pes,))
    clear_model_caches()
    result = run_sweep(grid)
    assert result.n_errors == 0, (
        f"sweep errors: {[o.error for o in result.outcomes if not o.ok]}"
    )
    return {
        "workloads": list(SWEEP_WORKLOADS),
        "max_pes": max_pes,
        "elapsed_s": result.elapsed_s,
        "scenarios": result.n_scenarios,
        "stage_timings": {
            name: {"seconds": s.seconds, "items": s.items}
            for name, s in result.stage_timings.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-pes", type=int, default=8192,
                        help="PE budget for the explore benches "
                             "(default: 8192, the paper's deployment scale)")
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workloads to explore")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_dse_hotpath.json",
                        help="result JSON path "
                             "(default: repo-root BENCH_dse_hotpath.json)")
    parser.add_argument("--check-only", action="store_true",
                        help="verify production ≡ oracle and exit; skip "
                             "the sweep grid and the JSON write")
    args = parser.parse_args(argv)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]

    failures: list[str] = []
    rows = []
    for name in workloads:
        row, reports = bench_workload(name, args.max_pes)
        if pickle.dumps(reports["production"]) != pickle.dumps(reports["oracle"]):
            failures.append(f"{name}@{args.max_pes}: DseReport differs "
                            "between production and the scalar oracle")
        rows.append(row)
        p, o = row["engines"]["production"], row["engines"]["oracle"]
        print(f"{name:>10} @ {args.max_pes} PEs: "
              f"phase1 {o['phase1_s']*1e3:8.1f} ms oracle -> "
              f"{p['phase1_s']*1e3:7.1f} ms production "
              f"({row['phase1_speedup_vs_oracle']:6.1f}x, "
              f"probes {o['model_probes']:,} -> {p['model_probes']:,})")

    if failures:
        for failure in failures:
            print(f"EQUIVALENCE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"equivalence: all {len(workloads)} workloads byte-identical "
          "to the scalar oracle")
    if args.check_only:
        return 0

    doc = {
        "bench": "dse_hotpath",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "max_pes": args.max_pes,
        "explore": rows,
        "large_graph": bench_large_graph(args.max_pes),
        "sweep_grid": bench_sweep_grid(args.max_pes),
        "identical_to_oracle": True,
    }
    large = doc["large_graph"]
    print(f"{'large graph':>10} @ {args.max_pes} PEs "
          f"({large['vsa_nodes']:,} VSA nodes): phase1.sweep "
          f"{large['phase1_sweep_s']*1e3:.1f} ms, phase2.refine "
          f"{large['phase2_refine_s']*1e3:.1f} ms (not gated)")
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")

    worst = min(r["phase1_speedup_vs_oracle"] for r in rows)
    print(f"worst-case Phase I speedup over the scalar oracle: {worst:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
