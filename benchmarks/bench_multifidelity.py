"""Multi-fidelity Phase I benchmark: pruned pricing vs the exhaustive oracle.

For each bench workload this times three Phase I regimes through
:meth:`repro.dse.engine.DseEngine.explore`:

* the exhaustive oracle under the ``schedule`` backend
  (``tests/dse/phase1_oracle.py``) — every candidate pays the
  memory-aware timeline's ``O(N)`` dense partition scan;
* production under the ``schedule`` backend — one analytic
  screen, then full pricing only for candidates whose lower bound is not
  already Pareto-dominated (see :mod:`repro.dse.multifidelity`);
* production under the ``analytic`` backend — the screen alone, the
  cheap reference the pruned sweep is measured against.

It verifies the production schedule report is **byte-identical** to the
oracle's, asserts the pruning contract (≥ 50 % of candidates pruned;
total probe cost of the pruned schedule sweep within ~2× of a pure
analytic sweep), and writes the result set to
``BENCH_multifidelity.json`` (repo root).

Usage::

    PYTHONPATH=src python benchmarks/bench_multifidelity.py
    PYTHONPATH=src python benchmarks/bench_multifidelity.py --check-only

``--check-only`` runs the identity + pruning contract and skips the JSON
write — CI's mf-perf-smoke job uses it to guard the results contract
without depending on runner wall-clock. Exit status 1 on any identity or
contract failure.
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
from repro.dse.timing import clear_stage_timings, stage_timings  # noqa: E402
from repro.graph import build_dataflow_graph  # noqa: E402
from repro.model.cache import clear_model_caches  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

DEFAULT_WORKLOADS = ("prae", "nvsa", "mimonet")

#: The pruning contract CI asserts on every bench scenario.
MIN_PRUNED_FRACTION = 0.50
MAX_PROBE_RATIO_VS_ANALYTIC = 2.0


def _explore_once(engine, graph):
    """One cold exploration; returns (report, seconds, stage stats)."""
    clear_model_caches()
    clear_stage_timings()
    t0 = time.perf_counter()
    report = engine.explore(graph)
    elapsed = time.perf_counter() - t0
    stages = {
        name: {"seconds": s.seconds, "items": s.items}
        for name, s in stage_timings().items()
    }
    return report, elapsed, stages


def bench_workload(name: str, max_pes: int) -> tuple[dict, list]:
    """One workload through all three regimes; returns (row, failures)."""
    graph = build_dataflow_graph(build_workload(name).build_trace())
    failures: list[str] = []
    context = f"{name}@{max_pes}"

    exh, exh_s, _ = _explore_once(
        OracleEngine(max_pes=max_pes, backend="schedule"), graph
    )
    mf, mf_s, mf_st = _explore_once(
        DseEngine(max_pes=max_pes, backend="schedule"), graph
    )
    ana, ana_s, ana_st = _explore_once(
        DseEngine(max_pes=max_pes, backend="analytic"), graph
    )

    if pickle.dumps(exh) != pickle.dumps(mf):
        failures.append(f"{context}: production DseReport differs from the "
                        "exhaustive oracle under the schedule backend")
    screened = mf_st["phase1.mf_screened"]["items"]
    pruned = mf_st["phase1.mf_pruned"]["items"]
    pruned_fraction = pruned / screened if screened else 0.0
    if pruned_fraction < MIN_PRUNED_FRACTION:
        failures.append(
            f"{context}: pruned only {pruned}/{screened} candidates "
            f"({pruned_fraction:.0%} < {MIN_PRUNED_FRACTION:.0%})"
        )

    # Probe cost of the pruned schedule sweep (analytic screen + the
    # surviving candidates' full pricing) vs a pure analytic sweep.
    mf_probes = mf_st["phase1.model_probes"]["items"]
    ana_probes = ana_st["phase1.model_probes"]["items"]
    probe_ratio = mf_probes / ana_probes if ana_probes else float("inf")
    if probe_ratio > MAX_PROBE_RATIO_VS_ANALYTIC:
        failures.append(
            f"{context}: pruned schedule sweep pays {mf_probes:,} probes "
            f"vs {ana_probes:,} analytic ({probe_ratio:.2f}x > "
            f"{MAX_PROBE_RATIO_VS_ANALYTIC}x)"
        )

    row = {
        "workload": name,
        "max_pes": max_pes,
        "exhaustive_schedule": {
            "explore_s": exh_s,
            # The scalar scan prices every logical design point once.
            "model_probes": exh.phase1.candidates_evaluated,
        },
        "multifidelity_schedule": {
            "explore_s": mf_s,
            "phase1_sweep_s": mf_st["phase1.sweep"]["seconds"],
            "model_probes": mf_probes,
            "screened": screened,
            "priced": mf_st["phase1.mf_priced"]["items"],
            "pruned": pruned,
            "pruned_fraction": pruned_fraction,
        },
        "analytic": {
            "explore_s": ana_s,
            "phase1_sweep_s": ana_st["phase1.sweep"]["seconds"],
            "model_probes": ana_probes,
        },
        "probe_ratio_vs_analytic": probe_ratio,
        "speedup_vs_exhaustive_schedule": exh_s / mf_s if mf_s else
        float("inf"),
        "wallclock_ratio_vs_analytic": mf_s / ana_s if ana_s else
        float("inf"),
        "byte_identical": not failures,
    }
    return row, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-pes", type=int, default=8192,
                        help="PE budget for the explores "
                             "(default: 8192, the paper's deployment scale)")
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workloads to bench")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_multifidelity.json",
                        help="result JSON path "
                             "(default: repo-root BENCH_multifidelity.json)")
    parser.add_argument("--check-only", action="store_true",
                        help="verify identity + pruning contract and exit; "
                             "skip the JSON write")
    args = parser.parse_args(argv)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]

    failures: list[str] = []
    rows = []
    for name in workloads:
        row, fails = bench_workload(name, args.max_pes)
        failures.extend(fails)
        rows.append(row)
        mf = row["multifidelity_schedule"]
        print(f"{name:>10} @ {args.max_pes} PEs: "
              f"pruned {mf['pruned']}/{mf['screened']} "
              f"({mf['pruned_fraction']:.0%}), probes "
              f"{row['exhaustive_schedule']['model_probes']:,} -> "
              f"{mf['model_probes']:,} "
              f"({row['probe_ratio_vs_analytic']:.2f}x analytic), "
              f"explore {row['exhaustive_schedule']['explore_s']*1e3:7.1f} "
              f"-> {mf['explore_s']*1e3:6.1f} ms")

    if failures:
        for failure in failures:
            print(f"CONTRACT FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"contract: all {len(workloads)} workloads byte-identical, "
          f">= {MIN_PRUNED_FRACTION:.0%} pruned, probe cost <= "
          f"{MAX_PROBE_RATIO_VS_ANALYTIC}x analytic")
    if args.check_only:
        return 0

    doc = {
        "bench": "multifidelity",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "max_pes": args.max_pes,
        "contract": {
            "min_pruned_fraction": MIN_PRUNED_FRACTION,
            "max_probe_ratio_vs_analytic": MAX_PROBE_RATIO_VS_ANALYTIC,
        },
        "workloads": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")

    worst = max(r["probe_ratio_vs_analytic"] for r in rows)
    print(f"worst-case probe ratio vs analytic sweep: {worst:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
