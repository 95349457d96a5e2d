"""Command-line interface: the ``nsflow`` compiler driver.

Mirrors the paper's user story — "NSAI workload (.py) in, deployment
artifacts out" — as a CLI:

    python -m repro compile nvsa --precision MP --out build/nvsa
    python -m repro compile nvsa --jobs 4 --pareto-k 8
    python -m repro workloads
    python -m repro characterize nvsa
    python -m repro sweep --devices u250,zcu104 --precisions MP,INT8

``compile`` writes the four frontend/backend artifacts of Fig. 2 into the
output directory: ``trace.json``, ``design_config.json``,
``nsflow_params.vh`` and ``host.cpp``, and prints the deployment summary.

``sweep`` compiles a whole scenario grid (workloads × devices ×
precisions × loop counts) through one shared jobs budget, caching every
compiled scenario in a content-addressed artifact store (``--cache-dir``,
default ``.nsflow-cache``) so re-runs and overlapping grids only compile
the delta. It prints one row per scenario, a cross-scenario comparison
table, and a summary with the cache counters. See docs/CLI.md for the
full flag reference.

DSE flags
---------
``--jobs N``
    Worker processes for the Phase I analytic screen. ``1`` (the
    default) screens candidates serially in-process; ``N > 1`` fans the
    chunked candidate stream out over a supervised process pool (a
    killed worker is replaced, not fatal). Candidates a non-analytic
    backend prices after the screen are priced serially. The chosen
    design is **bit-identical for every value of N** — the merge
    preserves the serial sweep's deterministic tie-breaking.
``--pareto-k K``
    How many Pareto-frontier rows to keep and print (default 8; ``0``
    keeps the full frontier).
``--backend {analytic,schedule}``
    The evaluation cost model every design point is priced with.
    ``analytic`` (default) is the paper's Eqs. 1-5 — compute cycles
    only, byte-identical to the historical engine. ``schedule`` is the
    memory-aware event-driven timeline over the ``arch/`` models (DRAM
    bandwidth, double-buffered transfer overlap) — **result-affecting**,
    so it is part of the sweep cache key and is recorded in every
    report. ``compile`` prints the backend's latency breakdown
    (compute / fill-drain / DRAM / overlap) after the summary. Phase I
    screens every candidate with the analytic model; ``schedule``
    prices only candidates whose analytic lower bound is not already
    Pareto-dominated (see :mod:`repro.dse.multifidelity`), with
    results byte-identical to pricing them all.
``--timings``
    Print the DSE stage-timing table (Phase I sweep seconds, model
    probes paid, candidates screened/priced/pruned, Phase II
    refinement, Pareto filtering) after the run.
``--accuracy``
    Evaluate *functional accuracy* as a fourth frontier objective: the
    workload's VSA/neural pipeline is executed over ``--accuracy-
    problems`` seeded problems (``--accuracy-seed``) under the design's
    quantization, and the resulting accuracy joins latency × area ×
    energy in the Pareto dominance test and report. **Result-affecting**
    (the request, never the value, is part of the sweep cache key);
    seeded and memoized, so repeated compilations and warm sweeps
    re-execute nothing. Workloads without a functional pipeline (the
    synthetic generator) report no accuracy and rank on three axes.

Frontier report
---------------
After the deployment summary, ``compile`` prints the Pareto frontier of
the explored space: every non-dominated design point under the
(latency, area, energy) objectives, one row per point in ascending
latency order —

    # | (H, W, N) | Mode | Nl:Nv | Cycles | Latency (ms) | Area (PE-eq) | Energy (area*cyc)

``Cycles``/``Latency`` are the point's best schedule (its own
sequential-vs-parallel choice), ``Nl:Nv`` is the static partition for
parallel-mode rows (``-`` for sequential rows), ``Area`` is the
PE-equivalent proxy ``H·W·N + N·(H+W) + 8N`` (PEs plus per-sub-array
periphery/control), and ``Energy`` is the area·cycle product. The
table's first row is the latency-optimal design the compiler
instantiates when it also wins the refined Phase II comparison (see
DESIGN.md "Pareto frontier semantics").
"""

from __future__ import annotations

import argparse
import os
import pathlib
import socket
import sys

from ..arch.resources import FPGA_DEVICES
from ..baselines import baseline_devices
from ..characterize import characterize_workload
from ..errors import NSFlowError
from ..faults import RetryPolicy, arm_faults
from ..quant import MIXED_PRECISION_PRESETS
from ..trace.serialize import trace_to_json
from ..utils import MB
from ..workloads import available_workloads, build_workload
from .artifacts import ArtifactStore, fold_stores
from .client import DEFAULT_POLL_S, ServeClient
from .ledger import RunLedger, merge_ledgers
from .nsflow import NSFlow
from .report import (
    format_table,
    job_results_table,
    job_summary,
    latency_breakdown_table,
    merge_summary_table,
    pareto_frontier_table,
    shard_progress_table,
    stage_timings_table,
    sweep_comparison_table,
    sweep_results_table,
    sweep_summary,
)
from .sweep import DEFAULT_LEASE_TIMEOUT_S, ScenarioGrid, run_sweep
from ..dse.accuracy import DEFAULT_ACCURACY_PROBLEMS, DEFAULT_ACCURACY_SEED
from ..dse.config import design_config_to_json
from ..dse.engine import EVALUATION_BACKENDS
from ..dse.timing import stage_timings_since, timings_snapshot

__all__ = ["main", "build_parser"]

_DEVICES = FPGA_DEVICES


def _add_accuracy_flags(p: argparse.ArgumentParser) -> None:
    """The functional-accuracy knobs shared by compile/sweep/submit."""
    p.add_argument("--accuracy", action="store_true",
                   help="evaluate functional accuracy (seeded workload "
                        "execution under the deployed quantization) as a "
                        "fourth Pareto objective; result-affecting, part "
                        "of the sweep cache key")
    p.add_argument("--accuracy-problems", type=int,
                   default=DEFAULT_ACCURACY_PROBLEMS,
                   dest="accuracy_problems", metavar="N",
                   help="problems per accuracy evaluation "
                        f"(default: {DEFAULT_ACCURACY_PROBLEMS})")
    p.add_argument("--accuracy-seed", type=int,
                   default=DEFAULT_ACCURACY_SEED, dest="accuracy_seed",
                   help="seed of the generated accuracy problem set "
                        f"(default: {DEFAULT_ACCURACY_SEED})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsflow",
        description="NSFlow: compile NSAI workloads onto FPGA accelerators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compile", help="run the full toolchain on a workload")
    comp.add_argument("workload", choices=available_workloads())
    comp.add_argument("--device", choices=sorted(_DEVICES), default="u250")
    comp.add_argument(
        "--precision", choices=list(MIXED_PRECISION_PRESETS), default="MP"
    )
    comp.add_argument("--iter-max", type=int, default=8,
                      help="Phase II iteration cap (Algorithm 1 Iter_max)")
    comp.add_argument("--loops", type=int, default=1,
                      help="inference loops to fuse (inter-loop parallelism)")
    comp.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the Phase I analytic "
                           "screen (1 = serial; results identical for "
                           "any N)")
    comp.add_argument("--pareto-k", type=int, default=8, dest="pareto_k",
                      help="Pareto-frontier rows to keep/print "
                           "(0 = full frontier)")
    comp.add_argument("--backend", choices=EVALUATION_BACKENDS,
                      default="analytic",
                      help="evaluation cost model: 'analytic' (Eqs. 1-5, "
                           "compute-only) or 'schedule' (memory-aware "
                           "event-driven timeline); result-affecting")
    comp.add_argument("--timings", action="store_true",
                      help="print the DSE stage-timing table after the run")
    _add_accuracy_flags(comp)
    comp.add_argument("--out", type=pathlib.Path, default=None,
                      help="directory for generated artifacts")

    sub.add_parser("workloads", help="list available workloads")

    char = sub.add_parser(
        "characterize", help="profile a workload on the baseline devices"
    )
    char.add_argument("workload", choices=available_workloads())

    swp = sub.add_parser(
        "sweep",
        help="compile a scenario grid (workloads x devices x precisions) "
             "with a persistent compile cache",
    )
    swp.add_argument("--workloads", default=",".join(available_workloads()),
                     help="comma-separated workload names; entries may be "
                          "seed-range axes like 'synth:0-99' (one scenario "
                          "per seed, for workloads with a 'seed' config "
                          "field). Default: every registered workload")
    swp.add_argument("--devices", default="u250",
                     help="comma-separated device names "
                          f"(available: {', '.join(sorted(_DEVICES))})")
    swp.add_argument("--precisions", default="MP",
                     help="comma-separated mixed-precision presets "
                          f"(available: {', '.join(MIXED_PRECISION_PRESETS)})")
    swp.add_argument("--loops", default="1",
                     help="comma-separated inference-loop counts to fuse")
    swp.add_argument("--iter-max", type=int, default=8,
                     help="Phase II iteration cap for every scenario")
    swp.add_argument("--include", action="append", default=[], metavar="PAT",
                     help="keep only scenario ids matching this fnmatch "
                          "pattern (repeatable, e.g. 'nvsa@*')")
    swp.add_argument("--exclude", action="append", default=[], metavar="PAT",
                     help="drop scenario ids matching this fnmatch pattern "
                          "(repeatable, e.g. '*@zcu104/*')")
    swp.add_argument("--jobs", type=int, default=1,
                     help="sweep-wide worker-process budget shared by every "
                          "scenario's DSE (1 = serial)")
    swp.add_argument("--backends", default="analytic",
                     help="comma-separated evaluation backends as a grid "
                          f"axis (available: {', '.join(EVALUATION_BACKENDS)}"
                          "); result-affecting, part of the cache key")
    swp.add_argument("--timings", action="store_true",
                     help="print the full DSE stage-timing table after "
                          "the sweep summary")
    _add_accuracy_flags(swp)
    swp.add_argument("--cache-dir", type=pathlib.Path,
                     default=pathlib.Path(".nsflow-cache"),
                     help="artifact-store directory (default: .nsflow-cache)")
    swp.add_argument("--no-cache", action="store_true",
                     help="compile every scenario fresh; do not read or "
                          "write the artifact store")
    swp.add_argument("--ledger", type=pathlib.Path, default=None,
                     help="run-ledger JSONL path; every scenario outcome is "
                          "appended and fsynced as it finishes (default: "
                          "<cache-dir>/sweep-ledger.jsonl; disabled under "
                          "--no-cache unless given explicitly)")
    swp.add_argument("--resume", action="store_true",
                     help="skip scenarios the ledger records as completed "
                          "and the artifact store still holds; requires the "
                          "cache (incompatible with --no-cache)")
    swp.add_argument("--shard", default=None, metavar="I/N",
                     help="run only slice i of N of the grid (1-based), "
                          "partitioned by a stable scenario-id hash: any "
                          "worker computes the same disjoint, covering, "
                          "order-independent slices. Enables the ledger "
                          "claim protocol")
    swp.add_argument("--worker-id", default=None, dest="worker_id",
                     help="worker id for ledger claim records (default: "
                          "<hostname>-<pid> when --shard is given). Giving "
                          "one without --shard runs the claim protocol over "
                          "the whole grid — several workers can share one "
                          "ledger and dynamically split the work")
    swp.add_argument("--lease-timeout", type=float,
                     default=DEFAULT_LEASE_TIMEOUT_S, dest="lease_timeout",
                     help="seconds a claimed scenario's heartbeat may go "
                          "stale before other workers treat its owner as "
                          "crashed and re-issue the work (default: "
                          f"{DEFAULT_LEASE_TIMEOUT_S:.0f})")
    swp.add_argument("--scenario-timeout", type=float, default=None,
                     dest="scenario_timeout", metavar="SECONDS",
                     help="per-scenario wall-clock budget; a scenario that "
                          "blows it (even hung on a pool worker) is recorded "
                          "as a retryable error row and the worker pool is "
                          "reset (default: unlimited)")
    swp.add_argument("--max-retries", type=int, default=2,
                     dest="max_retries", metavar="N",
                     help="retries for transient ledger/artifact I/O errors, "
                          "with seeded-deterministic exponential backoff "
                          "(0 = fail on the first error; default: 2)")
    swp.add_argument("--faults", default=None, metavar="SPEC",
                     help="arm deterministic fault injection for this run: "
                          "';'-joined rules 'point:action[=arg][@nth]"
                          "[xcount][!once]' with actions raise/delay/"
                          "corrupt/short/kill (equivalent to REPRO_FAULTS; "
                          "see repro.faults). Testing aid — injected "
                          "faults exercise the recovery paths for real")
    swp.add_argument("--server", default=None, metavar="URL",
                     help="submit the grid to a running 'repro serve' "
                          "instance instead of compiling locally "
                          "(equivalent to 'repro submit'; local-execution "
                          "flags like --jobs/--cache-dir are ignored)")

    srv = sub.add_parser(
        "serve",
        help="run the warm-process DSE service: persistent pool + caches, "
             "request coalescing, streamed sweep jobs, graceful drain",
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="interface to bind (default: 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8177,
                     help="TCP port to bind (0 = ephemeral; the resolved "
                          "port is printed on the ready line)")
    srv.add_argument("--cache-dir", type=pathlib.Path,
                     default=pathlib.Path(".nsflow-cache"),
                     help="artifact-store directory shared by every request; "
                          "job ledgers live under <cache-dir>/jobs/ "
                          "(default: .nsflow-cache)")
    srv.add_argument("--jobs", type=int, default=1,
                     help="worker-process budget of the server's one "
                          "persistent DSE pool (1 = serial)")
    srv.add_argument("--max-retries", type=int, default=2,
                     dest="max_retries", metavar="N",
                     help="retries for transient ledger/artifact I/O "
                          "(default: 2)")
    srv.add_argument("--lease-timeout", type=float,
                     default=DEFAULT_LEASE_TIMEOUT_S, dest="lease_timeout",
                     help="claim-lease timeout for server-side sweep jobs "
                          f"(default: {DEFAULT_LEASE_TIMEOUT_S:.0f})")
    srv.add_argument("--worker-id", default=None, dest="worker_id",
                     help="ledger worker id for server-side sweeps "
                          "(default: serve@<hostname> — deliberately stable "
                          "across restarts so a restarted server re-owns "
                          "its own stale claims instead of waiting out the "
                          "lease)")
    srv.add_argument("--faults", default=None, metavar="SPEC",
                     help="arm deterministic fault injection in the server "
                          "process (same grammar as 'sweep --faults'; "
                          "testing aid)")

    sbm = sub.add_parser(
        "submit",
        help="submit a sweep grid to a running 'repro serve' instance and "
             "stream its per-scenario progress",
    )
    sbm.add_argument("--server", required=True, metavar="URL",
                     help="base URL of the serve instance, e.g. "
                          "http://127.0.0.1:8177")
    sbm.add_argument("--workloads", default=",".join(available_workloads()),
                     help="comma-separated workload names; entries may be "
                          "seed-range axes like 'synth:0-99'. Default: "
                          "every registered workload")
    sbm.add_argument("--devices", default="u250",
                     help="comma-separated device names "
                          f"(available: {', '.join(sorted(_DEVICES))})")
    sbm.add_argument("--precisions", default="MP",
                     help="comma-separated mixed-precision presets "
                          f"(available: {', '.join(MIXED_PRECISION_PRESETS)})")
    sbm.add_argument("--loops", default="1",
                     help="comma-separated inference-loop counts to fuse")
    sbm.add_argument("--iter-max", type=int, default=8,
                     help="Phase II iteration cap for every scenario")
    sbm.add_argument("--include", action="append", default=[], metavar="PAT",
                     help="keep only scenario ids matching this fnmatch "
                          "pattern (repeatable)")
    sbm.add_argument("--exclude", action="append", default=[], metavar="PAT",
                     help="drop scenario ids matching this fnmatch pattern "
                          "(repeatable)")
    sbm.add_argument("--backends", default="analytic",
                     help="comma-separated evaluation backends as a grid "
                          f"axis (available: {', '.join(EVALUATION_BACKENDS)})")
    _add_accuracy_flags(sbm)
    sbm.add_argument("--poll", type=float, default=DEFAULT_POLL_S,
                     metavar="SECONDS",
                     help="delay between job-progress polls "
                          f"(default: {DEFAULT_POLL_S:g})")
    sbm.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="give up waiting for the job after this long "
                          "(default: wait forever)")
    sbm.add_argument("--no-wait", action="store_true", dest="no_wait",
                     help="submit and print the job id without waiting for "
                          "completion (poll later with another submit of "
                          "the same grid)")

    mrg = sub.add_parser(
        "merge-ledgers",
        help="fold N shard ledgers (+ artifact stores) into one canonical "
             "ledger, report, and store",
    )
    mrg.add_argument("ledgers", nargs="+", type=pathlib.Path,
                     help="shard ledger JSONL files to merge")
    mrg.add_argument("--stores", default="",
                     help="comma-separated artifact-store directories to "
                          "fold into <out>/store (entries are verified "
                          "against the merged ledger's digests)")
    mrg.add_argument("--out", type=pathlib.Path, required=True,
                     help="output directory: merged-ledger.jsonl, "
                          "merged-report.json, and (with --stores) store/")
    mrg.add_argument("--require-complete", action="store_true",
                     help="fail if any merged scenario's artifact entry is "
                          "missing from every given store, or claims are "
                          "still open (crashed work not yet re-issued)")
    return parser


def _cmd_workloads() -> int:
    rows = [[name] for name in available_workloads()]
    print(format_table(["Workload"], rows, title="Registered NSAI workloads"))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    workload = build_workload(args.workload)
    ch = characterize_workload(workload, baseline_devices())
    rows = [
        [
            device,
            f"{ch.latency_s(device) * 1e3:9.2f}",
            f"{100 * ch.symbolic_runtime_fraction(device):5.1f}%",
        ]
        for device in baseline_devices()
    ]
    print(format_table(
        ["Device", "Latency (ms)", "Symbolic runtime"],
        rows,
        title=f"Characterization: {workload.name} "
              f"(symbolic = {100 * ch.symbolic_flop_fraction:.1f}% of FLOPs)",
    ))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    if args.pareto_k < 0:
        print(f"error: --pareto-k must be >= 0, got {args.pareto_k}",
              file=sys.stderr)
        return 1
    workload = build_workload(args.workload)
    nsf = NSFlow(
        device=_DEVICES[args.device],
        precision=MIXED_PRECISION_PRESETS[args.precision],
        iter_max=args.iter_max,
        jobs=args.jobs,
        pareto_k=args.pareto_k,
        backend=args.backend,
        accuracy=args.accuracy,
        accuracy_problems=args.accuracy_problems,
        accuracy_seed=args.accuracy_seed,
    )
    snapshot = timings_snapshot()
    design = nsf.compile(workload, n_loops=args.loops)

    c, r = design.config, design.resources
    rows = [
        ["AdArray (H, W, N)", str(c.geometry)],
        ["Total PEs", f"{c.total_pes:,}"],
        ["Default partition", c.default_partition],
        ["Execution mode", c.mode.value],
        ["SIMD lanes", str(c.simd_width)],
        ["MemA1 / MemA2", f"{c.memory.mem_a1_bytes / MB:.2f} / "
                          f"{c.memory.mem_a2_bytes / MB:.2f} MB"],
        ["MemB / MemC", f"{c.memory.mem_b_bytes / MB:.2f} / "
                        f"{c.memory.mem_c_bytes / MB:.2f} MB"],
        ["URAM cache", f"{c.memory.cache_bytes / MB:.2f} MB"],
        ["DSP / LUT / FF", f"{r.dsp_pct:.0f}% / {r.lut_pct:.0f}% / {r.ff_pct:.0f}%"],
        ["BRAM / URAM / LUTRAM", f"{r.bram_pct:.0f}% / {r.uram_pct:.0f}% / "
                                 f"{r.lutram_pct:.0f}%"],
        ["Clock", f"{r.clock_mhz:.0f} MHz"],
        ["Cost backend", str(design.dse.backend) if design.dse.backend
         else args.backend],
        ["Simulated latency", f"{design.latency_ms:.3f} ms"],
    ]
    if design.dse.accuracy is not None:
        acc = design.dse.accuracy
        rows.append([
            "Functional accuracy",
            f"{acc.value:.4f} ({acc.n_problems} problems, seed {acc.seed})"
            if acc.value is not None
            else f"n/a ({workload.name} has no functional pipeline)",
        ])
    print(format_table(
        ["Parameter", "Value"], rows,
        title=f"NSFlow design: {workload.name} on {r.device}",
    ))

    if design.evaluation is not None:
        print()
        print(latency_breakdown_table(design.evaluation, clock_mhz=c.clock_mhz))

    if design.dse.pareto is not None and design.dse.pareto:
        print()
        print(pareto_frontier_table(design.dse.pareto, clock_mhz=c.clock_mhz))

    if args.timings:
        print()
        print(stage_timings_table(stage_timings_since(snapshot)))

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "trace.json").write_text(trace_to_json(design.trace))
        (args.out / "design_config.json").write_text(
            design_config_to_json(design.config)
        )
        (args.out / "nsflow_params.vh").write_text(design.rtl_header)
        (args.out / "host.cpp").write_text(design.host_code)
        print(f"\nArtifacts written to {args.out}/: trace.json, "
              "design_config.json, nsflow_params.vh, host.cpp")
    return 0


def _split_csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _grid_doc_from_args(args: argparse.Namespace) -> dict | None:
    """The sweep-grid request document shared by submit and --server.

    Built from the CSV grid flags common to ``sweep`` and ``submit``;
    returns ``None`` (after printing the error) on a malformed --loops.
    The server re-validates everything through the same
    :class:`~repro.flow.sweep.ScenarioGrid` the local path uses.
    """
    try:
        loops = [int(v) for v in _split_csv(args.loops)]
    except ValueError:
        print(f"error: --loops expects comma-separated integers, "
              f"got {args.loops!r}", file=sys.stderr)
        return None
    return {
        "workloads": list(_split_csv(args.workloads)),
        "devices": [d.lower() for d in _split_csv(args.devices)],
        "precisions": list(_split_csv(args.precisions)),
        "loops": loops,
        "iter_maxes": [args.iter_max],
        "backends": [b.lower() for b in _split_csv(args.backends)],
        "accuracy": args.accuracy,
        "accuracy_problems": args.accuracy_problems,
        "accuracy_seed": args.accuracy_seed,
        "include": list(args.include),
        "exclude": list(args.exclude),
    }


def _submit_grid(
    server: str,
    grid_doc: dict,
    *,
    poll_s: float = DEFAULT_POLL_S,
    timeout_s: float | None = None,
    wait: bool = True,
) -> int:
    client = ServeClient(server)
    job = client.submit_sweep(grid_doc)
    job_id = job["job_id"]
    total = job.get("scenarios", 0)
    coalesced = " (coalesced onto the running job)" if job.get("coalesced") \
        else ""
    print(f"Submitted job {job_id} ({total} scenarios) "
          f"to {client.base_url}{coalesced}")
    if not wait:
        print(f"Poll with: repro submit --server {client.base_url} ... "
              "(same grid resumes/coalesces) or GET /jobs/" + job_id)
        return 0

    printed = {"n": 0}

    def on_rows(rows: list[dict]) -> None:
        for row in rows:
            printed["n"] += 1
            if row.get("status") == "ok":
                tail = (f"{row['latency_ms']:10.3f} ms"
                        if row.get("latency_ms") is not None else "")
                status = "resumed" if row.get("resumed") else (
                    "cached" if row.get("cached") else "compiled")
            else:
                status = "ERROR"
                tail = row.get("error", "")
            print(f"[{printed['n']:>{len(str(total))}}/{total}] "
                  f"{row.get('scenario_id', '-'):<32} {status:<9} "
                  f"{row.get('elapsed_s', 0.0):6.2f}s  {tail}")

    final = client.wait_job(
        job_id, poll_s=poll_s, timeout_s=timeout_s, on_rows=on_rows
    )
    rows = client.job(job_id).get("rows", [])
    if rows:
        print()
        print(job_results_table(rows, title=f"Job results ({job_id})"))
    print()
    print(job_summary(final))
    if final.get("status") == "stopped":
        print("note: the server drained mid-job; resubmit the same grid "
              "to resume from its ledger", file=sys.stderr)
    return 0 if final.get("status") == "done" else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    grid_doc = _grid_doc_from_args(args)
    if grid_doc is None:
        return 1
    return _submit_grid(
        args.server, grid_doc, poll_s=args.poll, timeout_s=args.timeout,
        wait=not args.no_wait,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .server import DseServer

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    if args.max_retries < 0:
        print(f"error: --max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 1
    if args.faults is not None:
        try:
            arm_faults(args.faults)
        except NSFlowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    server = DseServer(
        args.cache_dir,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_retries=args.max_retries,
        worker_id=args.worker_id,
        lease_timeout_s=args.lease_timeout,
    )

    def on_ready(srv: DseServer) -> None:
        # The ready line is machine-read (tests, tools/serve_smoke.py):
        # with --port 0 it is the only place the real port appears.
        print(f"Serving on http://{srv.host}:{srv.port} "
              f"(cache: {srv.cache_dir}, pool jobs: {srv.jobs}, "
              f"worker id: {srv.worker_id})", flush=True)

    asyncio.run(server.serve(on_ready=on_ready))
    s = server.stats
    print(f"Drained: {s.requests} requests — {s.compiles} compiles "
          f"({s.warm_hits} warm hits, {s.pricings} priced, "
          f"{s.coalesced} coalesced), {s.sweeps} sweep submissions",
          flush=True)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.server is not None:
        grid_doc = _grid_doc_from_args(args)
        if grid_doc is None:
            return 1
        return _submit_grid(args.server, grid_doc)
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    try:
        loops = tuple(int(v) for v in _split_csv(args.loops))
    except ValueError:
        print(f"error: --loops expects comma-separated integers, "
              f"got {args.loops!r}", file=sys.stderr)
        return 1
    grid = ScenarioGrid(
        workloads=_split_csv(args.workloads),
        devices=tuple(d.lower() for d in _split_csv(args.devices)),
        precisions=_split_csv(args.precisions),
        loops=loops,
        iter_maxes=(args.iter_max,),
        backends=tuple(b.lower() for b in _split_csv(args.backends)),
        accuracy=args.accuracy,
        accuracy_problems=args.accuracy_problems,
        accuracy_seed=args.accuracy_seed,
        include=tuple(args.include),
        exclude=tuple(args.exclude),
    )
    specs = grid.expand()
    if not specs:
        print("error: grid is empty after include/exclude filtering",
              file=sys.stderr)
        return 1
    if args.max_retries < 0:
        print(f"error: --max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 1
    if args.faults is not None:
        try:
            arm_faults(args.faults)
        except NSFlowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    retry = RetryPolicy(max_attempts=args.max_retries + 1)
    store = (
        None if args.no_cache else ArtifactStore(args.cache_dir, retry=retry)
    )
    ledger = args.ledger
    if ledger is None and not args.no_cache:
        ledger = args.cache_dir / "sweep-ledger.jsonl"
    if args.resume and store is None:
        print("error: --resume requires the artifact cache "
              "(drop --no-cache)", file=sys.stderr)
        return 1
    total = len(specs)

    worker = args.worker_id
    if worker is None and args.shard is not None:
        worker = f"{socket.gethostname()}-{os.getpid()}"

    def progress(outcome) -> None:
        n = progress.count = getattr(progress, "count", 0) + 1
        if outcome.deferred:
            status = "deferred"
        elif not outcome.ok:
            status = "ERROR"
        elif outcome.resumed:
            status = "resumed"
        elif outcome.cached:
            status = "cached"
        elif outcome.reissued:
            status = "reissued"
        elif outcome.recovered:
            status = "recovered"
        else:
            status = "compiled"
        if outcome.ok:
            tail = f"{outcome.latency_ms:10.3f} ms"
        elif outcome.deferred:
            tail = f"claimed by {outcome.holder or 'another worker'}"
        else:
            tail = outcome.error
        print(f"[{n:>{len(str(total))}}/{total}] "
              f"{outcome.scenario_id:<32} {status:<9} "
              f"{outcome.elapsed_s:6.2f}s  {tail}")

    result = run_sweep(
        grid, store=store, jobs=args.jobs,
        progress=progress, ledger=ledger, resume=args.resume,
        shard=args.shard, worker=worker,
        lease_timeout_s=args.lease_timeout,
        scenario_timeout_s=args.scenario_timeout,
        retry=retry,
    )
    print()
    print(sweep_results_table(result))
    if result.ok_outcomes():
        print()
        print(sweep_comparison_table(result))
    print()
    print(sweep_summary(result))
    if worker is not None and ledger is not None:
        print()
        print(shard_progress_table(
            RunLedger(ledger).entries(),
            title=f"Shard progress ({ledger})",
        ))
    if args.timings:
        print()
        if result.stage_timings:
            print(stage_timings_table(result.stage_timings))
        else:
            print("DSE stage timings: no stages ran "
                  "(every scenario was served from the artifact cache)")
    if store is not None:
        print(f"Artifact store: {args.cache_dir} ({len(store)} entries)")
    if ledger is not None:
        print(f"Run ledger: {ledger}")
    # Failure isolation keeps the sweep running, but scripts/CI must
    # still see partial failures: any errored scenario fails the exit.
    return 0 if result.n_errors == 0 else 1


def _cmd_merge_ledgers(args: argparse.Namespace) -> int:
    missing = [p for p in args.ledgers if not p.exists()]
    if missing:
        print("error: ledger not found: "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 1
    merged = merge_ledgers([RunLedger(path) for path in args.ledgers])

    args.out.mkdir(parents=True, exist_ok=True)
    ledger_out = args.out / "merged-ledger.jsonl"
    report_out = args.out / "merged-report.json"
    ledger_out.write_text(merged.canonical_ledger_text())
    report_out.write_text(merged.report_text())

    print(merge_summary_table(
        merged, title=f"Merged {len(args.ledgers)} ledger(s)"))

    store_dirs = _split_csv(args.stores)
    fold = None
    if store_dirs:
        expected = {
            row.key: row.artifact_digest
            for row in merged.rows
            if row.status == "ok" and row.artifact_digest
        }
        fold = fold_stores(
            [ArtifactStore(pathlib.Path(d)) for d in store_dirs],
            ArtifactStore(args.out / "store"),
            expected=expected,
        )
        print(f"Artifact store: {args.out / 'store'} "
              f"({fold.copied} copied, {fold.duplicates} duplicates"
              + (f", {len(fold.missing)} missing" if fold.missing else "")
              + ")")

    print(f"Canonical ledger: {ledger_out}")
    print(f"Merged report:    {report_out}")

    if merged.double_priced:
        sid_by_key = {row.key: row.scenario_id for row in merged.rows}
        print("error: scenarios freshly priced by more than one worker: "
              + ", ".join(sid_by_key.get(k, k) for k in merged.double_priced),
              file=sys.stderr)
        return 1
    if args.require_complete:
        problems = []
        if merged.open_claims:
            problems.append(
                f"{len(merged.open_claims)} claim(s) still open: "
                + ", ".join(sorted(c.scenario_id for c in merged.open_claims))
            )
        if fold is not None and fold.missing:
            problems.append(
                f"{len(fold.missing)} artifact entr(y/ies) missing from "
                "every store: " + ", ".join(sorted(fold.missing))
            )
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "workloads":
            return _cmd_workloads()
        if args.command == "characterize":
            return _cmd_characterize(args)
        if args.command == "compile":
            return _cmd_compile(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "merge-ledgers":
            return _cmd_merge_ledgers(args)
    except NSFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
