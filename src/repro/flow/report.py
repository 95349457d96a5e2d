"""Plain-text table formatting for benches, examples, and the CLI.

Besides the generic :func:`format_table`, this module renders the DSE
engine's Pareto frontier (:func:`pareto_frontier_table`): one row per
non-dominated design point, ordered by ascending latency, with the
area (PE count) and energy (PE·cycle) proxies alongside — and the
scenario-sweep reports (:func:`sweep_results_table`,
:func:`sweep_comparison_table`, :func:`sweep_summary`): per-scenario
results, cross-scenario winners per workload, and the cache counters
that audit a sweep's warm/cold behavior.
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from collections.abc import Sequence

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dse.engine import ParetoFrontier
    from ..dse.timing import StageStat
    from ..model.backend import DesignEvaluation
    from .ledger import ClaimRecord, LedgerMergeResult, LedgerRecord
    from .sweep import SweepResult

__all__ = [
    "format_table",
    "speedup_table",
    "pareto_frontier_table",
    "latency_breakdown_table",
    "stage_timings_table",
    "sweep_results_table",
    "sweep_comparison_table",
    "sweep_summary",
    "shard_progress_table",
    "merge_summary_table",
    "job_results_table",
    "job_summary",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospace table (the benches' output format)."""
    if not headers:
        raise ConfigError("table needs headers")
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    for row in cells[1:]:
        if len(row) != len(headers):
            raise ConfigError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def pareto_frontier_table(
    frontier: "ParetoFrontier",
    clock_mhz: float = 272.0,
    title: str | None = None,
) -> str:
    """Render a Pareto frontier as the CLI's frontier report.

    Columns: rank, geometry ``(H, W, N)``, execution mode, the static
    ``N̄l : N̄v`` split, estimated cycles, latency at ``clock_mhz``, the
    PE-equivalent area proxy (PEs + sub-array periphery), and the
    area·cycle energy proxy. Rows are the frontier's deterministic order
    (ascending latency, ties broken by area, energy, then geometry).
    When the frontier was built with the functional-accuracy objective
    (any point carries an accuracy stamp) an ``Accuracy`` column is
    appended; accuracy-free frontiers render exactly as before.
    """
    if title is None:
        shown = (
            f"top {len(frontier)} of {frontier.non_dominated}"
            if len(frontier) < frontier.non_dominated
            else f"{frontier.non_dominated}"
        )
        title = (
            f"Pareto frontier: {shown} non-dominated of "
            f"{frontier.geometries_evaluated} geometries "
            f"({frontier.dominated} dominated or tied)"
        )
    with_accuracy = any(p.accuracy is not None for p in frontier)
    rows = [
        [
            i + 1,
            f"({p.h}, {p.w}, {p.n_sub})",
            p.mode.value,
            # Sequential rows run NN then VSA on the whole array; the
            # static split only describes the parallel schedule.
            f"{p.nl_bar} : {p.nv_bar}" if p.mode.value == "parallel" else "-",
            f"{p.cycles:,}",
            f"{p.latency_s(clock_mhz) * 1e3:.3f}",
            f"{p.area:,}",
            f"{p.energy_proxy:.3e}",
        ] + ([f"{p.accuracy:.4f}" if p.accuracy is not None else "-"]
             if with_accuracy else [])
        for i, p in enumerate(frontier)
    ]
    headers = ["#", "(H, W, N)", "Mode", "Nl:Nv", "Cycles", "Latency (ms)",
               "Area (PE-eq)", "Energy (area*cyc)"]
    if with_accuracy:
        headers.append("Accuracy")
    return format_table(headers, rows, title=title)


def latency_breakdown_table(
    evaluation: "DesignEvaluation",
    clock_mhz: float = 272.0,
    title: str | None = None,
) -> str:
    """Render a backend's :class:`~repro.model.backend.CycleBreakdown`.

    One row per component — steady-state compute, systolic fill/drain,
    DRAM traffic, and the overlap credit (cycles hidden by double
    buffering and, in parallel mode, by inter-loop parallelism) — then
    the end-to-end total. The share column is each row's fraction of
    the gross (pre-overlap) cycle sum: the three cost rows add to 100%,
    the overlap row is the hidden fraction, and the total row is what
    remains end to end (``total = gross - overlap``).
    """
    b = evaluation.breakdown
    gross = max(b.compute + b.fill_drain + b.dram, 1)

    def row(name: str, cycles: int, sign: str = "") -> list:
        return [
            name,
            f"{sign}{cycles:,}",
            f"{cycles / (clock_mhz * 1e6) * 1e3:.3f}",
            f"{100 * cycles / gross:.1f}%",
        ]

    rows = [
        row("compute", b.compute),
        row("fill/drain", b.fill_drain),
        row("DRAM traffic", b.dram),
        row("overlap (hidden)", b.overlap, sign="-"),
        row("total", b.total),
    ]
    return format_table(
        ["Component", "Cycles", "ms", "Share"],
        rows,
        title=title or f"Latency breakdown ({evaluation.backend})",
    )


def stage_timings_table(
    timings: dict[str, "StageStat"], title: str | None = None
) -> str:
    """Render the DSE stage accumulators (:mod:`repro.dse.timing`).

    One row per stage, in deterministic name order: accumulated
    wall-clock, entry count, work items (geometries swept, model probes
    paid, candidates priced and pruned, refinement iterations), and
    throughput.
    """
    rows = [
        [
            name,
            f"{s.seconds:.3f}",
            s.calls,
            f"{s.items:,}",
            f"{s.items_per_second:,.0f}" if s.seconds > 0 else "-",
        ]
        for name, s in sorted(timings.items())
    ]
    return format_table(
        ["Stage", "Seconds", "Calls", "Items", "Items/s"],
        rows,
        title=title or "DSE stage timings",
    )


def sweep_results_table(result: "SweepResult", title: str | None = None) -> str:
    """One row per sweep scenario: design point, latency, provenance.

    ``Source`` distinguishes fresh compilations from artifact-cache hits;
    ``Backend`` names the cost model (and version) the scenario's
    report was priced with; ``Evals`` counts the Phase-I model
    evaluations the scenario actually paid for (always 0 on a hit);
    ``vs best`` is the latency delta against the same workload's
    fastest scenario, so device/precision penalties read directly off
    the table. Error rows keep their slot — failure isolation means a
    sweep report always accounts for every scenario it was asked to
    run. An ``Accuracy`` column is appended when any scenario was
    compiled with the functional-accuracy objective; accuracy-free
    sweeps render exactly as before.
    """
    with_accuracy = any(
        o.artifacts is not None and o.artifacts.report.accuracy is not None
        for o in result.ok_outcomes()
    )

    def acc_cell(o) -> list:
        if not with_accuracy:
            return []
        acc = o.artifacts.report.accuracy if o.artifacts is not None else None
        return [
            f"{acc.value:.4f}"
            if acc is not None and acc.value is not None else "-"
        ]

    best_by_workload: dict[str, float] = {}
    for o in result.ok_outcomes():
        lat = o.latency_ms
        prev = best_by_workload.get(o.spec.workload)
        if prev is None or lat < prev:
            best_by_workload[o.spec.workload] = lat
    rows = []
    for o in result.outcomes:
        if o.ok:
            assert o.artifacts is not None
            c = o.artifacts.config
            best = best_by_workload[o.spec.workload]
            delta = (
                "best" if o.latency_ms <= best
                else f"+{100 * (o.latency_ms / best - 1):.1f}%"
            )
            backend = o.artifacts.report.backend
            if o.resumed:
                source = "resume"
            elif o.cached:
                source = "cache"
            elif o.reissued:
                source = "reissue"
            elif o.recovered:
                source = "recover"
            else:
                source = "fresh"
            rows.append([
                o.scenario_id,
                "ok",
                source,
                str(backend) if backend is not None else "-",
                str(c.geometry),
                c.mode.value,
                c.default_partition if c.mode.value == "parallel" else "-",
                c.simd_width,
                f"{o.latency_ms:.3f}",
                f"{o.artifacts.resources.dsp_pct:.0f}%",
                f"{o.evaluations:,}",
                delta,
            ] + acc_cell(o))
        elif o.deferred:
            # Another worker holds a live claim: nothing was priced here
            # and the owner's ledger carries the result.
            holder = f"@{o.holder}" if o.holder else "-"
            rows.append([
                o.scenario_id, "deferred", holder, "-", "-", "-", "-", "-",
                "-", "-", "0", "-",
            ] + (["-"] if with_accuracy else []))
        else:
            rows.append([
                o.scenario_id, "ERROR", "-", "-", "-", "-", "-", "-", "-",
                "-", "0", "-",
            ] + (["-"] if with_accuracy else []))
    headers = ["Scenario", "Status", "Source", "Backend", "(H, W, N)",
               "Mode", "Nl:Nv", "SIMD", "Latency (ms)", "DSP", "Evals",
               "vs best"]
    if with_accuracy:
        headers.append("Accuracy")
    table = format_table(headers, rows, title=title or "Sweep results")
    errors = [
        f"  {o.scenario_id}: {o.error}"
        for o in result.outcomes if o.error is not None
    ]
    if errors:
        table += "\n\nScenario errors:\n" + "\n".join(errors)
    return table


def sweep_comparison_table(result: "SweepResult", title: str | None = None) -> str:
    """Cross-scenario winners per workload on the three DSE objectives.

    For every workload the sweep covered: the latency-winning scenario
    (scheduled end-to-end latency), and the area- and energy-winning
    scenarios judged by the best point on each scenario's Pareto
    frontier. ``Spread`` is the max/min latency ratio across the
    workload's scenarios — the cost of the worst device/precision choice
    relative to the best.
    """
    workloads: list[str] = []
    for o in result.ok_outcomes():
        if o.spec.workload not in workloads:
            workloads.append(o.spec.workload)
    rows = []
    for workload in workloads:
        outs = result.for_workload(workload)
        by_latency = min(outs, key=lambda o: o.latency_ms)
        with_frontier = [
            o for o in outs
            if o.artifacts is not None and o.artifacts.report.pareto
        ]
        if with_frontier:
            def min_area(o):
                return min(p.area for p in o.artifacts.report.pareto)

            def min_energy(o):
                return min(p.energy_proxy for p in o.artifacts.report.pareto)

            by_area = min(with_frontier, key=min_area)
            by_energy = min(with_frontier, key=min_energy)
            area_cell = f"{min_area(by_area):,} @ {by_area.spec.device}/{by_area.spec.precision}"
            energy_cell = (
                f"{min_energy(by_energy):.2e} @ "
                f"{by_energy.spec.device}/{by_energy.spec.precision}"
            )
        else:
            area_cell = energy_cell = "-"
        lats = [o.latency_ms for o in outs]
        spread = f"{max(lats) / min(lats):.2f}x" if min(lats) > 0 else "-"
        rows.append([
            workload,
            len(outs),
            f"{by_latency.latency_ms:.3f} @ "
            f"{by_latency.spec.device}/{by_latency.spec.precision}",
            area_cell,
            energy_cell,
            spread,
        ])
    return format_table(
        ["Workload", "Scen", "Best latency (ms)", "Best area (PE-eq)",
         "Best energy", "Spread"],
        rows,
        title=title or "Cross-scenario comparison (winners per workload)",
    )


def sweep_summary(result: "SweepResult") -> str:
    """The audit lines every sweep ends with: counts and cache counters.

    A warm re-run of an identical grid must show every scenario under
    "cache hits" and *zero* fresh DSE evaluations — that is the
    near-instant-warm-sweep guarantee, checkable straight from this
    output.
    """
    resumed = (
        f" ({result.n_resumed} resumed via ledger)" if result.n_resumed else ""
    )
    deferred = (
        f", {result.n_deferred} deferred to other workers"
        if result.n_deferred else ""
    )
    reissued = (
        f" ({result.n_reissued} re-issued from stale claims)"
        if result.n_reissued else ""
    )
    lines = [
        f"Sweep: {result.n_scenarios} scenarios in {result.elapsed_s:.2f} s — "
        f"{result.n_compiled} compiled{reissued}, {result.n_cached} cache hits"
        f"{resumed}, {result.n_errors} errors{deferred}",
    ]
    if result.shard is not None or result.worker is not None:
        shard = f"shard {result.shard}" if result.shard else "unsharded"
        worker = f"worker {result.worker}" if result.worker else "no claims"
        lines.append(f"Distribution: {shard}, {worker}")
    if result.store_stats is not None:
        s = result.store_stats
        lines.append(
            f"Artifact cache: {s.hits} hits / {s.misses} misses / "
            f"{s.stores} stored"
        )
        if s.corrupt:
            lines.append(
                f"Corruption: {s.corrupt} corrupt entries detected, "
                f"{s.quarantined} quarantined, "
                f"{result.n_recovered} recompiled"
            )
    if result.n_timeouts:
        lines.append(
            f"Timeouts: {result.n_timeouts} scenarios exceeded the "
            "wall-clock budget (retryable via --resume)"
        )
    if result.io_retries:
        lines.append(
            f"Transient I/O: {result.io_retries} retried operations"
        )
    if result.fault_fires:
        lines.append(
            "Injected faults: " + ", ".join(
                f"{point} x{count}"
                for point, count in sorted(result.fault_fires.items())
            )
        )
    if result.heartbeat_lost:
        lines.append(
            "WARNING: claim heartbeat lost mid-sweep — this worker "
            "stopped claiming new scenarios"
        )
    lines.append(
        f"Fresh DSE evaluations: {result.total_evaluations:,} candidate "
        f"models ({result.fresh_model_evaluations:,} model-cache misses)"
    )
    acc_results = [
        o.artifacts.report.accuracy
        for o in result.ok_outcomes()
        if o.artifacts is not None and o.artifacts.report.accuracy is not None
    ]
    if acc_results:
        scored = [a for a in acc_results if a.value is not None]
        line = (
            f"Functional accuracy: {len(scored)} of {len(acc_results)} "
            f"scenarios scored"
        )
        if scored:
            lo = min(a.value for a in scored)
            hi = max(a.value for a in scored)
            line += (
                f" ({scored[0].n_problems} problems, seed {scored[0].seed}; "
                f"range {lo:.4f}-{hi:.4f})"
            )
        if len(scored) < len(acc_results):
            line += (
                f"; {len(acc_results) - len(scored)} without a functional "
                "pipeline"
            )
        lines.append(line)
    backends: dict[str, int] = {}
    for o in result.ok_outcomes():
        if o.artifacts is not None and o.artifacts.report.backend is not None:
            key = str(o.artifacts.report.backend)
            backends[key] = backends.get(key, 0) + 1
    if backends:
        lines.append(
            "Evaluation backends: " + ", ".join(
                f"{name} x{count}" for name, count in sorted(backends.items())
            )
        )
    sweep_stage = result.stage_timings.get("phase1.sweep")
    if sweep_stage is not None:
        probes = result.stage_timings.get("phase1.model_probes")
        probed = probes.items if probes is not None else 0
        phase2 = result.stage_timings.get("phase2.refine")
        phase2_s = phase2.seconds if phase2 is not None else 0.0
        lines.append(
            f"DSE stage timings: phase1 {sweep_stage.seconds:.3f} s "
            f"({sweep_stage.items:,} geometries, {probed:,} model probes), "
            f"phase2 {phase2_s:.3f} s"
        )
    screened = result.stage_timings.get("phase1.mf_screened")
    if screened is not None:
        priced = result.stage_timings.get("phase1.mf_priced")
        pruned = result.stage_timings.get("phase1.mf_pruned")
        lines.append(
            f"Multi-fidelity pruning: {screened.items:,} candidates "
            f"screened, {priced.items if priced else 0:,} priced, "
            f"{pruned.items if pruned else 0:,} pruned"
        )
    return "\n".join(lines)


def shard_progress_table(
    entries: "Sequence[LedgerRecord | ClaimRecord]",
    title: str | None = None,
) -> str:
    """Per-shard progress counters sourced from ledger records.

    One row per shard label found in the ledger(s): scenarios claimed,
    completed (``done`` = ok results), errors, re-issues of crashed
    claims, and claims still open (claimed but never closed by a result
    — in-flight work, or a crash not yet re-issued). Rows sort by shard
    label; records that predate sharding land in the ``-`` row.
    """
    from .ledger import ClaimRecord as _Claim, LedgerRecord as _Record

    stats: dict[str, dict[str, object]] = {}

    def shard_row(shard: str | None) -> dict:
        return stats.setdefault(shard or "-", {
            "claimed": set(), "done": 0, "errors": 0, "reissued": 0,
            "open": {},
        })

    for entry in entries:
        if isinstance(entry, _Claim):
            row = shard_row(entry.shard)
            row["claimed"].add(entry.key)
            row["open"][entry.key] = True
        elif isinstance(entry, _Record):
            row = shard_row(entry.shard)
            if entry.status == "ok":
                row["done"] += 1
            else:
                row["errors"] += 1
            if entry.reissued:
                row["reissued"] += 1
            for r in stats.values():
                r["open"].pop(entry.key, None)
    rows = [
        [
            shard,
            len(row["claimed"]),
            row["done"],
            row["errors"],
            row["reissued"],
            len(row["open"]),
        ]
        for shard, row in sorted(stats.items())
    ]
    return format_table(
        ["Shard", "Claimed", "Done", "Errors", "Re-issued", "Open claims"],
        rows,
        title=title or "Per-shard progress (from ledger records)",
    )


def merge_summary_table(
    merge: "LedgerMergeResult", title: str | None = None
) -> str:
    """Per-source accounting of one ``repro merge-ledgers`` fold.

    One row per input ledger — result rows, ok/error split, scenarios
    freshly priced there, claim traffic, re-issues, and still-open
    claims — then a totals row for the canonical merged result. The
    ``double-priced`` diagnostic (scenarios freshly priced by more than
    one worker) is appended below the table when non-zero, because it
    means the partitioning or claim coordination leaked work.
    """
    rows = [
        [
            s.path, s.results, s.ok, s.errors, s.fresh, s.claims,
            s.reissued, s.open_claims,
        ]
        for s in merge.sources
    ]
    rows.append([
        "merged", len(merge.rows), merge.n_ok, merge.n_errors,
        sum(s.fresh for s in merge.sources),
        sum(s.claims for s in merge.sources),
        sum(s.reissued for s in merge.sources),
        len(merge.open_claims),
    ])
    table = format_table(
        ["Ledger", "Results", "OK", "Errors", "Fresh", "Claims",
         "Re-issued", "Open"],
        rows,
        title=title or "Ledger merge summary",
    )
    if merge.double_priced:
        table += (
            f"\n\nDouble-priced scenarios ({len(merge.double_priced)}): "
            + ", ".join(merge.double_priced)
        )
    return table


def job_results_table(
    rows: Sequence[dict], title: str | None = None
) -> str:
    """Render a server job's polled ledger-row documents.

    ``repro submit`` builds this from the ``rows`` of ``GET
    /jobs/<id>`` — :class:`~repro.flow.ledger.LedgerRecord` documents,
    the same serialization the ledger file itself uses. ``Source``
    mirrors the local sweep table: ``resume``/``cache``/``fresh`` (or
    ``reissue``/``recover`` for the distributed-recovery provenance).
    """
    out = []
    for row in rows:
        if row.get("status") == "ok":
            if row.get("resumed"):
                source = "resume"
            elif row.get("cached"):
                source = "cache"
            elif row.get("reissued"):
                source = "reissue"
            elif row.get("recovered"):
                source = "recover"
            else:
                source = "fresh"
            latency = row.get("latency_ms")
            out.append([
                row.get("scenario_id", "-"),
                "ok",
                source,
                f"{latency:.3f}" if latency is not None else "-",
                f"{row.get('evaluations', 0):,}",
                f"{row.get('elapsed_s', 0.0):.2f}",
            ])
        else:
            out.append([
                row.get("scenario_id", "-"), "ERROR", "-", "-", "0",
                f"{row.get('elapsed_s', 0.0):.2f}",
            ])
    table = format_table(
        ["Scenario", "Status", "Source", "Latency (ms)", "Evals",
         "Elapsed (s)"],
        out,
        title=title or "Job results",
    )
    errors = [
        f"  {row.get('scenario_id', '-')}: {row.get('error')}"
        for row in rows if row.get("status") != "ok"
    ]
    if errors:
        table += "\n\nScenario errors:\n" + "\n".join(errors)
    return table


def job_summary(job_doc: dict) -> str:
    """The audit line a ``repro submit`` run ends with.

    Built from the final job document of ``GET /jobs/<id>``: the job's
    terminal status plus the server-side sweep summary counters (the
    same counts a local ``repro sweep`` prints).
    """
    parts = [f"Job {job_doc.get('job_id', '?')}: {job_doc.get('status', '?')}"]
    summary = job_doc.get("summary") or {}
    if summary:
        parts.append(
            f"{summary.get('scenarios', 0)} scenarios in "
            f"{summary.get('elapsed_s', 0.0):.2f} s — "
            f"{summary.get('compiled', 0)} compiled, "
            f"{summary.get('cached', 0)} cache hits "
            f"({summary.get('resumed', 0)} resumed via ledger), "
            f"{summary.get('errors', 0)} errors"
        )
        parts.append(
            f"Fresh model evaluations: "
            f"{summary.get('fresh_model_evaluations', 0):,}"
        )
    if job_doc.get("error"):
        parts.append(f"Error: {job_doc['error']}")
    return "\n".join(parts)


def speedup_table(
    baseline_latencies: dict[str, float],
    reference_latency: float,
    reference_name: str = "NSFlow",
) -> list[tuple[str, float]]:
    """Normalized runtimes (device / reference), reference last at 1.0.

    This is the Fig. 5 presentation: every bar is runtime normalized to
    NSFlow, so NSFlow = 1.00 and larger means slower.
    """
    if reference_latency <= 0:
        raise ConfigError("reference latency must be positive")
    rows = [
        (name, latency / reference_latency)
        for name, latency in baseline_latencies.items()
    ]
    rows.append((reference_name, 1.0))
    return rows
