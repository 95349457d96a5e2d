"""End-to-end NSFlow framework (paper Fig. 2).

:class:`~repro.flow.nsflow.NSFlow` wires the whole toolchain: workload →
execution trace → dataflow graph → two-phase DSE → design config →
backend instantiation (controller schedule, resource estimate, RTL
parameters, host code). One call reproduces the paper's "NSAI workload
(.py) in, deployed accelerator out" story.

Names resolve on first use (:mod:`repro._lazy`). ``import repro`` loads
only :mod:`.nsflow` and :mod:`.hostcode`; the sweep, ledger, artifact
store and report modules load when a caller first reads one of their
names (``from repro.flow import run_sweep``) or imports them.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "nsflow": ["NSFlow", "CompiledDesign"],
    "hostcode": ["generate_host_code"],
    "report": [
        "format_table",
        "pareto_frontier_table",
        "speedup_table",
        "stage_timings_table",
        "sweep_results_table",
        "sweep_comparison_table",
        "sweep_summary",
        "shard_progress_table",
        "merge_summary_table",
    ],
    "artifacts": ["ArtifactStore", "ScenarioArtifacts", "FoldStats", "fold_stores"],
    "sweep": [
        "ScenarioSpec",
        "ScenarioGrid",
        "ScenarioOutcome",
        "SweepResult",
        "expand_workload_axis",
        "run_sweep",
        "parse_shard",
        "shard_filter",
        "shard_index",
        "DEFAULT_LEASE_TIMEOUT_S",
    ],
    "ledger": [
        "LedgerRecord",
        "ClaimRecord",
        "RunLedger",
        "MergedRow",
        "LedgerMergeResult",
        "merge_ledgers",
    ],
})
