"""Table I — workload taxonomy.

Regenerates the paper's workload characterization rows: compute pattern
(neuro kernel family, symbolic kernel family) and the measured op mix of
each Table I model's execution trace.

Since PR 2 the four workloads are compiled as one *scenario sweep*
(``repro.flow.sweep``) instead of four independent trace extractions:
the sweep isolates per-workload failures and parks every compiled
scenario in an artifact store, so the taxonomy rows read straight from
the sweep's cached traces.
"""

from __future__ import annotations

import pytest

from repro.flow import ArtifactStore, ScenarioGrid, format_table, run_sweep
from repro.trace.opnode import ExecutionUnit, OpDomain

from conftest import emit, once

WORKLOADS = ("nvsa", "mimonet", "lvrf", "prae")

#: The taxonomy the paper states (compute-pattern columns of Table I).
EXPECTED_SYMBOLIC_KERNEL = {
    "nvsa": "VSA binding/unbinding (circular conv)",
    "mimonet": "VSA binding (circular conv)",
    "lvrf": "VSA binding/unbinding (circular conv)",
    "prae": "probabilistic abduction (PMF algebra)",
}


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    """One sweep over the Table I workloads, artifact-cached."""
    store = ArtifactStore(tmp_path_factory.mktemp("table1-cache"))
    grid = ScenarioGrid(workloads=WORKLOADS, devices=("u250",),
                        precisions=("MP",))
    result = run_sweep(grid, store=store)
    assert result.n_errors == 0, [o.error for o in result.outcomes]
    return result


@pytest.fixture(scope="module")
def taxonomy_rows(sweep_result):
    rows = []
    for outcome in sweep_result.ok_outcomes():
        name = outcome.spec.workload
        trace = outcome.artifacts.trace
        n_conv = sum(1 for op in trace if op.kind == "conv2d")
        n_vsa = len(trace.by_unit(ExecutionUnit.ARRAY_VSA))
        n_simd = len(trace.by_unit(ExecutionUnit.SIMD))
        nf = trace.total_flops(OpDomain.NEURAL)
        sf = trace.total_flops(OpDomain.SYMBOLIC)
        rows.append(
            [
                name.upper(),
                f"CNN ({n_conv} convs)",
                EXPECTED_SYMBOLIC_KERNEL[name],
                n_vsa,
                n_simd,
                f"{100 * sf / (nf + sf):.1f}%",
            ]
        )
    return rows


def test_table1_taxonomy(benchmark, taxonomy_rows):
    text = once(benchmark, lambda: format_table(
        ["Workload", "Neuro kernel", "Symbolic kernel",
         "#VSA ops", "#SIMD ops", "Symb FLOP share"],
        taxonomy_rows,
        title="Table I (reproduced): NSAI workload taxonomy",
    ))
    emit("table1_workloads", text)
    # VSA-based workloads carry circular-conv kernels; PrAE carries none.
    by_name = {row[0]: row for row in taxonomy_rows}
    assert by_name["NVSA"][3] > 0
    assert by_name["MIMONET"][3] > 0
    assert by_name["LVRF"][3] > 0
    assert by_name["PRAE"][3] == 0


def test_table1_sweep_accounting(sweep_result):
    """The sweep covers every Table I workload exactly once, all fresh."""
    assert sweep_result.n_scenarios == len(WORKLOADS)
    assert sweep_result.n_compiled == len(WORKLOADS)
    assert sweep_result.n_cached == 0


def test_bench_trace_extraction(benchmark):
    """Throughput of the toolchain's first stage (trace extraction)."""
    from repro.workloads import build_workload

    wl = build_workload("nvsa")
    trace = benchmark(wl.build_trace)
    assert len(trace) > 100
