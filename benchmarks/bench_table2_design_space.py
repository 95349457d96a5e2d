"""Table II — design-space size, the two-phase reduction, and the
engine's Phase I sweep and Pareto frontier.

Paper row (m = 10, maximum 2^m PEs... the deployment scale uses 8192 PEs):
original space ≈ 10^300, DAG-explored space ≈ 10^3, i.e. the search space
shrinks "by 100 magnitudes".

The engine benches time the pruned Phase I sweep through
:class:`repro.dse.engine.DseEngine` at the deployment budget and emit the
frontier it finds.
"""

from __future__ import annotations

import pytest

from repro.dse.engine import DseEngine
from repro.flow import format_table, pareto_frontier_table
from repro.graph import build_dataflow_graph
from repro.model.designspace import design_space_size
from repro.workloads import build_workload

from conftest import emit, once


@pytest.fixture(scope="module")
def graphs():
    return {
        name: build_dataflow_graph(build_workload(name).build_trace())
        for name in ("nvsa", "mimonet", "lvrf")
    }


def test_table2_design_space_reduction(benchmark, graphs):
    rows = []
    sizes = {}
    for name, graph in graphs.items():
        size = design_space_size(
            m=13,  # 8192-PE deployment budget
            n_layer_nodes=len(graph.layer_nodes),
            n_vsa_nodes=len(graph.vsa_nodes),
        )
        sizes[name] = size
        rows.append(
            [
                name.upper(),
                len(graph.layer_nodes),
                len(graph.vsa_nodes),
                f"10^{size.log10_original:.0f}",
                f"10^{size.log10_explored:.1f}",
                f"10^{size.log10_reduction:.0f}x",
            ]
        )
    text = format_table(
        ["Workload", "#layer nodes", "#VSA nodes",
         "Original space", "DSE-explored", "Reduction"],
        rows,
        title="Table II (reproduced): design-space sizes (max #PEs = 2^13)",
    )
    once(benchmark, lambda: text)
    emit("table2_design_space", text)

    # Paper claims ~10^300 original and a >= 100-magnitude reduction for
    # the NVSA-scale graph.
    nvsa = sizes["nvsa"]
    assert nvsa.log10_original > 250
    assert nvsa.log10_explored < 6
    assert nvsa.log10_reduction > 100


def test_bench_phase1_sweep(benchmark, graphs):
    """Phase I's pruned sweep is the DSE's dominant cost — measure it."""
    evals, _ = benchmark(DseEngine(max_pes=8192).evaluate, graphs["nvsa"])
    assert min(ev.t_parallel for ev in evals) > 0


def test_bench_pareto_frontier(benchmark, graphs):
    """The engine's frontier for the deployment-scale NVSA space."""
    engine = DseEngine(max_pes=8192)
    report = once(benchmark, lambda: engine.explore(graphs["nvsa"]))
    text = pareto_frontier_table(report.pareto)
    emit("table2_pareto_frontier", text)
    assert len(report.pareto) >= 1
    assert report.pareto.best_latency.cycles == report.phase1.best_cycles
