"""Table II — design-space size, the two-phase reduction, and the
parallel engine's wall-clock scaling.

Paper row (m = 10, maximum 2^m PEs... the deployment scale uses 8192 PEs):
original space ≈ 10^300, DAG-explored space ≈ 10^3, i.e. the search space
shrinks "by 100 magnitudes".

The engine benches time the same pruned sweep through
:class:`repro.dse.engine.DseEngine` at ``jobs = 1`` vs ``jobs = 4`` (cold
model caches each run, workers included). On a ≥4-core machine the
process-pool sweep is expected to show ≥2× wall-clock speedup; on smaller
machines the table is still emitted but the assertion is skipped.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.dse.engine import DseEngine
from repro.flow import format_table, pareto_frontier_table
from repro.graph import build_dataflow_graph
from repro.model.cache import clear_model_caches
from repro.model.designspace import design_space_size
from repro.workloads import build_workload

from conftest import emit, once

#: The speedup bench's design space: a 2^15-PE budget over the widest
#: pruned geometry range — larger than the Table II sweep so per-chunk
#: work dominates pool startup (~0.8 s serial on one 2026 laptop core).
SPEEDUP_MAX_PES = 32768
SPEEDUP_RANGE = (4, 512)
SPEEDUP_JOBS = 4


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


def _timed_sweep(graph, jobs: int) -> float:
    """Wall-clock of one cold engine sweep (workers start cold too)."""
    clear_model_caches()
    engine = DseEngine(
        max_pes=SPEEDUP_MAX_PES, range_h=SPEEDUP_RANGE,
        range_w=SPEEDUP_RANGE, jobs=jobs,
    )
    t0 = time.perf_counter()
    engine.evaluate(graph)
    return time.perf_counter() - t0


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_engine_parallel_speedup(graphs):
    """ISSUE acceptance: >= 2x wall-clock at --jobs 4 on the default space.

    The assertion needs 4 *physical* cores' worth of parallelism;
    ``os.cpu_count`` counts SMT threads, so the gate requires
    ``2 × SPEEDUP_JOBS`` schedulable CPUs before asserting. The
    measurement table is emitted regardless, so smaller CI machines
    still record the numbers.
    """
    graph = graphs["nvsa"]
    results = []
    for jobs in (1, SPEEDUP_JOBS):
        best = min(_timed_sweep(graph, jobs) for _ in range(2))
        results.append((jobs, best))
    serial = results[0][1]
    rows = [
        [jobs, f"{secs * 1e3:9.1f}", f"{serial / secs:5.2f}x"]
        for jobs, secs in results
    ]
    cpus = _usable_cpus()
    text = format_table(
        ["Jobs", "Sweep (ms)", "Speedup"],
        rows,
        title=f"DSE engine sweep wall-clock (max_pes={SPEEDUP_MAX_PES}, "
              f"{cpus} schedulable CPUs)",
    )
    emit("table2_engine_speedup", text)

    speedup = serial / results[-1][1]
    if cpus >= 2 * SPEEDUP_JOBS:
        assert speedup >= 2.0, f"jobs={SPEEDUP_JOBS} speedup {speedup:.2f}x < 2x"
    else:
        pytest.skip(
            f"need >= {2 * SPEEDUP_JOBS} schedulable CPUs to assert the "
            f"speedup (have {cpus}); measured {speedup:.2f}x"
        )
