"""Table III — design configuration and FPGA deployment.

For NVSA, MIMONet and LVRF: the DSE-generated AdArray geometry, default
partition, SIMD width, memory plan, and AMD U250 utilization at 272 MHz.

Paper rows for comparison: NVSA (32,16,16) 14:2, SIMD 64, MemA1 2.7 MB,
89 % DSP / 56 % LUT / 60 % FF / 34 % BRAM / 24 % LUTRAM; MIMONet
(32,32,8) 6:2, 89 % DSP / 44 % LUT; LVRF (32,16,16) 14:2. Our DSE may
pick a different geometry in the same family (its analytical optimum);
EXPERIMENTS.md records the deltas.

Since PR 2 the three deployments run as one scenario sweep
(``repro.flow.sweep``) against a per-session artifact store: the second
benchmark session in the same store would be all cache hits.
"""

from __future__ import annotations

import pytest

from repro import NSFlow, build_workload
from repro.arch.resources import U250
from repro.flow import ArtifactStore, ScenarioGrid, format_table, run_sweep
from repro.utils import MB

from conftest import emit, once

WORKLOADS = ("nvsa", "mimonet", "lvrf")


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("table3-cache"))
    grid = ScenarioGrid(workloads=WORKLOADS, devices=("u250",),
                        precisions=("MP",))
    result = run_sweep(grid, store=store)
    assert result.n_errors == 0, [o.error for o in result.outcomes]
    return result


@pytest.fixture(scope="module")
def designs(sweep_result):
    """Per-workload (config, resources) pairs from the sweep artifacts."""
    return {
        o.spec.workload: o.artifacts for o in sweep_result.ok_outcomes()
    }


def test_table3_deployment(benchmark, designs):
    rows = []
    for name, art in designs.items():
        c = art.config
        r = art.resources
        mem = c.memory
        rows.append(
            [
                name.upper(),
                f"{c.precision.neural.value.upper()}/{c.precision.symbolic.value.upper()}",
                str(c.geometry),
                c.default_partition,
                c.simd_width,
                f"{mem.mem_a1_bytes / MB:.2f}/{mem.mem_a2_bytes / MB:.2f}",
                f"{mem.mem_b_bytes / MB:.2f}",
                f"{mem.mem_c_bytes / MB:.2f}",
                f"{mem.cache_bytes / MB:.1f}",
                f"{r.dsp_pct:.0f}%",
                f"{r.lut_pct:.0f}%",
                f"{r.ff_pct:.0f}%",
                f"{r.bram_pct:.0f}%",
                f"{r.uram_pct:.0f}%",
                f"{r.lutram_pct:.0f}%",
                f"{r.clock_mhz:.0f}MHz",
            ]
        )
    text = format_table(
        ["Workload", "Precision", "(H,W,N)", "Nl:Nv", "SIMD",
         "MemA1/A2 MB", "MemB MB", "MemC MB", "Cache MB",
         "DSP", "LUT", "FF", "BRAM", "URAM", "LUTRAM", "Clock"],
        rows,
        title="Table III (reproduced): design configuration and U250 deployment",
    )
    once(benchmark, lambda: text)
    emit("table3_deployment", text)

    for art in designs.values():
        c, r = art.config, art.resources
        # 8192-PE instantiations at the paper's utilization bands.
        assert c.total_pes == 8192
        assert r.fits()
        assert 80 <= r.dsp_pct <= 99
        assert 40 <= r.lut_pct <= 70
        assert r.clock_mhz == 272.0


def test_nn_heavy_default_partitions(benchmark, designs):
    """Every deployment reserves most sub-arrays for the NN side (the
    paper's 14:2 / 6:2 pattern)."""
    once(benchmark, lambda: None)
    for art in designs.values():
        c = art.config
        assert c.nl_bar > c.nv_bar


def test_warm_sweep_is_all_cache_hits(benchmark, tmp_path_factory):
    """Re-sweeping the identical grid against the same store is pure cache.

    This is the PR-2 contract: zero fresh DSE evaluations on a warm
    artifact cache, verified by the sweep's own counters.
    """
    once(benchmark, lambda: None)
    store = ArtifactStore(tmp_path_factory.mktemp("table3-warm"))
    grid = ScenarioGrid(workloads=WORKLOADS, devices=("u250",),
                        precisions=("MP",))
    cold = run_sweep(grid, store=store)
    warm = run_sweep(grid, store=store)
    assert cold.n_compiled == len(WORKLOADS)
    assert warm.n_cached == len(WORKLOADS)
    assert warm.n_compiled == 0
    assert warm.total_evaluations == 0
    assert "phase1.sweep" not in warm.stage_timings
    # Warm artifacts are value-identical to the cold compilation.
    for c_out, w_out in zip(cold.ok_outcomes(), warm.ok_outcomes()):
        assert c_out.artifacts.config == w_out.artifacts.config
        assert c_out.artifacts.latency_ms == w_out.artifacts.latency_ms


def test_bench_full_dse(benchmark):
    """End-to-end frontend cost: trace -> graph -> two-phase DSE."""
    nsf = NSFlow(device=U250)
    wl = build_workload("mimonet")
    design = benchmark(nsf.compile, wl)
    assert design.resources.fits()
