"""Fig. 6 — ablation study: scalability vs symbolic data proportion.

Runtime (ms @ 272 MHz) of an NVSA-like workload (ResNet-18 + scaled
vector-symbolic half) at symbolic memory shares 0-80 %, under three
configurations:

* **NSFlow** — full framework (two-phase DSE, mode selection);
* **w/o Phase II** — Phase I static partition, forced parallel;
* **w/o Phase I (128×64)** — one monolithic traditional systolic array
  (no folding, no VSA streaming: circulant-GEMM lowering).

Paper series: NSFlow 7.83→74.2 ms, w/o Phase II 7.83→80.4 ms, w/o Phase I
7.83→537.7 ms across 0→80 %; speedup over the traditional array grows to
>7× at 80 %, and the Phase II gain peaks when NN and symbolic are balanced.
"""

from __future__ import annotations

import pytest

from repro.dse import DseEngine
from repro.dse.phase1 import extract_cost_dims
from repro.flow import format_table
from repro.graph import build_dataflow_graph
from repro.model.runtime import monolithic_baseline_runtime
from repro.workloads.scaling import ScalableConfig, ScalableNsaiWorkload

from conftest import emit, once

RATIOS = (0.0, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80)
CLOCK_KHZ = 272e3


@pytest.fixture(scope="module")
def ablation_series():
    series = []
    for ratio in RATIOS:
        wl = ScalableNsaiWorkload(
            ScalableConfig(symbolic_ratio=ratio, batch_panels=16)
        )
        graph = build_dataflow_graph(wl.build_trace())
        report = DseEngine(max_pes=8192).explore(graph)
        layers, vsa = extract_cost_dims(graph)
        full_ms = report.config.estimated_cycles / CLOCK_KHZ
        static_ms = report.phase1.t_parallel / CLOCK_KHZ
        mono_ms = monolithic_baseline_runtime(128, 64, layers, vsa) / CLOCK_KHZ
        series.append((ratio, full_ms, static_ms, mono_ms))
    return series


def test_fig6_ablation(benchmark, ablation_series):
    rows = []
    for ratio, full_ms, static_ms, mono_ms in ablation_series:
        gain = (static_ms - full_ms) / static_ms if static_ms else 0.0
        rows.append(
            [
                f"{100 * ratio:.0f}%",
                f"{full_ms:8.2f}",
                f"{static_ms:8.2f}",
                f"{mono_ms:8.2f}",
                f"{mono_ms / full_ms:5.2f}x",
                f"{100 * gain:5.1f}%",
            ]
        )
    text = format_table(
        ["Symb mem %", "NSFlow (ms)", "w/o Phase II (ms)",
         "w/o Phase I 128x64 (ms)", "Speedup vs trad. SA", "Phase II gain"],
        rows,
        title="Fig. 6 (reproduced): runtime vs symbolic data proportion @272 MHz",
    )
    once(benchmark, lambda: text)
    emit("fig6_ablation", text)

    full = [f for _, f, _, _ in ablation_series]
    mono = [m for _, _, _, m in ablation_series]

    # Both series grow monotonically with symbolic share.
    assert full == sorted(full)
    assert mono == sorted(mono)
    # At 0% symbolic the monolithic array is close to NSFlow (paper: both
    # 7.83 ms). Our Eq. 1 charges the 128-row array its longer fill/drain
    # per tile wave, so it lands ~25% above — see EXPERIMENTS.md.
    assert mono[0] == pytest.approx(full[0], rel=0.35)
    # NSFlow's advantage over the traditional array grows with symbolic
    # share, exceeding ~7x at 80% (paper: 7.2x).
    speedups = [m / f for f, m in zip(full, mono)]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 5.0
    # NSFlow runtime grows far slower than symbolic share: 80% symbolic
    # costs < 10x the 0% runtime (paper: 9.5x).
    assert full[-1] / full[0] < 10.0


def test_fig6_phase2_never_hurts(benchmark, ablation_series):
    once(benchmark, lambda: None)
    for _, full_ms, static_ms, _ in ablation_series:
        assert full_ms <= static_ms + 1e-9


def test_bench_dse_at_balanced_ratio(benchmark):
    wl = ScalableNsaiWorkload(ScalableConfig(symbolic_ratio=0.2, batch_panels=16))
    graph = build_dataflow_graph(wl.build_trace())
    dse = DseEngine(max_pes=8192)
    report = benchmark(dse.explore, graph)
    assert report.config.estimated_cycles > 0
