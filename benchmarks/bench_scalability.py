"""Sec. VI scalability claim — "only 4× runtime increase when symbolic
workloads scale by 150×".

Starting from an NVSA-like workload whose symbolic half is small, the
symbolic op count is scaled ×1 … ×150 while the NN half stays fixed; the
full NSFlow flow re-explores the design each time. The fused-loop
steady-state means symbolic growth hides behind NN time until it
dominates, so runtime grows far sub-linearly.

Exploration goes through the batched :class:`~repro.dse.engine.DseEngine`.
"""

from __future__ import annotations

import pytest

from repro.dse import DseEngine
from repro.flow import format_table
from repro.graph import build_dataflow_graph
from repro.workloads.scaling import ScalableConfig, ScalableNsaiWorkload

from conftest import emit, once

SCALES = (1, 10, 50, 100, 150)
#: Base symbolic share: small, as in the paper's starting point.
BASE_RATIO = 0.01
CLOCK_KHZ = 272e3


@pytest.fixture(scope="module")
def scalability_series():
    series = []
    for scale in SCALES:
        wl = ScalableNsaiWorkload(
            ScalableConfig(
                symbolic_ratio=BASE_RATIO, symbolic_scale=float(scale),
                batch_panels=16,
            )
        )
        graph = build_dataflow_graph(wl.build_trace())
        report = DseEngine(max_pes=8192).explore(graph)
        series.append((scale, report.config.estimated_cycles / CLOCK_KHZ))
    return series


def test_scalability_claim(benchmark, scalability_series):
    base = scalability_series[0][1]
    rows = [
        [f"{scale}x", f"{ms:8.2f}", f"{ms / base:5.2f}x"]
        for scale, ms in scalability_series
    ]
    text = format_table(
        ["Symbolic scale", "NSFlow runtime (ms)", "Runtime increase"],
        rows,
        title="Sec. VI claim (reproduced): runtime growth under 150x symbolic scaling",
    )
    once(benchmark, lambda: text)
    emit("scalability_150x", text)

    final = scalability_series[-1][1]
    # Paper: ~4x runtime increase at 150x symbolic scale. Accept 2-8x —
    # far sub-linear either way.
    assert 2.0 < final / base < 8.0

    # Monotone growth.
    runtimes = [ms for _, ms in scalability_series]
    assert runtimes == sorted(runtimes)


def test_bench_trace_scaling(benchmark):
    wl = ScalableNsaiWorkload(
        ScalableConfig(symbolic_ratio=BASE_RATIO, symbolic_scale=150.0,
                       batch_panels=16)
    )
    trace = benchmark(wl.build_trace)
    assert len(trace) > 100
