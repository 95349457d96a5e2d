#!/usr/bin/env python3
"""Inside the two-phase DSE: how the design changes with workload balance.

Sweeps the symbolic share of an NVSA-like workload and shows what
Algorithm 1 decides at each point: the geometry Phase I picks, the static
partition, Phase II's refinement gain, the parallel-vs-sequential mode
decision, and the speedup over a traditional monolithic systolic array —
the Fig. 6 story, interactively.

Usage:  python examples/design_space_exploration.py
"""

from repro.dse import DseEngine
from repro.dse.phase1 import extract_cost_dims
from repro.flow import format_table
from repro.graph import build_dataflow_graph
from repro.model.runtime import monolithic_baseline_runtime
from repro.workloads.scaling import ScalableConfig, ScalableNsaiWorkload

CLOCK_KHZ = 272e3


def main() -> None:
    rows = []
    for ratio in (0.0, 0.1, 0.2, 0.4, 0.6, 0.8):
        workload = ScalableNsaiWorkload(
            ScalableConfig(symbolic_ratio=ratio, batch_panels=16)
        )
        graph = build_dataflow_graph(workload.build_trace())
        report = DseEngine(max_pes=8192).explore(graph)
        layers, vsa = extract_cost_dims(graph)
        mono_ms = monolithic_baseline_runtime(128, 64, layers, vsa) / CLOCK_KHZ
        full_ms = report.config.estimated_cycles / CLOCK_KHZ
        rows.append(
            [
                f"{100 * ratio:.0f}%",
                str(report.config.geometry),
                report.config.default_partition,
                report.config.mode.value,
                f"{100 * report.phase2_gain:.1f}%",
                f"{full_ms:7.2f}",
                f"{mono_ms / full_ms:5.2f}x",
            ]
        )
    print(format_table(
        ["Symbolic share", "(H,W,N)", "Nl:Nv", "Mode",
         "Phase II gain", "NSFlow ms", "vs monolithic SA"],
        rows,
        title="Two-phase DSE decisions across workload balance (8192 PEs @ 272 MHz)",
    ))
    print(
        "\nReading the table: with little symbolic work the DSE keeps the\n"
        "whole array for the NN (sequential mode); as symbolic work grows\n"
        "it folds sub-arrays into circular-convolution streaming mode\n"
        "(parallel), and the advantage over a traditional systolic array\n"
        "grows toward the paper's >7x (Fig. 6)."
    )


if __name__ == "__main__":
    main()
