"""End-to-end benchmark of the NSFlow reproduction.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root. See
``perfbench/README.md`` for the workloads, the metrics and how each
per-layer number maps onto an end-to-end one.
"""
