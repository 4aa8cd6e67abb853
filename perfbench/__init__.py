"""End-to-end and per-layer benchmark of the simulator, store and server.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``NOTES.md`` explains
the workloads, the metrics and how the traced run attributes time.
"""
