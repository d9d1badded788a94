"""The repository benchmark: four workloads, end-to-end and per-layer.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root.
``perfbench/README.md`` records why each workload exists, which layer
metric should move which end-to-end metric, and the noise rules.
"""
