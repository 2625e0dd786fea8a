"""The repository benchmark: four workloads against the public API.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; see ``perfbench/README.md``.
"""
