"""The repository benchmark: four workloads, property checks, a traced run.

Run it from the repository root::

    python3 perfbench/run.py --workload golden-replay --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and checks.
"""
