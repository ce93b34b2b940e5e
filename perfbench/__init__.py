"""The repository benchmark: three seeded workloads replayed through
``SimulationRunner`` and measured from outside the program.

Run ``python3 perfbench/run.py --workload all --seed 1`` from the
repository root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
