"""Benchmark for cyclebetti: four workloads, closed-form oracles, traced spans."""
