"""Benchmark of the avscene package: workloads, tracer and runner."""
