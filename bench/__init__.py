"""Benchmark of fracint: closed-loop workloads, independent references and layer tracing."""
