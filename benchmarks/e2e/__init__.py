"""The repo's end-to-end benchmark: four workloads, gated metrics, per-layer attribution.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repo root is
the machine-readable contract (metric names, units, directions, bounds).
"""
