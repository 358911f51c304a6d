"""The repository benchmark: four workloads over the public API of ``repro``.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
