"""Seeded end-to-end and per-layer benchmark for streampart.

Run from the repository root: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``. See ``perfbench/harness.py``.
"""
