"""Benchmark of afdm_isac; run it with ``python3 perfbench/run.py``."""
