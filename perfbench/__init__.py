"""Benchmark of the magnonsteer package; run it with ``python3 perfbench/run.py``."""
