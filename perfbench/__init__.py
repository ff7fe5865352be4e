"""Benchmark for the statesynth compiler; run it with ``python3 perfbench/run.py``."""
