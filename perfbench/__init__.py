"""Benchmark harness for grammate: run `python3 perfbench/run.py --help`."""
