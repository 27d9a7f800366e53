"""Benchmark of graphperiod; see README.md in this directory."""
