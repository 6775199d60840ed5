"""Benchmark harness for the ``repro`` package (see ``perfbench/README.md``)."""
