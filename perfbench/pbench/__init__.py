"""Paper-workload benchmark for the ``repro`` package.

The entry point is ``perfbench/run.py``; see ``perfbench/README.md`` for the
workloads, the metrics and how to read them.
"""
