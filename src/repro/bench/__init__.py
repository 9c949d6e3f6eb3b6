"""Performance regression harness (the ``repro-bench`` entry point).

Runs a fixed suite of benchmark scenarios over the library's hot paths,
writes a versioned ``BENCH_<sha>.json`` artifact, and compares it against
a checked-in baseline within a fixed tolerance — the gate CI fails on.
See :mod:`repro.bench.regression`.
"""
