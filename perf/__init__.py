"""End-to-end + per-layer benchmark of the AlvisP2P reproduction.

Driven strictly from outside the program: facade calls on
``AlvisNetwork``, its read-only counters, and (in a separate traced run)
class-level wrappers around each layer's public entry points.  See
``perf/README.md`` for the metric glossary and how to run, trace and
compare; ``BENCHMARK.json`` at the repository root declares every
workload and metric by name.
"""
