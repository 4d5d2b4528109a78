"""perfbench — the repo's two-clock performance ledger.

Six mdtest-shaped workloads against the simulated DUFS deployment, measured
from outside ``src/repro`` on both clocks: the *simulated* clock (ops/s and
latency of the modelled system) and the *host* clock (what the Python
simulator costs to run). See ``perfbench/README.md``.
"""
