"""Dataflow execution substrate: a steady-state simulator of Flink-like
and Timely-like stream engines with analytic operator costs (backpressure
physics, the 10 % and 85 % detection rules, noisy metrics, per-epoch
latency), the Nexmark/PQP workload catalogue and the periodic source-rate
pattern."""
