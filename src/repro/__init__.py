"""Reproduction of StreamTune (Han et al., ICDE 2025): adaptive
parallelism tuning for stream processing systems, rebuilt from scratch —
the contribution (`repro.core`, `repro.graphs`) plus every substrate it
needs (`repro.sim`, `repro.baselines`, `repro.history`) — on PySpark +
numpy. See DESIGN.md and EXPERIMENTS.md."""
