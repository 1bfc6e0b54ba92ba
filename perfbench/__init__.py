"""The repository benchmark: four scenario workloads, end-to-end metrics
and a traced per-layer ledger.  Run ``python3 perfbench/run.py --help``."""
