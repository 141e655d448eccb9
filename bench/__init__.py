"""The repository benchmark: four end-to-end workloads and a traced
per-layer split. Run it with ``python3 bench/run.py``; see README.md."""
