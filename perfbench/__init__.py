"""Seeded benchmark for molham: end-to-end workloads plus a traced per-layer run.

Run it through the launcher, which starts one fresh single-threaded process
per workload:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
"""
