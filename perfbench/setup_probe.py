"""The benchmark's set-up work in a fresh interpreter; the caller times it.

Usage: python3 setup_probe.py <workload> <seed> <work dir>
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports obslab, which must come from ROOT/src)

if __name__ == "__main__":
    name, seed, work_dir = sys.argv[1:]
    workloads.prepare(workloads.WORKLOADS[name], int(seed), work_dir)
