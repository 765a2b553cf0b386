"""One workload set-up in a fresh process; run.py times it from outside.

    python3 perfbench/setup_probe.py WORK_DIR
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workloads.setup(Path(sys.argv[1]))
