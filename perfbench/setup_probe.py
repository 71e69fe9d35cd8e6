"""Set-up as a CLI user pays it: a fresh interpreter imports ncquad and
ncquad.cli and generates one workload's inputs, then exits.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this whole process a few times and reports the median as setup_s.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ncquad  # noqa: E402,F401
import ncquad.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), HERE.parent)
