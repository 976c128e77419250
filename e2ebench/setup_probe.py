"""Time one set-up in a fresh interpreter: import specsep and write the
workload's config. Prints the seconds taken.

    python3 e2ebench/setup_probe.py <workload> <seed> <out_dir>
"""

import sys
import time

t0 = time.perf_counter()

import os  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import specsep.cli  # noqa: E402,F401

from workloads import WORKLOADS, write_config  # noqa: E402

write_config(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - t0))
