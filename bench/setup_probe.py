"""Prints the reference seconds (see hostspeed.py) this fresh interpreter
takes to import dombcheck and build one workload's inputs.
Usage: setup_probe.py WORKLOAD SEED"""

import sys
from time import perf_counter

from hostspeed import SAMPLER

SAMPLER.start()
t0 = perf_counter()
import workloads  # noqa: E402  (imports dombcheck)

workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
t1 = perf_counter()
SAMPLER.stop()
print(SAMPLER.ref_seconds(t0, t1))
