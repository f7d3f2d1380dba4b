"""Time one cold set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints the seconds from before `import tpspp` (numpy included) to the end
of the workload's set-up: the weight load where the workload uses one, and
one warm-up request per distinct output lattice. The files the workload
reads must already be in <workdir>.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (imports numpy and tpspp; part of what is timed)

workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
workload.setup()
print(time.perf_counter() - start)
