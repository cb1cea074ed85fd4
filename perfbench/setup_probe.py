"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Times the import of algebroidlab plus the generation (and, for cli_mix,
the writing) of the workload's seeded inputs, and prints the CPU seconds
this takes.  run.py calls it several times and reports the median as
`setup_s`.
"""

import sys
import time

t0 = time.process_time()

import os                                      # noqa: E402
import shutil                                  # noqa: E402
from pathlib import Path                       # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS                # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
workdir = ROOT / ".perfbench_work" / f"setup-{workload}-{os.getpid()}"
try:
    WORKLOADS[workload](seed, workdir).prepare()
    seconds = time.process_time() - t0
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(seconds)
