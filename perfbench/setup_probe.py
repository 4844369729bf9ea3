"""Time a fresh interpreter's set-up: importing torusflow and building
one workload's inputs.  Started by run.py, once per set-up sample:

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the raw seconds and, measured right after on the same CPU, the
slowdown of the calibration slice (see calibrate.py).
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import torusflow  # noqa: F401
    import torusflow.cli  # noqa: F401
    import workloads

    workloads.make_inputs(workload, seed)
    took = time.perf_counter() - start

    import calibrate

    print(took, calibrate.burst_slowdown())


if __name__ == "__main__":
    main()
