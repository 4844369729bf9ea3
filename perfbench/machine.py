"""Print the machine a benchmark figure was measured on, as JSON.

    python3 perfbench/machine.py > perfbench/MACHINE.json

Records the CPU model and count, cache sizes, the Python, NumPy, SciPy
and BLAS versions, the thread caps run.py applies and the git commit of
the checkout, when it is a git repository.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_VARS, cap_threads  # noqa: E402


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list:
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            out.append({
                "level": int((index / "level").read_text()),
                "type": (index / "type").read_text().strip(),
                "size": (index / "size").read_text().strip(),
                "shared_with_cpus": (index / "shared_cpu_list").read_text().strip(),
            })
        except OSError:
            continue
    return out


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return {}
    deps = config.get("Build Dependencies", {})
    return {key: {k: deps[key].get(k) for k in ("name", "version")}
            for key in ("blas", "lapack") if key in deps}


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main() -> None:
    cap_threads()
    import numpy
    import scipy

    record = {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
