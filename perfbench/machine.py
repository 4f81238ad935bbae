"""Describe the machine a trajectory point was measured on.

    python3 perfbench/machine.py > perfbench/trajectory/<label>/machine.json

Every run records describe(system_files=False), which reads nothing outside
the checkout. Run as a script, it adds the CPU model from /proc/cpuinfo and
the cache sizes from /sys/devices/system/cpu/cpu0/cache.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def describe(system_files: bool = True) -> dict:
    """Cores, versions and BLAS build; CPU model and caches if system_files."""
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    out = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
    }
    if system_files:
        out["cpu_model"] = cpu_model()
        out["caches"] = caches()
    return out


if __name__ == "__main__":
    print(json.dumps(describe(), indent=1))
