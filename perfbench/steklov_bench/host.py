"""Host description and host-speed probe, recorded with every result.

The probe is a diagnostic only: it normalises no metric.  Timed at the
start and the end of each run, it shows whether a spread between runs
came from the host (the probe drifted too) or from the program.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from . import THREAD_VARS

_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads():
    """Thread count each bundled OpenBLAS reports, keyed by its owner."""
    found = {}
    for module in (np, scipy):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in _OPENBLAS_GETTERS:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[module.__name__] = getter()
                    break
    return found


def git_commit(root):
    """Commit of a git checkout at root, read from .git without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    return {
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
    }


def _python_loop():
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return total


def probe():
    """Seconds for a fixed pure-Python loop and a fixed matmul."""
    t0 = time.perf_counter()
    _python_loop()
    t1 = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((400, 400))
    for _ in range(10):
        a = a @ a
        a /= np.abs(a).max()
    t2 = time.perf_counter()
    return {"python_loop_s": t1 - t0, "matmul_s": t2 - t1}
