"""Peak resident memory of a child process, as the kernel counts it.

tracemalloc sees only the allocations numpy and Python report to it. A
hash set inside a numpy function, scipy's own buffers and the allocator's
placement of freed blocks are not among them, yet each raises what the
process holds. os.wait4 returns the child's ru_maxrss, which counts them.

At exec, Linux keeps the high-water RSS of the process that forked the
child in the child's ru_maxrss, so a child of the test process would read
at least the test process's own peak. The measured program is therefore
started from a small Python process, which waits for it with os.wait4 and
prints its peak.

glibc serves a large block from its own mapping, returned on free, until a
block that large is freed: then its dynamic mmap threshold rises to that
size, and later blocks below it come from the heap, whose freed pages the
process may keep. So once the median frees its 8 MB distance array, the
builder's later temporaries stay on the heap. RSS, not tracemalloc alone,
shows what that costs.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# runs its arguments as a command and prints the command's ru_maxrss in KB
_RUNNER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss)
sys.exit(proc.returncode)
"""


def child_peak_mb(*args: str) -> float:
    """Peak RSS in MB of `python *args`, such as `-m sepgcn.cli build-sep
    ...`, run with src on the path and one BLAS thread; a nonzero exit
    fails with the child's stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024.0


def peak_over_imports_mb(modules: str, *args: str) -> float:
    """child_peak_mb(*args), such as a stage of `-m sepgcn.cli`, less the
    peak of a child that only runs `import <modules>`: what the stage's work
    adds to the modules it loads."""
    return child_peak_mb(*args) - child_peak_mb("-c", f"import {modules}")
