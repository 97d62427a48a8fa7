"""Child processes of the benchmark, each measured on its own.

Peak RSS and CPU time come from os.wait4 on that one child: the
RUSAGE_CHILDREN totals are running maxima, so after one large op every later
reading would be masked.
"""

import os
import subprocess
import threading
import time
from dataclasses import dataclass

# Single-threaded BLAS baseline for every process the benchmark starts.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root):
    """Environment that imports `dssm` from the tree under test only."""
    env = dict(os.environ)
    env.pop("SSM_SEED", None)  # ops pass --seed explicitly; verify runs with its default
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mb: float
    cpu_s: float
    stderr: str


def run_child(cmd, env, stdout_path, stderr_path, timeout_s):
    """Run cmd to completion; a child past timeout_s is killed (code -9)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()[-400:]
    return Child(
        wall_s=wall,
        code=proc.returncode,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stderr=stderr,
    )
