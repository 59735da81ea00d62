"""Child processes timed from outside, summary statistics and machine facts."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

TAIL_MIN_BEYOND = 10     # samples that must lie beyond the reported tail


@dataclass
class Proc:
    wall_s: float          # spawn to reaped exit, measured by this process
    cpu_s: float           # user + sys of this child only (os.wait4)
    maxrss_mb: float
    exit_code: int
    timed_out: bool
    spawn_wall: float      # time.time() just before spawn


def run_child(argv, env, stdout_path, stderr_path, timeout_s) -> Proc:
    """Run argv to completion; rusage comes from os.wait4 on this child alone
    (RUSAGE_CHILDREN would accumulate over every child reaped so far)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawn_wall = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, killed.is_set(), spawn_wall)


def tail_rank(n: int) -> int:
    """1-based rank of the highest order statistic with at least ten samples
    beyond it.  With ten or fewer samples none qualifies; rank 1, the one with
    the most samples beyond it, keeps the rule continuous in n."""
    return max(1, n - TAIL_MIN_BEYOND)


def tail(values) -> tuple[float, int, int]:
    xs = sorted(values)
    r = tail_rank(len(xs))
    return xs[r - 1], r, len(xs)


def cpu_steal() -> tuple[int, int] | None:
    """(steal, total) CPU time of the host so far, in clock ticks, from
    /proc/stat; None where it cannot be read.  Steal is time this machine's
    virtual CPUs were ready to run but the hypervisor ran something else."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_facts(root: str, library: dict) -> dict:
    """Hardware and software the run measured on; `library` comes from a child."""
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": sys.version.split()[0],
        "numpy": library.get("numpy"),
        "scipy": library.get("scipy"),
        "nlsobolev": library.get("nlsobolev"),
        "git_commit": _git_commit(root),
    }
