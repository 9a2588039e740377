"""Clocks, process-tree accounting, order statistics, machine fingerprint.

Everything here observes from outside: ``/proc``, ``getrusage``, file sizes.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

now = time.perf_counter


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for a single sample)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(fraction * len(ordered)))])


# ----------------------------------------------------------------------
# process tree: the workload process plus its pool workers
# ----------------------------------------------------------------------
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` from the third on (``state`` is index 0).
    The command name may contain spaces and parentheses: fields resume after
    the last ')'.  None when the process exited while we were looking."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return None
    return stat[stat.rindex(")") + 2 :].split()


def live_descendants() -> dict[int, list[str]]:
    """pid -> stat fields of every live descendant of this process (pool
    workers are never reaped while a pool is up, so ``os.times().children_*``
    misses them)."""
    processes = {}
    for entry in sorted(os.listdir("/proc")):
        if entry.isdigit():
            fields = stat_fields(int(entry))
            if fields is not None:
                processes[int(entry)] = fields
    found, frontier = {}, [os.getpid()]
    while frontier:
        parent = frontier.pop()
        for pid, fields in processes.items():
            if int(fields[1]) == parent:  # ppid
                found[pid] = fields
                frontier.append(pid)
    return found


def tree_cpu_seconds() -> float:
    """User+sys CPU consumed so far by this process, its reaped children and
    its live descendants (``utime`` + ``stime`` of ``/proc/<pid>/stat``, which
    cover every thread of the process).  A worker that exits between two reads
    moves from the live term to the reaped term, so differences stay correct."""
    times = os.times()
    total = time.process_time() + times.children_user + times.children_system
    for fields in live_descendants().values():
        total += (int(fields[11]) + int(fields[12])) / CLOCK_TICKS  # utime, stime
    return total


def live_descendants_rss_mb() -> float:
    """Sum of the live descendants' peak resident sets (``VmHWM``)."""
    total_kb = 0
    for pid in live_descendants():
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def stop_descendants() -> None:
    """End every process this one started, and wait until each has ended.

    ``run.py`` registers this with ``atexit`` before anything else is
    imported, so it runs last: after ``concurrent.futures`` joined its pools
    and ``repro.utils.shm`` swept its segments.  What is still there then is
    the resource tracker ``multiprocessing`` starts beside the first
    shared-memory segment: it ends only when its pipe closes, that is after
    this process, and nobody waits for it — a process left running as far as
    whoever started the benchmark can tell.  Anything else still alive
    belongs to a run that failed half-way and is killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes the pipe and waits; no public spelling
    for pid in live_descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def directory_bytes(path: Path) -> int:
    total = 0
    for root, _dirs, files in sorted(os.walk(path)):
        for name in sorted(files):
            total += os.path.getsize(os.path.join(root, name))
    return total


# ----------------------------------------------------------------------
# fingerprint: results from different machines must not be compared
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def commit_of(repo_root: Path) -> str:
    """The checkout's commit, for the record: two results worth comparing
    usually come from two commits, so it is printed, never refused."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"
