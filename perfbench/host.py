"""Host readings that let host drift be told apart from a program change
(CPU counts, load, steal, the time of a fixed reference job that the
bounded figures are scaled by), plus the /proc-based peak-RSS probe and
process reaping (psutil is not available)."""

from __future__ import annotations

import os
import signal
import subprocess
import time
import zlib

import numpy as np


def nproc() -> int:
    """What coreutils `nproc` prints: it honours OMP_NUM_THREADS, so it can
    be smaller than the affinity mask."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _cpu_jiffies() -> list[int]:
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return [int(x) for x in fields[1:]]


# CPU time the reference job takes on an unloaded vCPU of the 4-vCPU VM the
# benchmark was tuned on (Firecracker, Python 3.11); host-scaled figures are
# stated at this speed
REFERENCE_NOMINAL_S = 0.020
_REF_RNG = np.random.default_rng(12345)
_REF_FLOATS = _REF_RNG.random(100_000)
_REF_BYTES = _REF_RNG.integers(0, 16, 200_000, dtype=np.uint8).tobytes()


def reference_job() -> int:
    """Fixed work of the kinds the workloads do: interpreted Python over
    dicts and lists, numpy sorts and scans, and native (zlib) byte
    crunching.  Program-independent, so its CPU time reads the host's
    speed."""
    d = {}
    for i in range(30_000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
    top = sorted(d.items(), key=lambda kv: kv[1])
    b = np.sort(_REF_FLOATS)
    np.searchsorted(b, _REF_FLOATS[:20_000])
    np.cumsum(_REF_FLOATS)
    z = zlib.decompress(zlib.compress(_REF_BYTES, 6))
    return len(top) + len(z)


def reference_s(cpus, wall: bool = False) -> float:
    """Mean CPU time of the reference job, run by the calling thread on each
    CPU of cpus in turn; with wall=True its mean wall time, which like any
    wall time includes what the hypervisor stole.  Only this thread moves
    (Ray's threads in the same process stay where they are) and it gets its
    CPU mask back after."""
    clock = time.perf_counter if wall else time.thread_time
    mask = os.sched_getaffinity(0)
    times = []
    for c in cpus:
        os.sched_setaffinity(0, {c})
        t0 = clock()
        reference_job()
        times.append(clock() - t0)
    os.sched_setaffinity(0, mask)
    return sum(times) / len(times)


class HostProbe:
    """Start/end readings of one run."""

    def __init__(self, num_cpus: int):
        self.info = {
            "num_cpus": num_cpus,
            "nproc": nproc(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "loadavg_start": os.getloadavg()[0],
            "reference_before_s": reference_s(sorted(os.sched_getaffinity(0))),
        }
        self._j0 = _cpu_jiffies()

    def finish(self) -> dict:
        j1 = _cpu_jiffies()
        delta = [b - a for a, b in zip(self._j0, j1)]
        total = sum(delta[:8])  # user..steal; guest time is already in user
        steal = delta[7] if len(delta) > 7 else 0
        self.info["steal_share"] = steal / total if total > 0 else 0.0
        self.info["reference_after_s"] = reference_s(sorted(os.sched_getaffinity(0)))
        return self.info


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _pids() -> list[int]:
    return [int(d) for d in os.listdir("/proc") if d.isdigit()]


def descendants(root_pid: int) -> list[tuple[int, int]]:
    """(pid, start time) of every live process below root_pid in the parent
    tree; the start time tells a later pid reuse apart."""
    children: dict[int, list[int]] = {}
    for p in _pids():
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(p)
    out, todo = [], [root_pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append((c, _start_time(c)))
            todo.append(c)
    return out


def _start_time(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[19])
    except (OSError, IndexError, ValueError):
        return -1


def pin(pids, cpus) -> None:
    """Restrict every thread of every process in pids to the CPU set."""
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:  # the thread ended meanwhile
                pass


def ray_worker_pids(procs) -> list[int]:
    """The Ray worker processes among procs (workers retitle themselves
    "ray::<task>")."""
    return [p for p, _ in procs
            if (c := _cmdline(p)).startswith("ray::") or "default_worker.py" in c]


def cpu_seconds(pids) -> float:
    """User plus system CPU time of every thread of the processes in pids.
    Under a paravirtualised clock, time the hypervisor stole from a vCPU is
    not charged to the task running on it."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            pass
    return ticks / os.sysconf("SC_CLK_TCK")


def own_peak_rss_mb() -> float:
    return _status_kb(os.getpid(), "VmHWM") / 1024.0


def workers_peak_rss_mb(procs) -> float:
    """Sum of the peak RSS (VmHWM) of the Ray worker processes among procs."""
    return sum(_status_kb(p, "VmHWM") for p in ray_worker_pids(procs)) / 1024.0


def reap(procs, marker: str, timeout_s: float = 30.0) -> None:
    """Wait until every process in procs (pid, start time), and every
    process whose command line names `marker` (the session's temp dir), has
    ended; kill what is still running after ray.shutdown()."""
    me = os.getpid()
    left = {p for p, start in procs if _start_time(p) == start}
    left |= {p for p in _pids() if p != me and marker in _cmdline(p)}
    left = [p for p in left if _is_running(p)]
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    alive = left
    while time.monotonic() < deadline:
        for p in alive:
            try:
                os.waitpid(p, os.WNOHANG)  # reap our own children's zombies
            except ChildProcessError:
                pass
        alive = [p for p in alive if _is_running(p)]
        if not alive:
            return
        time.sleep(0.05)
    raise RuntimeError(f"processes {alive} did not exit within {timeout_s}s")


def wait_children(timeout_s: float = 30.0) -> None:
    """Collect every child of this process.  As a child subreaper it
    inherits what its children leave behind (Ray processes, multiprocessing
    helpers); reap() has made those end, and collecting them keeps them
    from lingering as zombies.  A child still running at the deadline is
    killed."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for p, _ in descendants(os.getpid()):
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def _is_running(pid: int) -> bool:
    """False for a gone or zombie process."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False
