"""CPU time and peak memory of a process tree, read from /proc.

The Ray session's processes (GCS, raylet, task and actor workers) all
descend from the driver process, so the tree rooted at the driver is the
session. Dead descendants that were reaped are counted through their
parent's ``cutime``/``cstime``; live ones through their own counters, so a
worker that exits between two reads moves from one term to the other and
is counted once.
"""

from __future__ import annotations

import gc
import os
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # exited while we listed /proc
        return None
    # comm may hold spaces or parentheses; fields resume after the last ')'
    return raw[raw.rindex(")") + 2 :].split()


def _all_stats() -> dict[int, list[str]]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(name)
            if fields is not None:
                out[int(name)] = fields
    return out


def group(pgid: int) -> list[int]:
    """Live (non-zombie) members of a process group."""
    return [
        pid for pid, f in _all_stats().items() if int(f[2]) == pgid and f[0] != "Z"
    ]


def tree(root: int) -> list[tuple[int, list[str]]]:
    """(pid, stat fields from 'state' on) for ``root`` and its descendants."""
    stats = _all_stats()
    children: dict[int, list[int]] = {}
    for pid, fields in stats.items():
        children.setdefault(int(fields[1]), []).append(pid)
    out = []
    todo = [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            out.append((pid, stats[pid]))
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s(root: int) -> float:
    """user+sys CPU seconds of the tree, reaped children included."""
    ticks = 0
    for _pid, f in tree(root):
        # fields from 'state': utime=11, stime=12, cutime=13, cstime=14
        ticks += int(f[11]) + int(f[12]) + int(f[13]) + int(f[14])
    return ticks / _TICK


def _hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None  # exited, or a zombie without memory


class PeakSampler:
    """Samples VmHWM over the tree in a background thread while in use.
    ``total_mb`` sums each process's last seen VmHWM, so a worker that
    lived only during the sampled interval still counts."""

    def __init__(self, root: int, interval_s: float = 0.5):
        self.root = root
        self.interval_s = interval_s
        self.hwm_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        for pid, _f in tree(self.root):
            kb = _hwm_kb(pid)
            if kb is not None:
                self.hwm_kb[pid] = max(kb, self.hwm_kb.get(pid, 0))

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    def total_mb(self) -> float:
        return sum(self.hwm_kb.values()) / 1024.0


def settle(root: int, n_procs: int, timeout_s: float = 5.0) -> None:
    """Wait until the tree is back to ``n_procs`` processes, so workers a
    call left behind stop before the next call is measured."""
    gc.collect()  # a cycle holding actor handles would keep actors alive
    t_end = time.monotonic() + timeout_s
    while len(tree(root)) > n_procs and time.monotonic() < t_end:
        time.sleep(0.05)
