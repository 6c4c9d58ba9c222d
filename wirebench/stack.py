"""Launch, measure and stop the served stack process (``served.py``)."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class StackError(RuntimeError):
    """The served stack did not start, or its processes would not stop."""


def _group_pids(pgid: int) -> List[int]:
    """Live processes in process group ``pgid`` (the server and its children)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2 :].split()
        # fields: state, ppid, pgrp, ...; zombies have exited already.
        if int(fields[2]) == pgid and fields[0] != b"Z":
            pids.append(int(entry))
    return pids


def _pss_kib(pid: int) -> int:
    """Proportional set size of ``pid``: shared pages split among their users."""
    for name, field in (("smaps_rollup", b"Pss:"), ("status", b"VmRSS:")):
        try:
            with open(f"/proc/{pid}/{name}", "rb") as handle:
                for line in handle:
                    if line.startswith(field):
                        return int(line.split()[1])
        except OSError:
            continue
    return 0


class ServerProcess:
    """One fresh served-stack process in its own process group.

    Args:
        scratch: Directory inside the checkout for the process's temporary
            files (``TMPDIR``) and its store, ``store-<tag>``.
        replicas: ``ReplicaPool`` size, or 0 for a single ``MembershipService``.
    """

    def __init__(self, scratch: Path, replicas: int, tag: str) -> None:
        command = [
            sys.executable, str(HERE / "served.py"),
            "--replicas", str(replicas), "--store", str(scratch / f"store-{tag}"),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(scratch))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=env,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline().split() if ready else []
            if len(line) != 3 or line[0] != b"READY":
                raise StackError(f"served stack did not start (got {line!r})")
        except BaseException:
            self.stop()
            raise
        self.tcp_port = int(line[1])
        self.http_port = int(line[2])

    def pss_mb(self) -> float:
        """Memory of every process in the group, shared pages counted once."""
        return sum(_pss_kib(pid) for pid in _group_pids(self.proc.pid)) * 1024 / 1e6

    def stop(self) -> None:
        """Close the server's stdin, then wait until its whole group has exited."""
        pgid = self.proc.pid
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        killed = False
        while _group_pids(pgid):
            if time.monotonic() > deadline:
                if killed:
                    raise StackError(f"processes of group {pgid} outlived SIGKILL")
                try:
                    os.killpg(pgid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                killed = True
                deadline = time.monotonic() + STOP_TIMEOUT_S
            time.sleep(0.02)
