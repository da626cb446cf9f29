"""Processes and calibration: the cache-server children, the echo child,
CPU pinning and accounting, and the work-unit probe."""

from __future__ import annotations

import asyncio
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from harness import work_unit

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ECHO_SCRIPT = Path(__file__).resolve().with_name("echo_server.py")

#: exchanges timed per calibration (their mean is the work unit), and the
#: message each bounces off the echo child
UNIT_EXCHANGES = 150
UNIT_MESSAGE = b"u" * 32

#: expected keys per server digest; the frontend must be given the same
#: geometry (``optimal_config(EXPECTED_KEYS)``)
EXPECTED_KEYS = 100_000

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Cores(NamedTuple):
    measuring: int              #: the one core everything measured runs on
    allowed: FrozenSet[int]     #: every core this process may use


def pin_client() -> Cores:
    """Pin this process to the measuring core, for good.

    Client and servers share one core, not one each: on the shared
    two-core VM this benchmark was built on, waking the *other* virtual
    CPU took anywhere from 50 us to 5 ms depending on the host's mood, and
    every two-core figure swung with it (see README.md).  On one core a
    page costs what its instructions cost, which is the thing an
    optimisation changes.
    """
    allowed = frozenset(os.sched_getaffinity(0))
    core = min(allowed)
    os.sched_setaffinity(0, {core})
    return Cores(core, allowed)


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of *pid* from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as stat:
        fields = stat.read().rsplit(b") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


class Children:
    """Cache servers (``repro.net.server``) and the echo server, each its
    own process.  All are started before any is waited for and may import
    on any core; once listening they are pinned to the measuring core."""

    def __init__(
        self, servers: int, capacity_mb: Optional[float], cores: Cores
    ) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        server = [
            sys.executable, "-c", "from repro.net.server import main; main()",
            "--expected-keys", str(EXPECTED_KEYS),
        ]
        if capacity_mb is not None:
            server += ["--capacity-mb", str(capacity_mb)]
        commands = [server] * servers + [[sys.executable, str(ECHO_SCRIPT)]]
        self._procs: List[subprocess.Popen] = []
        try:
            for command in commands:
                proc = subprocess.Popen(
                    command, stdout=subprocess.PIPE, env=env, text=True
                )
                self._procs.append(proc)
                os.sched_setaffinity(proc.pid, cores.allowed)
            ports = [self._read_port(proc) for proc in self._procs]
            for proc in self._procs:
                os.sched_setaffinity(proc.pid, {cores.measuring})
        except BaseException:
            self.stop()
            raise
        self.endpoints: List[Tuple[str, int]] = [
            ("127.0.0.1", port) for port in ports[:servers]
        ]
        self.echo_port = ports[servers]
        self._server_pids = [proc.pid for proc in self._procs[:servers]]

    @staticmethod
    def _read_port(proc: subprocess.Popen) -> int:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        if not line.startswith("LISTENING "):
            raise RuntimeError(f"child did not start: {line!r}")
        return int(line.split()[1])

    def cpu_seconds(self) -> float:
        """CPU seconds the cache servers have used so far."""
        return sum(process_cpu_seconds(pid) for pid in self._server_pids)

    def stop(self) -> None:
        """Terminate every child and wait until each has ended."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self._procs = []


class UnitProbe(asyncio.Protocol):
    """Measures the work unit: the seconds this machine needs, right now,
    for one *exchange* — a round trip to the echo child (through the
    kernel, into another process on the same core, and back) followed by
    one :func:`harness.work_unit` of plain Python.

    The exchange is a page fetch with the program taken out: the same mix
    of system calls, context switches and interpreter work, run as cold as
    the program's own code runs between two replies.  The work timed alone
    in a tight loop stays in the innermost cache, feels none of the
    machine's memory contention, and divides it out of nothing.
    """

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._reply: Optional[asyncio.Future] = None
        self._got = 0

    @classmethod
    async def connect(cls, port: int) -> "UnitProbe":
        _, probe = await asyncio.get_running_loop().create_connection(
            cls, "127.0.0.1", port
        )
        return probe

    def connection_made(self, transport) -> None:
        self._transport = transport
        transport.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )

    def data_received(self, data: bytes) -> None:
        self._got += len(data)
        if self._got >= len(UNIT_MESSAGE) and self._reply is not None:
            self._got = 0
            self._reply.set_result(None)

    async def measure(self, exchanges: int = UNIT_EXCHANGES) -> float:
        """Mean seconds per exchange over *exchanges* of them.  A mean, so
        that what the hypervisor steals from the exchanges counts the way
        it counts against the pages; the noise guard drops a measurement a
        single long stall has bent."""
        assert self._transport is not None
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        for _ in range(exchanges):
            self._reply = loop.create_future()
            self._transport.write(UNIT_MESSAGE)
            await self._reply
            work_unit()
        self._reply = None
        return (time.perf_counter() - started) / exchanges

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
