"""The benchmark's child processes, and what ``/proc`` says about them.

CPU time and peak memory are read from outside -- ``/proc/<pid>/stat`` and
``/proc/<pid>/status`` of the server's whole process tree -- so the figure
includes helper processes and MP workers and needs nothing from the program.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

class BenchError(RuntimeError):
    """The run cannot produce a result (set-up failed, a child died)."""


def _stat_fields(pid: int) -> Optional[list]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    # The command name (field 2) may hold spaces and parentheses: split
    # after its closing parenthesis.  Field 3 is then index 0.
    return data[data.rindex(b")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, from the parent pids in /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(root: int) -> float:
    """Seconds of CPU used by every thread of ``root``'s process tree.

    Read from ``/proc/<pid>/task/<tid>/schedstat`` (on-CPU time, in
    nanoseconds): the same quantity as utime + stime of ``/proc/<pid>/stat``
    without its 10 ms tick, which a one-second slice cannot afford.
    """
    nanoseconds = 0
    for pid in process_tree(root):
        try:
            for thread in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{thread}/schedstat", "rb") as handle:
                    nanoseconds += int(handle.read().split()[0])
        except OSError:
            continue  # the process or thread left between the listing and the read
    return nanoseconds / 1e9


def pin_to_one_cpu() -> int:
    """Confine this process, and so every child it starts, to one CPU.

    Left alone, the scheduler sometimes runs generator and server on one
    CPU and sometimes on two; on a virtual machine the second costs an
    inter-processor interrupt per wake-up, nearly doubles the CPU charged
    per request and flips from run to run.  One CPU for both is the steadier
    of the two and what the scheduler picks most of the time anyway.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_libc = ctypes.CDLL(None, use_errno=True)
_ADDR_NO_RANDOMIZE = 0x0040000
_QUERY_PERSONALITY = 0xFFFFFFFF


def steady_interpreter() -> None:
    """Re-execute this interpreter with hash seed 0 and address-space
    randomisation off, once.

    A Python process keeps for life the speed its hash seed and memory
    layout gave it; for the generator that is 22 to 30 us of its own CPU per
    request, drawn anew each run and, on a shared CPU, charged to the
    server's throughput.  The generator is the ruler, so its draw is fixed.
    The server's is not: :class:`Child` hands its children a random hash
    seed and a randomised layout back, and the run samples several.
    """
    persona = _libc.personality(_QUERY_PERSONALITY)
    randomised = persona != -1 and not persona & _ADDR_NO_RANDOMIZE
    if randomised and _libc.personality(persona | _ADDR_NO_RANDOMIZE) == -1:
        randomised = False  # not allowed here: go on with the hash seed alone
    if randomised or os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _randomise_layout() -> None:
    persona = _libc.personality(_QUERY_PERSONALITY)
    if persona != -1:
        _libc.personality(persona & ~_ADDR_NO_RANDOMIZE)


def peak_rss_mb(root: int) -> float:
    """Peak resident set (``VmHWM``) summed over ``root``'s process tree."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Child:
    """A benchmark child speaking JSON lines on stdout, stopped by closing
    its stdin.  Used for the server launcher and the echo stub."""

    def __init__(self, script: str, *args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("PYTHONHASHSEED", None)
        # Let the children cache bytecode (inside the checkout), so that every
        # launch after the first loads src/ the way an installed server does
        # instead of timing the compiler.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=REPO,
            text=True,
            preexec_fn=_randomise_layout,
        )
        self.port = self._read()["port"]
        self.address = ("127.0.0.1", self.port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise BenchError(f"benchmark child exited early (code {self.process.wait()})")
        return json.loads(line)

    def counters(self) -> dict:
        """Ask the launcher for a snapshot of the server's counters."""
        self.process.stdin.write("stats\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Close stdin, collect the last line, wait for the exit.  The child
        is killed if it does not leave within the grace period."""
        last: dict = {}
        try:
            self.process.stdin.close()
            line = self.process.stdout.readline()
            if line:
                last = json.loads(line)
            self.process.wait(timeout=20)
        except (subprocess.TimeoutExpired, ValueError, OSError):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
        return last
