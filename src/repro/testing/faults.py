"""Fault-injection harness for the robustness tests and chaos benchmarks.

A production front-end's failure handling is only trustworthy if it is
*exercised*: fd exhaustion, helper death and disk errors are rare enough in
a test environment that the recovery paths would otherwise ship untested.
This module compiles named **failure points** into the server code; each is
a zero-cost no-op until a :class:`FaultPlan` arms it, after which it fires
a scripted number of times and then disarms itself.

Failure points wired into the code base:

``accept_emfile``
    The accept path behaves as if ``accept(2)`` failed with ``EMFILE``
    (fd exhaustion) — exercises the fd-reserve sentinel guard and the
    accept-pause machinery in :mod:`repro.core.admission`.
``disk_read``
    :meth:`repro.cache.mapped_file.FileDescriptorCache.acquire` raises
    ``OSError(EIO)`` instead of opening the file, the response build's one
    disk access — exercises the disk-failure error path on every
    architecture.
``helper_death``
    An AMPED process helper calls ``os._exit(1)`` on its next operation —
    exercises the PR 3 helper-death detection (pipe EOF, reply synthesis,
    degradation to surviving helpers).
``shard_kill_after`` *(value = seconds, float)*
    A supervised shard SIGKILLs itself that many seconds after starting —
    lets a single-command chaos run exercise the supervisor's restart
    machinery without an external killer.

Arming
------

Programmatic (in-process tests)::

    from repro.testing import faults
    faults.arm("accept_emfile", count=2)
    ...
    faults.reset()

Environment (spawned shard/worker processes)::

    REPRO_FAULTS="accept_emfile=2,helper_death=1,shard_kill_after=0.5"

The plan is read from ``REPRO_FAULTS`` once at import; spawned processes
inherit the environment, so exporting the variable before starting a shard
fleet arms every shard.  Counts are consumed under a lock, so thread-mode
helpers and MT workers can share one plan safely.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

__all__ = ["FaultPlan", "faults", "ENV_VAR"]

#: Environment variable holding the fault plan for spawned processes.
ENV_VAR = "REPRO_FAULTS"

#: The failure points compiled into the code base.  ``arm`` rejects unknown
#: names so a typo in a chaos script fails loudly instead of silently
#: injecting nothing.
KNOWN_POINTS = frozenset(
    {"accept_emfile", "disk_read", "helper_death", "shard_kill_after"}
)


class FaultPlan:
    """A set of armed failure points with per-point firing budgets.

    ``take(point)`` consumes one firing and returns True while the budget
    lasts; ``value(point)`` reads a float-valued point (e.g. a delay)
    without consuming it.  Both are no-ops (False / None) for unarmed
    points, which is the steady state in production and in every test that
    does not opt in.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._values: dict[str, float] = {}

    # -- arming -----------------------------------------------------------------

    def arm(self, point: str, count: int = 1, value: Optional[float] = None) -> None:
        """Arm ``point`` to fire ``count`` times (or carry ``value``)."""
        if point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known: {sorted(KNOWN_POINTS)}"
            )
        with self._lock:
            if value is not None:
                self._values[point] = float(value)
            else:
                self._counts[point] = self._counts.get(point, 0) + int(count)

    def reset(self) -> None:
        """Disarm every point (tests call this in teardown)."""
        with self._lock:
            self._counts.clear()
            self._values.clear()

    def load_env(self, text: Optional[str] = None) -> None:
        """Arm points from a ``REPRO_FAULTS``-style string.

        Format: comma-separated ``point=value`` pairs.  An integer value is
        a firing count; a value containing ``.`` is stored as a float
        (``value(point)`` reads it).  A bare ``point`` arms one firing.
        Unknown points raise, so a typo in a chaos script is an error.
        """
        if text is None:
            text = os.environ.get(ENV_VAR, "")
        for item in filter(None, (part.strip() for part in text.split(","))):
            name, _, raw = item.partition("=")
            name = name.strip()
            raw = raw.strip()
            if not raw:
                self.arm(name)
            elif "." in raw:
                self.arm(name, value=float(raw))
            else:
                self.arm(name, count=int(raw))

    # -- firing ------------------------------------------------------------------

    def take(self, point: str) -> bool:
        """Consume one firing of ``point``; False when unarmed/exhausted."""
        with self._lock:
            remaining = self._counts.get(point, 0)
            if remaining <= 0:
                return False
            self._counts[point] = remaining - 1
            return True

    def value(self, point: str) -> Optional[float]:
        """The float value armed for ``point`` (None when unarmed)."""
        with self._lock:
            return self._values.get(point)

    def armed(self, point: str) -> bool:
        """Whether ``point`` has budget (or a value) left."""
        with self._lock:
            return self._counts.get(point, 0) > 0 or point in self._values

    def snapshot(self) -> dict:
        """Remaining budgets and values (for assertions and debugging)."""
        with self._lock:
            return {"counts": dict(self._counts), "values": dict(self._values)}


#: The process-wide plan every compiled-in failure point consults.  Spawned
#: processes re-read ``REPRO_FAULTS`` at import, so arming via environment
#: reaches shard fleets and process-mode helpers.
faults = FaultPlan()
faults.load_env()
