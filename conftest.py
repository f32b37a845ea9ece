"""Repository-level pytest configuration.

Ensures the ``src`` layout is importable even when the package has not been
installed (e.g. a fresh clone running ``pytest`` directly).  When the
package *is* installed this is a harmless no-op because the installed copy
shadows nothing — it is the same directory.

When ``REPRO_SANITIZE=1`` is set, the runtime sanitizers from
:mod:`repro.analysis.sanitize` are activated (docs/ANALYSIS.md):

* every test module runs under an fd-leak check — descriptors alive after
  the module that were not alive before it fail the run;
* a loop-stall watchdog records event-loop callbacks that hold the loop
  too long and reports them at session end;
* lock acquisitions are recorded per thread and lock-order inversions
  (latent deadlocks) fail the session.

Tests marked ``cachestat`` judge the real residency probe against really
evicted files; they skip only where the probe answers by fallback (no
``cachestat(2)``: a kernel before Linux 6.5, another OS, a seccomp filter).
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis import sanitize  # noqa: E402
from repro.cache.residency import MincoreResidencyTester  # noqa: E402

_SANITIZE = sanitize.enabled()
_fd_tracker = None
_watchdog = None
_lock_recorder = None


def _probe_answers() -> bool:
    """Whether the residency probe answers here rather than falling back."""
    tester = MincoreResidencyTester()
    fd = os.open(__file__, os.O_RDONLY)
    try:
        tester.file_resident(fd, 1)
    finally:
        os.close(fd)
    return tester.fallback_answers == 0


_cachestat = False


def pytest_runtest_setup(item):
    if not _cachestat and item.get_closest_marker("cachestat") is not None:
        pytest.skip("the residency probe answers by fallback: no cachestat(2) here")


def pytest_configure(config):
    global _fd_tracker, _watchdog, _lock_recorder, _cachestat
    config.addinivalue_line(
        "markers", "cachestat: needs the real residency probe (skips on its fallback)"
    )
    _cachestat = _probe_answers()
    if not _SANITIZE:
        return
    _fd_tracker = sanitize.FdTracker()
    _fd_tracker.install()
    _watchdog = sanitize.LoopStallWatchdog()
    _watchdog.install()
    _lock_recorder = sanitize.LockOrderRecorder()
    _lock_recorder.install()


@pytest.fixture(autouse=True, scope="module")
def _repro_sanitize_fds(request):
    """Per-module fd-leak barrier (active only under ``REPRO_SANITIZE=1``)."""
    if not _SANITIZE:
        yield
        return
    _fd_tracker.arm()
    yield
    leaks = _fd_tracker.leaked()
    if leaks:
        pytest.fail(
            "file descriptors leaked by test module "
            f"{request.module.__name__}:\n  " + "\n  ".join(leaks),
            pytrace=False,
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SANITIZE:
        return
    stalls = _watchdog.report()
    if stalls:
        terminalreporter.section("repro-sanitize: loop stalls")
        for line in stalls:
            terminalreporter.write_line(line)
    inversions = _lock_recorder.inversions()
    if inversions:
        terminalreporter.section("repro-sanitize: lock-order inversions")
        for line in inversions:
            terminalreporter.write_line(line)


def pytest_sessionfinish(session, exitstatus):
    if not _SANITIZE:
        return
    if _lock_recorder.inversions():
        session.exitstatus = 1
