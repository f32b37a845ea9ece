"""Single-Process Event-Driven (SPED) build (paper Section 3.3).

The SPED server uses the same event loop, connection state machine, caches
and optimizations as Flash, but performs every potentially blocking disk
operation inline in the single server process.  On cached workloads this is
the fastest architecture — there is no helper IPC and no memory-residency
testing — but whenever a request requires disk activity *all* user-level
processing stops, which is exactly the weakness the evaluation exposes on
disk-bound workloads (Figures 9 and 10).
"""

from __future__ import annotations

from repro.core import exchange
from repro.core.helpers import advise_willneed
from repro.core.pipeline import ContentStore
from repro.core.server import BaseEventDrivenServer
from repro.http.errors import HTTPError
from repro.http.request import HTTPRequest


class SPEDServer(BaseEventDrivenServer):
    """Flash-SPED: the shared code base with inline (blocking) disk operations.

    This class fixes the architecture label and answers a hot-cache miss
    inline, with no memory-residency test (SPED transmits mapped data
    directly; the paper attributes Flash's small deficit on fully cached
    workloads to the residency test AMPED must do).

    The single-lookup hot path applies to SPED in its purest form: the base
    ``hot_content_ready`` hook accepts every hot-response-cache hit without
    a residency gate, so a repeat GET goes from the fast parse straight to
    ``sendfile`` — and a cold page simply blocks the process during
    transmission, faithful to SPED.
    """

    architecture = "sped"

    def respond_async(self, request: HTTPRequest, keep_alive: bool, callback) -> None:
        """Translate, build and touch inline (may block the whole server)."""
        try:
            content = exchange.static_miss(self.store, request, keep_alive)
        except (HTTPError, OSError) as exc:
            callback(None, exc)
            return
        # SPED never checks residency: it simply touches the data inline.
        # If it is not in memory, this blocks the whole server while the
        # disk read completes — SPED's defining cost.  A sendfile body has
        # no chunks: the kernel pages the file in during transmission
        # (still blocking this process on a miss, which is faithful SPED
        # behaviour).
        if content.chunks:
            ContentStore.touch_chunks(content.chunks)
        elif content.file_handle is not None:
            # SPED has no helpers, but posix_fadvise(WILLNEED) returns
            # immediately after queueing readahead, so the hint is safe on
            # the main loop: a cold sendfile that follows overlaps with the
            # readahead already in flight instead of paying the full
            # synchronous read.  Faithful SPED still blocks on a miss.
            # Advised once per cached-descriptor lifetime: SPED does no
            # residency test, so per-request re-advising would put a
            # syscall on the hot fully-cached path for nothing.  Only the
            # transmitted window is hinted; a Range (206) response's
            # partial advise does not consume the descriptor's one
            # full-body advise.
            handle = content.file_handle
            if not handle.advised:
                # Only the transmitted span is hinted (a multipart 206
                # advises the window-covering span in one call).
                warm_offset, warm_length = content.warm_window()
                advise_willneed(handle.fd, warm_offset, warm_length)
                if content.status == 200:
                    handle.advised = True
        callback(content, None)
