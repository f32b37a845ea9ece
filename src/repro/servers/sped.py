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

from typing import Optional

from repro.cache.residency import ResidencyTester
from repro.core.config import ServerConfig
from repro.core.helpers import advise_willneed
from repro.core.pipeline import ContentStore
from repro.core.send_path import sendfile_available
from repro.core.server import BaseEventDrivenServer
from repro.http.request import HTTPRequest


class SPEDServer(BaseEventDrivenServer):
    """Flash-SPED: the shared code base with inline (blocking) disk operations.

    The base class already implements the inline driver hooks, so this class
    only fixes the architecture label and disables the memory-residency test
    (SPED transmits mapped data directly; the paper attributes Flash's small
    deficit on fully cached workloads to the residency test AMPED must do).

    The single-lookup hot path applies to SPED in its purest form: the base
    ``hot_content_ready`` hook accepts every hot-response-cache hit without
    a residency gate, so a repeat GET goes from the fast parse straight to
    ``sendfile`` — and a cold page simply blocks the process during
    transmission, faithful to SPED.
    """

    architecture = "sped"

    def __init__(
        self,
        config: ServerConfig,
        residency_tester: Optional[ResidencyTester] = None,
    ):
        super().__init__(config, residency_tester=residency_tester)
        # SPED never checks residency: it simply touches the pages and takes
        # the page fault (blocking the whole process) if they are missing.
        self.store.config = config
        self._skip_residency_test = True

    def prepare_content_async(
        self, request: HTTPRequest, entry, callback, keep_alive: Optional[bool] = None
    ) -> None:
        # With the zero-copy path active, SPED transmits straight from the
        # cached descriptor and never consults the mapping (it does no
        # residency test), so skip pinning mapped chunks for the response.
        map_body = not (self.config.zero_copy and sendfile_available())
        try:
            content = self.store.build_response(
                request, entry, keep_alive=keep_alive, map_body=map_body
            )
        except OSError as exc:
            callback(None, exc)
            return
        # Touch the data inline.  If it is not in memory, this blocks the
        # whole server while the disk read completes — SPED's defining cost.
        # When the response will go out via sendfile the kernel pages the
        # file in during transmission (still blocking this process on a
        # miss, which is faithful SPED behaviour), so pre-touching the
        # mapping would only add a redundant pass over the data.
        if content.chunks and not (
            self.config.zero_copy and content.file_handle is not None
        ):
            ContentStore.touch_chunks(content.chunks)
        elif content.file_handle is not None and self.config.helper_warming:
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
