"""Server configuration shared by every architecture build.

The evaluation in the paper (Section 6) fixes a particular configuration:
Flash and Flash-MT use a 32 MB mapped-file cache and a 6000-entry pathname
cache; each Flash-MP process gets a 4 MB mapped-file cache and 600 pathname
entries because the caches are replicated per process; Flash-MP and Apache
use 32 server processes and Flash-MT uses 32 threads.  Those numbers are the
defaults here, and :meth:`ServerConfig.per_process_scaled` derives the MP
per-process variant exactly as the paper describes.

The three ``enable_*_cache`` switches exist for the Figure 11 breakdown
experiment, which measures Flash with every combination of the pathname
translation, mapped-file and response-header caches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.event_loop import KNOWN_BACKENDS
from repro.http.response import DEFAULT_ALIGNMENT


@dataclass
class ServerConfig:
    """Configuration for a Flash-family server.

    Attributes mirror the knobs the paper's evaluation turns: concurrency
    level per architecture, cache sizes, and the individual optimizations.
    """

    #: Directory containing the static content to serve.
    document_root: str = "."
    #: Address to bind; the default binds only the loopback interface.
    host: str = "127.0.0.1"
    #: TCP port; ``0`` asks the kernel for an ephemeral port (used by tests).
    port: int = 0
    #: Listen backlog for the accept queue.
    listen_backlog: int = 1024

    # -- concurrency -------------------------------------------------------
    #: Helper processes/threads for the AMPED build (per the paper, only
    #: enough to keep the disk busy are needed, not one per connection).
    num_helpers: int = 4
    #: Worker processes for the MP build / worker threads for the MT build
    #: ("the Flash-MP and Apache servers use 32 server processes and
    #: Flash-MT uses 32 threads").
    num_workers: int = 32
    #: How AMPED helpers are realized: ``"thread"`` or ``"process"``.  The
    #: paper uses separate processes for portability to systems without
    #: kernel threads; in this reproduction threads are the default because
    #: CPython releases the GIL during disk reads, so helper threads provide
    #: the same non-blocking behaviour with far less IPC overhead, and
    #: process helpers remain available for fidelity.
    helper_mode: str = "thread"

    # -- caches (Sections 5.2-5.4) ------------------------------------------
    #: Enable the pathname translation cache.
    enable_pathname_cache: bool = True
    #: Enable the response header cache.
    enable_header_cache: bool = True
    #: Enable the mapped-file chunk cache.
    enable_mmap_cache: bool = True
    #: Pathname cache capacity (entries).
    pathname_cache_entries: int = 6000
    #: Mapped-file cache limit (bytes of inactive mappings).
    mmap_cache_bytes: int = 32 * 1024 * 1024
    #: Chunk size for the mapped-file cache.
    mmap_chunk_size: int = 64 * 1024
    #: Response header cache capacity (entries).
    header_cache_entries: int = 6000

    # -- event notification and send path -----------------------------------
    #: Event-notification mechanism behind the SPED/AMPED event loop:
    #: ``"select"``, ``"poll"``, ``"epoll"`` or ``"auto"`` (best available).
    io_backend: str = "auto"
    #: Serve static bodies zero-copy with ``os.sendfile`` from the cached
    #: open file descriptor (header still coalesced via vectored writes).
    #: Dynamic (CGI) responses and platforms without ``sendfile`` always use
    #: the buffered path, as does any response whose file cannot be opened.
    zero_copy: bool = True
    #: Open-descriptor cache capacity for the zero-copy send path.  Also
    #: the hot-response cache's entry bound under zero-copy: there each
    #: entry pins a descriptor, and pinned descriptors are exempt from
    #: this cache's eviction.
    fd_cache_entries: int = 128

    # -- single-lookup hot path ----------------------------------------------
    #: Serve repeated static GETs from the unified hot-response cache: one
    #: dict probe keyed on the raw request-target bytes returns the
    #: validated path, precomposed headers and pinned body resources,
    #: retiring the pathname/header/fd triple-lookup chain from the hot
    #: path.  Never changes response bytes; misses and ineligible requests
    #: take the full pipeline exactly as before.  Under zero-copy, entries are
    #: bounded by ``fd_cache_entries``; the bytes they pin through mapped
    #: chunks share ``mmap_cache_bytes``.
    hot_cache: bool = True
    #: Seconds a hot entry's freshness verdict is trusted before the next
    #: hit re-``stat``\s the file; 0 revalidates on every hit.
    hot_cache_revalidate: float = 1.0
    #: Recognize plain ``GET <target> HTTP/1.x`` requests on the receive
    #: buffer without building an HTTPRequest or splitting header lines
    #: (conditional/range/POST/CGI shapes always take the full parser).
    #: Never changes response bytes.
    fast_parse: bool = True

    # -- protocol / optimization details ------------------------------------
    #: Byte-position alignment of response headers (Section 5.5); 0 disables.
    header_alignment: int = DEFAULT_ALIGNMENT
    #: Perform memory-residency tests before sending file data (Section 5.7):
    #: ``mincore`` over mapped chunks, ``preadv(RWF_NOWAIT)`` over descriptor
    #: windows (see :mod:`repro.cache.residency`).
    enable_residency_test: bool = True
    #: Maximum request-header size accepted.
    max_header_bytes: int = 16 * 1024
    #: Socket send/receive chunk used by the event-driven writers.
    socket_io_size: int = 64 * 1024
    #: Whether persistent (keep-alive) connections are honoured.
    keep_alive: bool = True

    # -- per-connection deadlines (slow-client hardening) ---------------------
    #: Budget, in seconds, from the arrival of a connection (or of the first
    #: byte of a keep-alive follow-up request) to a *complete* request head.
    #: This is an absolute budget, deliberately not reset per byte — a
    #: slowloris peer dribbling one header byte per interval exhausts it and
    #: is answered ``408 Request Timeout``.  ``<= 0`` disables it.
    header_timeout: float = 15.0
    #: Seconds an idle keep-alive connection (between complete exchanges)
    #: may sit before being reaped.  ``<= 0`` disables idle reaping.
    idle_timeout: float = 30.0
    #: Seconds a response transmission may go without moving any byte to
    #: the peer before the connection is reaped.  Reset on *progress*
    #: (bytes actually transmitted), not on mere writability, so a reader
    #: draining one byte per interval still advances it but a fully
    #: stalled reader does not.  ``<= 0`` disables it.
    write_stall_timeout: float = 30.0

    #: ``Cache-Control: max-age=N`` (plus a matching ``Expires``) emitted on
    #: static 200/206 responses; ``0`` (the default) emits neither header.
    cache_max_age: int = 0

    # -- overload and lifecycle (admission control, drain, shard fleet) -------
    #: Maximum concurrently open client connections before admission control
    #: sheds new arrivals with ``503 Service Unavailable`` (the connection is
    #: still *accepted* so the client gets an answer instead of a backlog
    #: timeout).  ``0`` (the default) disables count-based shedding; the
    #: fd-exhaustion sentinel guard operates regardless.
    max_connections: int = 0
    #: Hysteresis watermark for admission control: once shedding starts it
    #: continues until open connections drain to
    #: ``admission_resume × max_connections``, so a server hovering at the
    #: limit sheds in bursts instead of flapping per-accept.
    admission_resume: float = 0.9
    #: Seconds advertised in the shed response's ``Retry-After`` header.
    retry_after: int = 1
    #: Seconds a draining server (SIGTERM/SIGINT received) waits for
    #: in-flight responses to complete before force-closing stragglers and
    #: exiting.  ``<= 0`` means close immediately.
    drain_timeout: float = 5.0
    #: Bind the listening socket with ``SO_REUSEPORT`` so several shard
    #: processes can share one port (the kernel load-balances accepts).
    #: The supervisor sets this for every shard; standalone servers leave
    #: it off so an accidental double-bind stays an error.
    reuse_port: bool = False

    # -- dynamic content ----------------------------------------------------
    #: Registered CGI applications: name -> callable (see :mod:`repro.cgi`),
    #: served under ``/cgi-bin/<name>``.
    cgi_programs: dict = field(default_factory=dict)

    # -- streaming responses (chunked transfer, streaming CGI, SSE) ----------
    #: Bound on the per-request chunk queue between a *streaming* CGI
    #: application and its consumer: once this many chunks are unconsumed
    #: the application blocks, which is how consumer-side backpressure
    #: reaches the child (see :mod:`repro.core.streaming`).
    cgi_stream_depth: int = 8
    #: Path of the built-in Server-Sent Events endpoint.  ``None`` (the
    #: default) or ``""`` disables the endpoint entirely: an enabled one
    #: shadows whatever docroot file has the same path.
    sse_path: Optional[str] = None
    #: Bound on each SSE subscriber's event queue: a stalled subscriber
    #: holds at most this many formatted events in the server's heap.
    sse_queue_limit: int = 64
    #: What happens when a stalled subscriber's queue overflows:
    #: ``"drop"`` discards the oldest queued event (counted in
    #: ``sse_dropped_events``); ``"disconnect"`` ends the subscription
    #: after the backlog delivers.
    sse_policy: str = "drop"
    #: Interval of the built-in heartbeat ticker publishing ``tick`` events
    #: to all subscribers.  ``<= 0`` (default) disables the ticker; the
    #: endpoint then only relays externally published events.
    sse_heartbeat: float = 0.0

    #: Optional mapping of user name -> public_html directory for ``/~user``.
    user_dirs: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.num_helpers < 1:
            raise ValueError("num_helpers must be at least 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.helper_mode not in ("thread", "process"):
            raise ValueError("helper_mode must be 'thread' or 'process'")
        if self.mmap_chunk_size <= 0:
            raise ValueError("mmap_chunk_size must be positive")
        if self.io_backend != "auto" and self.io_backend not in KNOWN_BACKENDS:
            raise ValueError(
                f"io_backend must be 'auto' or one of {sorted(KNOWN_BACKENDS)}"
            )
        if self.fd_cache_entries < 0:
            raise ValueError("fd_cache_entries must be non-negative")
        if self.hot_cache_revalidate < 0:
            raise ValueError("hot_cache_revalidate must be non-negative")
        if self.cache_max_age < 0:
            raise ValueError("cache_max_age must be non-negative")
        if self.max_connections < 0:
            raise ValueError("max_connections must be non-negative")
        if not 0.0 < self.admission_resume <= 1.0:
            raise ValueError("admission_resume must be in (0, 1]")
        if self.retry_after < 0:
            raise ValueError("retry_after must be non-negative")
        self.drain_timeout = max(0.0, self.drain_timeout)
        if self.cgi_stream_depth < 1:
            raise ValueError("cgi_stream_depth must be at least 1")
        if self.sse_queue_limit < 1:
            raise ValueError("sse_queue_limit must be at least 1")
        if self.sse_policy not in ("drop", "disconnect"):
            raise ValueError("sse_policy must be 'drop' or 'disconnect'")
        # Normalize every timeout so "disabled" has exactly one spelling
        # (0.0): a non-positive value means "no deadline" everywhere instead
        # of a ``call_later(0, ...)`` busy-loop.
        self.idle_timeout = max(0.0, self.idle_timeout)
        self.header_timeout = max(0.0, self.header_timeout)
        self.write_stall_timeout = max(0.0, self.write_stall_timeout)
        self.document_root = os.path.abspath(self.document_root)

    def per_process_scaled(self, num_processes: Optional[int] = None) -> "ServerConfig":
        """Return the per-process configuration used by the MP build.

        The caches in an MP server are replicated in every process, so the
        paper configures them smaller: each Flash-MP process has a 4 MB
        mapped-file cache and a 600-entry pathname cache (Section 6).  This
        helper divides the shared limits by the process count with the same
        ratios the paper uses for its defaults.
        """
        processes = self.num_workers if num_processes is None else num_processes
        if processes < 1:
            raise ValueError("num_processes must be at least 1")
        # At the paper's 32 processes, the shared 32 MB / 6000-entry caches
        # shrink to 4 MB / 600 entries per process: an 8x byte reduction and
        # a 10x entry reduction.  Scale those ratios linearly with the
        # process count so other configurations stay proportionate.
        byte_scale = max(1, processes // 4)
        entry_scale = max(1, round(processes / 3.2))
        return replace(
            self,
            mmap_cache_bytes=max(self.mmap_chunk_size, self.mmap_cache_bytes // byte_scale),
            pathname_cache_entries=max(16, self.pathname_cache_entries // entry_scale),
            header_cache_entries=max(16, self.header_cache_entries // entry_scale),
        )

    def without_caches(self) -> "ServerConfig":
        """Return a copy with every application-level cache disabled.

        Zero-copy is switched off too: the descriptor cache behind it is
        itself an application-level cache, and leaving it on would skew the
        no-caches baseline this configuration exists to measure.  The
        hot-response cache is the aggregation of all of the above, so it is
        disabled as well.
        """
        return replace(
            self,
            enable_pathname_cache=False,
            enable_header_cache=False,
            enable_mmap_cache=False,
            zero_copy=False,
            hot_cache=False,
        )

    def with_optimizations(
        self,
        *,
        pathname: bool = True,
        mmap: bool = True,
        header: bool = True,
    ) -> "ServerConfig":
        """Return a copy with the given cache combination (Figure 11)."""
        return replace(
            self,
            enable_pathname_cache=pathname,
            enable_mmap_cache=mmap,
            enable_header_cache=header,
        )
