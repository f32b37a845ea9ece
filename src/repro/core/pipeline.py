"""Architecture-independent request-processing pipeline.

The paper's methodology (Section 6) builds four servers — AMPED, SPED, MP
and MT — from the *same code base*, differing only in how they achieve
concurrency.  This module is that shared code base: the caches, pathname
translation, response-header construction and file access used identically
by every architecture.  The architectures differ only in *who* executes the
potentially blocking steps (the main event loop, a helper, a worker process,
or a worker thread), which is decided by the server front ends in
:mod:`repro.core.server` and :mod:`repro.servers`.
"""

from __future__ import annotations

import errno
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.cache.hot_response import DEFAULT_MAX_ENTRIES, HotEntry, HotResponseCache
from repro.cache.mapped_file import (
    CachedFD,
    FileDescriptorCache,
    MappedChunk,
    MappedFileCache,
)
from repro.cache.pathname import PathnameCache, PathnameEntry
from repro.cache.residency import MincoreResidencyTester, ResidencyTester
from repro.cache.response_header import ResponseHeaderCache
from repro.core.config import ServerConfig
from repro.core.send_path import sendfile_available, window_views
from repro.http.mime import guess_mime_type
from repro.http.planner import plan_response
from repro.http.request import HTTPRequest
from repro.http.response import (
    ResponseHeaderBuilder,
    content_range,
    content_range_unsatisfied,
    multipart_boundary,
    multipart_part_head,
    multipart_trailer,
)
from repro.http.uri import resolve_path

#: How long (seconds) a *resident* fd-probe verdict may be reused for the
#: same cached descriptor before re-probing.  The probe was always
#: advisory — pages can be evicted between probe and sendfile regardless —
#: so a short reuse window widens that pre-existing race only marginally
#: while removing the probe's system call (and its copy of the window)
#: per request from the hot fully-cached path.
#: Cold verdicts are never cached: every cold request must trigger warming.
FD_RESIDENT_PROBE_TTL = 0.1


@dataclass
class ServerStats:
    """Centralized request statistics ("information gathering", Section 4.2).

    In the SPED and AMPED architectures all requests are processed in one
    process, so these counters need no synchronization; the MT build wraps
    updates in a lock and the MP build keeps one instance per process and
    consolidates on demand.
    """

    requests: int = 0
    responses_ok: int = 0
    responses_error: int = 0
    bytes_sent: int = 0
    connections_accepted: int = 0
    connections_closed: int = 0
    helper_dispatches: int = 0
    blocking_translations: int = 0
    blocking_reads: int = 0
    cgi_requests: int = 0
    sendfile_responses: int = 0
    sendfile_fallbacks: int = 0
    sendfile_warms: int = 0
    sendfile_warm_degradations: int = 0
    hot_hits: int = 0
    hot_misses: int = 0
    hot_insertions: int = 0
    hot_cold_fallbacks: int = 0
    fast_parses: int = 0
    not_modified_responses: int = 0
    range_responses: int = 0
    range_unsatisfiable: int = 0
    range_multipart_responses: int = 0
    precondition_failed: int = 0
    #: Connections reaped by the per-connection deadline system, by which
    #: budget expired: the absolute request-head budget (answered 408), the
    #: keep-alive idle budget, and the progress-based write-stall budget.
    timeouts_header: int = 0
    timeouts_idle: int = 0
    timeouts_write_stall: int = 0
    #: Overload and lifecycle accounting: arrivals answered 503 by admission
    #: control, accept-time fd-exhaustion events survived via the sentinel
    #: guard, accept-interest pauses entered because of exhaustion, and
    #: in-flight connections force-closed when the drain deadline expired.
    connections_shed: int = 0
    fd_exhaustion_events: int = 0
    accept_pauses: int = 0
    drain_forced_closes: int = 0
    #: Exceptions caught by the crash barriers around event-loop callbacks
    #: (readiness handlers, timers, drain steps).  Anything non-zero means
    #: a bug was absorbed instead of killing every connection on the loop.
    loop_callback_errors: int = 0
    #: Responses produced through the streaming ResponseSource path
    #: (chunked generators, streaming CGI, SSE) rather than a fixed-length
    #: body known up front.
    streamed_responses: int = 0
    #: Streamed responses framed with ``Transfer-Encoding: chunked`` (the
    #: remainder used the HTTP/1.0 close-delimited fallback).
    chunked_responses: int = 0
    #: SSE subscriptions accepted on the built-in event-stream endpoint.
    sse_connections: int = 0
    #: Pause edges on streaming responses: the consumer's socket stopped
    #: draining and the producing source was paused (flow control engaged).
    backpressure_pauses: int = 0
    #: Events discarded from stalled SSE subscribers' bounded queues under
    #: the ``drop`` overflow policy.
    sse_dropped_events: int = 0

    def merge(self, other: "ServerStats") -> "ServerStats":
        """Return a new instance combining this one with ``other``.

        Used by the MP build to consolidate per-process statistics, the
        extra step the paper notes MP servers must pay for global accounting.
        """
        merged = ServerStats()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for logging and tests."""
        return dict(vars(self))


@dataclass
class StaticContent:
    """Everything needed to transmit one static response.

    A body is always an ordered list of *parts* plus a trailer; the plain
    200/206 is the one-part case with an empty head and an empty trailer,
    a ``multipart/byteranges`` 206 has one part per window, and a bodyless
    answer (HEAD, 304, 412, 416) has none.

    Attributes
    ----------
    header:
        The encoded response header (already aligned per Section 5.5).
    segments:
        The complete wire body as buffers in transmission order — part
        heads, file bytes (``bytes`` or zero-copy ``memoryview`` slices of
        mapped chunks), trailer.  Empty when the body exists only as file
        windows over ``file_handle`` (pure zero-copy).
    chunks:
        Mapped chunks pinned for this response; the connection releases them
        when transmission finishes or the connection dies.
    content_length:
        Total body length in bytes (part heads + file windows + trailer).
    status:
        HTTP status code of the response.
    file_handle:
        A pinned open descriptor for the served file, present when the
        zero-copy (``sendfile``) send path may be used.  ``segments`` stays
        populated as the buffered fallback (and, in AMPED, as the substrate
        for the memory-residency test); a sender picks exactly one of
        the two mechanisms per response.
    parts:
        The ordered ``(head, offset, length)`` triples: ``head`` is the
        framing transmitted verbatim before the file window
        ``(offset, length)`` — empty except in a multipart body, where it
        is the delimiter plus the part's ``Content-Type``/``Content-Range``
        block.
    trailer:
        The closing multipart delimiter, transmitted after the final part.
    keep_alive:
        The connection disposition ``header`` announces, recorded where
        the header is composed; :meth:`ContentStore.hot_insert` files the
        header under it.
    """

    header: bytes
    segments: Sequence
    chunks: Sequence[MappedChunk] = field(default_factory=tuple)
    content_length: int = 0
    status: int = 200
    file_handle: Optional[CachedFD] = None
    parts: Sequence[tuple[bytes, int, int]] = ()
    trailer: bytes = b""
    keep_alive: bool = False

    @property
    def total_length(self) -> int:
        """Header plus body length."""
        return len(self.header) + self.content_length

    def warm_window(self) -> tuple[int, int]:
        """The single file-byte span covering every transmitted window.

        Warming helpers take one ``(offset, length)`` request; a multipart
        response warms the covering span — it may touch bytes between
        scattered windows, but a single helper round trip (and one
        completion callback) is the right trade for the rare multi-range
        cold case.
        """
        start = min(offset for _, offset, _ in self.parts)
        end = max(offset + length for _, offset, length in self.parts)
        return start, end - start

    def window_buffers(self, offset: int, length: int) -> list:
        """The file window ``(offset, length)`` as byte buffers.

        The one "window to bytes" route of the degraded paths (a
        ``sendfile`` fallback mid-transfer, a failed warm): views over the
        response's pinned chunks when it has them — AMPED already made
        those resident — else one positional read through
        :meth:`ContentStore.read_file_range`, which may come up short when
        the file shrank.
        """
        if self.chunks:
            covering = _covering_chunks(self.chunks, offset, length)
            return _chunk_views(covering, offset, length)
        return [ContentStore.read_file_range(self.file_handle.path, offset, length)]

    def release(self, store: "ContentStore") -> None:
        """Return pinned chunks to the mapped-file cache.  Idempotent.

        The body segments are dropped first: they are memoryviews over the
        mappings, and holding them would prevent the cache from ever
        unmapping the chunks.
        """
        self.segments = ()
        chunks, self.chunks = self.chunks, ()
        for chunk in chunks:
            store.release_chunk(chunk)
        handle, self.file_handle = self.file_handle, None
        if handle is not None:
            store.release_fd(handle)


def _covering_chunks(
    chunks: Sequence[MappedChunk], offset: int, length: int
) -> list[MappedChunk]:
    """The chunks of ``chunks`` the window ``(offset, length)`` intersects.

    In file order, each once: a hot entry pins the whole file, and a
    multipart response lists a chunk once per window that touches it.
    """
    end = offset + length
    covering = {
        chunk.offset: chunk
        for chunk in chunks
        if chunk.offset < end and chunk.offset + chunk.length > offset
    }
    return [covering[start] for start in sorted(covering)]


def _chunk_views(covering: Sequence[MappedChunk], offset: int, length: int) -> list:
    """Zero-copy views of the window ``(offset, length)`` over ``covering``.

    ``covering`` are the (contiguous) chunks intersecting the window; the
    first and last views are trimmed to the window's edges.
    """
    if not covering:
        return []
    views = [chunk.view() for chunk in covering]
    return window_views(views, offset - covering[0].offset, length)


class ContentStore:
    """Caches plus file access: the heart of the shared code base.

    A single instance is shared by all connections of a SPED/AMPED/MT server
    (the MT build serializes updates with ``lock``); the MP build creates one
    instance per worker process with the scaled-down configuration from
    :meth:`repro.core.config.ServerConfig.per_process_scaled`.

    The three caches can be individually disabled through the configuration,
    which is how the Figure 11 optimization-breakdown experiment constructs
    its eight Flash variants.
    """

    def __init__(
        self,
        config: ServerConfig,
        residency_tester: Optional[ResidencyTester] = None,
        thread_safe: bool = False,
    ):
        self.config = config
        self.header_builder = ResponseHeaderBuilder(align=config.header_alignment)
        #: Freshness lifetime stamped on static 200/206 headers
        #: (``Cache-Control: max-age=N`` + ``Expires``); ``None`` when the
        #: knob is 0/disabled so the emission sites stay byte-identical to
        #: a server without the feature.  Validator-only responses
        #: (304/412/416) and CGI/error output never carry it.
        self._cache_max_age: Optional[int] = (
            config.cache_max_age if config.cache_max_age > 0 else None
        )
        self.residency_tester = residency_tester or MincoreResidencyTester()
        # Reentrant: cache-invalidation hooks (pathname revalidation ->
        # fd/mmap invalidate -> hot-cache release) run inside locked
        # sections and re-enter through the public release methods.
        self._lock = threading.RLock() if thread_safe else None

        self._translate_uncached = functools.partial(
            resolve_path,
            document_root=config.document_root,
            user_dirs=config.user_dirs,
        )

        self.pathname_cache: Optional[PathnameCache] = None
        if config.enable_pathname_cache:
            self.pathname_cache = PathnameCache(
                self._translate_uncached,
                max_entries=config.pathname_cache_entries,
                on_invalidate=self._on_pathname_invalidated,
            )

        self.header_cache: Optional[ResponseHeaderCache] = None
        if config.enable_header_cache:
            self.header_cache = ResponseHeaderCache(
                builder=self.header_builder,
                max_entries=config.header_cache_entries,
            )

        self.mmap_cache: Optional[MappedFileCache] = None
        if config.enable_mmap_cache:
            self.mmap_cache = MappedFileCache(
                chunk_size=config.mmap_chunk_size,
                max_mapped_bytes=config.mmap_cache_bytes,
                residency_tester=self.residency_tester,
            )

        #: Open-descriptor cache for the zero-copy send path.  Always built
        #: (it is a dict and an LRU list) but only populated when the
        #: configuration enables ``zero_copy``, so the Figure 11-style
        #: breakdowns can toggle it like any other optimization.
        self.fd_cache = FileDescriptorCache(max_entries=config.fd_cache_entries)

        #: Unified hot-response cache: one probe on the raw request-target
        #: bytes returns a fully precomposed response (validated path,
        #: header variants, pinned descriptor/chunks), retiring the
        #: pathname/header/fd triple-lookup chain from the hot path.
        self.hot_cache: Optional[HotResponseCache] = None
        if config.hot_cache:
            # Hot entries pin the resources they precompose, and pinned
            # resources are exempt from their owning caches' eviction — so
            # the hot cache must respect those caches' budgets itself: under
            # zero-copy, one entry per descriptor the fd cache may hold (each
            # entry pins an fd); buffered entries pin no descriptor and keep
            # the cache's own entry bound.  Chunk-pinning entries share the
            # mapped-file byte budget.
            pins_fd = config.zero_copy and sendfile_available()
            self.hot_cache = HotResponseCache(
                max_entries=(
                    max(1, config.fd_cache_entries) if pins_fd else DEFAULT_MAX_ENTRIES
                ),
                max_pinned_bytes=(
                    config.mmap_cache_bytes if self.mmap_cache is not None else 0
                ),
                revalidate_interval=config.hot_cache_revalidate,
                release_fd=self.release_fd,
                release_chunk=self.release_chunk,
            )
            # Entries must never outlive their pinned resources: when the
            # descriptor or chunk caches invalidate a file, the hot entry
            # is dropped in the same call.
            self.fd_cache.on_invalidate = self.hot_cache.invalidate_path
            if self.mmap_cache is not None:
                self.mmap_cache.on_invalidate = self.hot_cache.invalidate_path

        self.stats = ServerStats()

    # -- pathname translation (the "Find file" step) --------------------------

    def translate(self, uri: str) -> PathnameEntry:
        """Translate a request path to a filesystem path, via the cache.

        This call may block on disk when the translation misses the cache;
        the AMPED server ships misses to a helper instead of calling this
        directly (see :meth:`translate_cached_only`).
        """
        if self.pathname_cache is not None:
            with self._maybe_lock():
                return self.pathname_cache.lookup(uri)
        return self._translate_direct(uri)

    def translate_cached_only(self, uri: str) -> Optional[PathnameEntry]:
        """Return the cached translation for ``uri`` without touching disk.

        Returns ``None`` on a cache miss (or when the pathname cache is
        disabled); the AMPED server then dispatches the translation to a
        helper process so the main event loop never blocks.
        """
        if self.pathname_cache is None:
            return None
        with self._maybe_lock():
            return self.pathname_cache.lookup_cached(uri)

    def store_translation(self, entry: PathnameEntry) -> None:
        """Insert a translation produced by a helper into the cache."""
        if self.pathname_cache is None:
            return
        with self._maybe_lock():
            self.pathname_cache.insert(entry)

    # The paper's documented metadata-blocking step: AMPED routes pathname
    # translation through helpers (OP_TRANSLATE); only SPED, or an AMPED
    # miss-path fallback, runs the stat inline on the loop.
    # repro-lint: allow[RL001] -- intentional SPED blocking point (paper §3.1): helpers own this in AMPED
    def _translate_direct(self, uri: str) -> PathnameEntry:
        return PathnameEntry.from_stat(uri, *self._translate_uncached(uri))

    # -- response construction -------------------------------------------------

    def build_response(
        self,
        request: HTTPRequest,
        entry: PathnameEntry,
        *,
        keep_alive: Optional[bool] = None,
        map_body: Optional[bool] = None,
    ) -> StaticContent:
        """Build the full static response for ``entry``.

        The response header comes from the header cache when enabled; the
        body comes from the mapped-file cache (zero-copy memoryviews over the
        mappings) or, with the mmap cache disabled, from a plain read.  HEAD
        requests get the header only.

        When zero-copy is enabled a pinned open descriptor rides along for
        the ``sendfile`` send path.  ``map_body`` defaults to mapping the
        body only when ``sendfile`` will not send it (zero-copy off, or no
        ``sendfile``): a zero-copy response pins no mapped chunks, so the
        request performs no map, no touch and no user-space body work at
        all.  Its residency is asked of the descriptor (:meth:`fd_resident`)
        and warmed with ``OP_WARM``; a mapped body keeps the paper's chunk
        ``mincore`` and ``OP_READ``.

        What to answer — 200, 206 (plain or ``multipart/byteranges``),
        304, 412 or 416 — is decided by
        :func:`repro.http.planner.plan_response` against the entry's
        strong entity-tag and mtime; :meth:`_assemble` turns the plan into
        bytes.  :meth:`hot_lookup` runs the same two steps, so the paths
        agree by construction.
        """
        if keep_alive is None:
            keep_alive = request.keep_alive and self.config.keep_alive
        if map_body is None:
            map_body = not (self.config.zero_copy and sendfile_available())
        status, windows = 200, None
        # The conditional and range headers apply to GET and HEAD only;
        # other methods (a POST to a static path) must ignore them.
        if request.method in ("GET", "HEAD"):
            status, windows = plan_response(
                size=entry.size,
                mtime=entry.mtime,
                etag=entry.etag,
                if_match=request.if_match,
                if_unmodified_since=request.if_unmodified_since,
                if_none_match=request.if_none_match,
                if_modified_since=request.if_modified_since,
                range_header=request.range_header,
                if_range=request.if_range,
            )
        return self._assemble(
            status,
            windows,
            entry.filesystem_path,
            entry.size,
            entry.mtime,
            entry.etag,
            keep_alive,
            request.is_head,
            pin_windows=lambda parts: self._pin_windows(entry, parts, map_body),
        )

    def _assemble(
        self,
        status: int,
        windows: Optional[Sequence[tuple[int, int]]],
        path: str,
        size: int,
        mtime: float,
        etag: str,
        keep_alive: bool,
        head: bool,
        *,
        hot: Optional[HotEntry] = None,
        pin_windows: Callable[[Sequence[tuple[bytes, int, int]]], tuple],
    ) -> StaticContent:
        """Turn a ``plan_response`` verdict into a transmittable response.

        Shared by the slow path and the hot-cache read-side hit; the two
        differ only in what they inject.  ``hot`` is the hit entry, whose
        200/304 header variants answer before anything is composed (see
        :meth:`_variant_header`).  ``pin_windows(parts)`` pins what the
        parts' file windows need and returns ``(file_handle, chunks,
        bodies)`` — ``bodies`` holds one buffer list per window, or is
        ``None`` when the windows exist only on the descriptor (acquire
        from the fd/mmap caches vs slice the entry's already-pinned
        resources).  The validator-only headers (412/416) and the
        client-shaped ones (206) are built fresh with the shared builder,
        and every status counter is bumped here.
        """
        parts: Sequence[tuple[bytes, int, int]] = ()
        trailer = b""
        total = 0
        if status == 200:
            header = self._variant_header(200, path, size, mtime, etag, keep_alive, hot)
            parts = ((b"", 0, size),)
            total = size
        else:
            # Under the store lock: MT workers reach this from both paths.
            with self._maybe_lock():
                if status == 206:
                    self.stats.range_responses += 1
                    header, parts, trailer, total = self._frame_ranges(
                        path, size, mtime, etag, windows, keep_alive
                    )
                elif status == 304:
                    self.stats.not_modified_responses += 1
                    header = self._variant_header(
                        304, path, size, mtime, etag, keep_alive, hot
                    )
                elif status == 412:
                    self.stats.precondition_failed += 1
                    header = self._validator_header(
                        412, path, mtime, keep_alive, etag=etag
                    )
                else:
                    self.stats.range_unsatisfiable += 1
                    header = self._validator_header(
                        416,
                        path,
                        mtime,
                        keep_alive,
                        extra_headers={"Content-Range": content_range_unsatisfied(size)},
                    )
        if head or not parts:
            return StaticContent(
                header=header,
                segments=(),
                content_length=0,
                status=status,
                keep_alive=keep_alive,
            )
        handle, chunks, bodies = pin_windows(parts)
        segments: Sequence = ()
        if bodies is not None:
            segments = []
            for (part_head, _, _), body in zip(parts, bodies):
                if part_head:
                    segments.append(part_head)
                segments.extend(body)
            if trailer:
                segments.append(trailer)
        return StaticContent(
            header=header,
            segments=segments,
            chunks=chunks,
            content_length=total,
            status=status,
            file_handle=handle,
            parts=parts,
            trailer=trailer,
            keep_alive=keep_alive,
        )

    def _frame_ranges(
        self,
        path: str,
        size: int,
        mtime: float,
        etag: str,
        windows: Sequence[tuple[int, int]],
        keep_alive: bool,
    ) -> tuple[bytes, Sequence[tuple[bytes, int, int]], bytes, int]:
        """Frame a 206 for ``windows``: ``(header, parts, trailer, total)``.

        One window — whether from single-range syntax or a multi-range set
        with one survivor — is the ordinary 206: ``Content-Range`` in the
        header, one part with no framing.  Several become
        ``multipart/byteranges``; the boundary is deterministic in the
        file's validator and the window list, so the same request is
        byte-identical on every path and architecture.  Built fresh per
        response (never cached): range shapes are client-chosen and
        unbounded, so precomposing them would let a client balloon a cache.
        """
        content_type = guess_mime_type(path)
        parts: list[tuple[bytes, int, int]] = []
        trailer = b""
        total = 0
        extra_headers = None
        if len(windows) == 1:
            offset, length = windows[0]
            parts.append((b"", offset, length))
            total = length
            extra_headers = {"Content-Range": content_range(offset, length, size)}
        else:
            self.stats.range_multipart_responses += 1
            boundary = multipart_boundary(etag, windows)
            for index, (offset, length) in enumerate(windows):
                part_head = multipart_part_head(
                    boundary, content_type, offset, length, size, first=index == 0
                )
                parts.append((part_head, offset, length))
                total += len(part_head) + length
            trailer = multipart_trailer(boundary)
            total += len(trailer)
            content_type = f"multipart/byteranges; boundary={boundary}"
        header = self.header_builder.build(
            206,
            content_length=total,
            content_type=content_type,
            last_modified=mtime,
            etag=etag,
            keep_alive=keep_alive,
            cache_max_age=self._cache_max_age,
            extra_headers=extra_headers,
        ).raw
        return header, parts, trailer, total

    def _pin_windows(
        self, entry: PathnameEntry, parts: Sequence[tuple[bytes, int, int]], map_body: bool
    ) -> tuple:
        """The slow path's body source: the descriptor and chunk caches.

        Pinned mapped chunks per window (the buffered/vectored path — a
        window pins only the chunks it intersects, so a small range over a
        large file maps, warms and residency-tests just that slice), a
        pinned descriptor alone (pure zero-copy: no user-space body
        buffering at all; a degraded send reads the window lazily), or
        positional buffered reads when neither cache applies.
        """
        handle = self._acquire_fd(entry)
        if self.mmap_cache is not None and (map_body or handle is None):
            chunks: list[MappedChunk] = []
            bodies = []
            try:
                for _, offset, length in parts:
                    covering = self._acquire_chunks(entry, offset, length)
                    chunks.extend(covering)
                    bodies.append(_chunk_views(covering, offset, length))
            except BaseException:
                bodies.clear()  # views first: they keep the mappings exported
                for chunk in chunks:
                    self.release_chunk(chunk)
                if handle is not None:
                    self.release_fd(handle)
                raise
            return handle, chunks, bodies
        if handle is not None:
            return handle, (), None
        return (
            None,
            (),
            [
                [self.read_file_range(entry.filesystem_path, offset, length)]
                for _, offset, length in parts
            ],
        )

    def _acquire_fd(self, entry: PathnameEntry) -> Optional[CachedFD]:
        """Pin a cached open descriptor for ``entry`` when zero-copy is on.

        Open failures are swallowed: the response simply proceeds on the
        buffered path (the translation step already established the file
        exists, so failures here are transient descriptor pressure).
        Platforms without ``sendfile`` never acquire descriptors — an fd
        nobody can transmit from would only cost open/close per request.
        """
        if not self.config.zero_copy or entry.size <= 0 or not sendfile_available():
            return None
        try:
            with self._maybe_lock():
                return self.fd_cache.acquire(entry.filesystem_path)
        except OSError:
            return None

    def release_fd(self, handle: CachedFD) -> None:
        """Return a pinned descriptor to the descriptor cache."""
        with self._maybe_lock():
            self.fd_cache.release(handle)

    def _variant_header(
        self,
        status: int,
        path: str,
        size: int,
        mtime: float,
        etag: str,
        keep_alive: bool,
        hot: Optional[HotEntry] = None,
    ) -> bytes:
        """The 200 or 304 header: the two statuses a hot entry keeps.

        The slow path (``hot`` is ``None``) composes it.  A hot hit takes
        the entry's variant for this status and disposition; one no hit
        has asked for yet is composed here — by the code the slow path
        runs, so the bytes agree by construction — and filed on the entry.
        """
        if hot is not None:
            header = hot.header(status, keep_alive)
            if header is not None:
                return header
        if status == 200:
            header = self._response_header(path, size, mtime, etag, keep_alive)
        else:
            header = self._not_modified_header(path, mtime, etag, keep_alive)
        if hot is not None:
            hot.file_header(status, keep_alive, header)
        return header

    def _response_header(
        self, path: str, size: int, mtime: float, etag: str, keep_alive: bool
    ) -> bytes:
        if self.header_cache is not None:
            with self._maybe_lock():
                return self.header_cache.get(
                    path,
                    size,
                    mtime,
                    keep_alive=keep_alive,
                    etag=etag,
                    cache_max_age=self._cache_max_age,
                ).raw
        return self.header_builder.build(
            200,
            content_length=size,
            content_type=guess_mime_type(path),
            last_modified=mtime,
            keep_alive=keep_alive,
            etag=etag,
            accept_ranges=True,
            cache_max_age=self._cache_max_age,
        ).raw

    def _not_modified_header(
        self, path: str, mtime: float, etag: str, keep_alive: bool
    ) -> bytes:
        """Build the 304 header for a file's current validators.

        Built fresh (the header cache holds 200s only): conditional
        requests take the full path only on a hot miss, and a hot entry
        keeps the 304 variants it has served.  RFC 7232 §4.1: the 304
        carries the same validators the 200 would have — ``Last-Modified``
        and ``ETag``.
        """
        return self._validator_header(304, path, mtime, keep_alive, etag=etag)

    def _validator_header(
        self, status: int, path: str, mtime: float, keep_alive: bool, **fields
    ) -> bytes:
        """A bodyless 304/412/416 header carrying the current validators.

        The 412 (RFC 7232 §4.2) repeats the validators so a client whose
        stored tag failed the precondition can resynchronize without an
        extra GET; the 416 carries ``Content-Range: bytes */N`` (RFC 7233
        §4.4) in place of the entity-tag.  None of them is stamped with
        the freshness lifetime.
        """
        return self.header_builder.build(
            status,
            content_length=0,
            content_type=guess_mime_type(path),
            last_modified=mtime,
            keep_alive=keep_alive,
            **fields,
        ).raw

    # -- the single-lookup hot path --------------------------------------------

    def hot_lookup(
        self,
        target: bytes,
        keep_alive: bool,
        *,
        head: bool = False,
        if_modified_since: Optional[str] = None,
        if_none_match: Optional[str] = None,
        if_match: Optional[str] = None,
        if_unmodified_since: Optional[str] = None,
        range_header: Optional[str] = None,
        if_range: Optional[str] = None,
    ) -> Optional[StaticContent]:
        """Serve ``target`` from the hot-response cache, if it can be.

        One dict probe.  On a hit the returned :class:`StaticContent`
        carries freshly pinned references to the entry's descriptor and
        chunks, so the caller releases it exactly like a slow-path
        response.  Returns ``None`` on a miss (or stale entry) — the caller
        then runs the full pipeline, whose successful result re-populates
        the cache via :meth:`hot_insert`.

        A plain GET (no conditional, no ``Range``, not HEAD) is answered
        straight from the entry: its own pins guarantee the descriptor and
        chunks are alive and off their caches' free lists, so the
        per-request pin is a bare refcount increment — no cache probe, no
        allocation beyond the response container itself.  Anything else is
        planned against the entry's cached validators by the same
        :func:`~repro.http.planner.plan_response` the slow path calls and
        assembled by the same :meth:`_assemble`: the entry's bodyless
        304, a fresh 206/412/416 header, and body windows sliced over the
        entry's already-pinned descriptor/chunks — no translation, no
        descriptor-cache probe, no re-``stat``.
        """
        if self.hot_cache is None:
            return None
        with self._maybe_lock():
            entry = self.hot_cache.lookup(target)
            if entry is None:
                self.stats.hot_misses += 1
                return None
            self.stats.hot_hits += 1
            if not (
                head
                or range_header
                or if_none_match
                or if_modified_since
                or if_match
                or if_unmodified_since
            ):
                handle = entry.file_handle
                if handle is not None:
                    handle.refcount += 1
                for chunk in entry.chunks:
                    chunk.refcount += 1
                header = entry.header_keep if keep_alive else entry.header_close
                if header is None:
                    header = self._variant_header(
                        200, entry.path, entry.size, entry.mtime, entry.etag, keep_alive, entry
                    )
                return StaticContent(
                    header=header,
                    segments=entry.segments,
                    chunks=entry.chunks,
                    content_length=entry.content_length,
                    file_handle=handle,
                    parts=entry.parts,
                    keep_alive=keep_alive,
                )
            status, windows = plan_response(
                size=entry.size,
                mtime=entry.mtime,
                etag=entry.etag,
                if_match=if_match,
                if_unmodified_since=if_unmodified_since,
                if_none_match=if_none_match,
                if_modified_since=if_modified_since,
                range_header=range_header,
                if_range=if_range,
            )
            return self._assemble(
                status,
                windows,
                entry.path,
                entry.size,
                entry.mtime,
                entry.etag,
                keep_alive,
                head,
                hot=entry,
                pin_windows=lambda parts: self._pin_hot_windows(entry, parts),
            )

    @staticmethod
    def _pin_hot_windows(entry: HotEntry, parts: Sequence[tuple[bytes, int, int]]) -> tuple:
        """The hot path's body source: the entry's own pinned resources.

        Chunk-backed bodies pin (and residency-test, and release) only the
        chunks each window intersects — exactly like the slow path's
        windowed acquisition — while fd-backed bodies carry the windows as
        ``sendfile`` offsets over the entry's descriptor.
        """
        handle = entry.file_handle
        if handle is not None:
            handle.refcount += 1
        if not entry.chunks:
            return handle, (), None
        chunks: list[MappedChunk] = []
        bodies = []
        for _, offset, length in parts:
            covering = _covering_chunks(entry.chunks, offset, length)
            for chunk in covering:
                chunk.refcount += 1
            chunks.extend(covering)
            bodies.append(_chunk_views(covering, offset, length))
        return handle, chunks, bodies

    def hot_insert(
        self, request: HTTPRequest, entry: PathnameEntry, content: StaticContent
    ) -> bool:
        """Cache ``content`` as the hot response for ``request``'s raw target.

        Called after a successful slow-path build.  Only the common
        cacheable shape is admitted: a plain static ``GET`` whose response
        has pinned transmission resources (a descriptor and/or mapped
        chunks) to reuse.  Everything else simply keeps taking the full
        pipeline.  The entry starts with the one header ``content`` was
        answered with; most entries are evicted before a second hit, so
        the other variants wait for the hit that wants them
        (:meth:`_variant_header`).  Returns True when an entry was
        (re)inserted.
        """
        if self.hot_cache is None or content.status != 200:
            return False
        if (
            request.method != "GET"
            or request.is_head
            or request.is_cgi
            or request.query
            or request.version not in ("HTTP/1.0", "HTTP/1.1")
        ):
            return False
        if content.file_handle is None and not content.chunks:
            return False
        target = request.uri.encode("latin-1")
        with self._maybe_lock():
            # Pin on the cache's behalf: these references are what ties the
            # entry's lifetime to its resources (insert takes ownership).
            handle = content.file_handle
            if handle is not None:
                handle.refcount += 1
            for chunk in content.chunks:
                chunk.refcount += 1
            hot_entry = HotEntry(
                target=target,
                path=entry.filesystem_path,
                size=entry.size,
                mtime=entry.mtime,
                etag=entry.etag,
                content_length=content.content_length,
                file_handle=handle,
                chunks=tuple(content.chunks),
                segments=tuple(content.segments),
            )
            hot_entry.file_header(200, content.keep_alive, content.header)
            admitted = self.hot_cache.insert(hot_entry)
        if admitted:
            self.stats.hot_insertions += 1
        return admitted

    def _acquire_chunks(
        self,
        entry: PathnameEntry,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> list[MappedChunk]:
        """Pin the mapped chunks covering ``(offset, length)`` of ``entry``.

        A full response pins every chunk; a Range window pins only the
        chunks it intersects, so a small range over a large file maps (and
        warms, and residency-tests) just that slice of it.
        """
        assert self.mmap_cache is not None
        with self._maybe_lock():
            if length is None:
                length = entry.size
            if length <= 0:
                return []
            chunk_size = self.mmap_cache.chunk_size
            first = offset // chunk_size
            last = (offset + length - 1) // chunk_size
            return [
                self.mmap_cache.acquire(entry.filesystem_path, i)
                for i in range(first, last + 1)
            ]

    def release_chunk(self, chunk: MappedChunk) -> None:
        """Return a pinned chunk to the mapped-file cache (or unmap it)."""
        if self.mmap_cache is None or chunk.key not in self.mmap_cache._chunks:
            chunk.refcount = max(0, chunk.refcount - 1)
            if chunk.refcount == 0:
                chunk.close()
            return
        with self._maybe_lock():
            self.mmap_cache.release(chunk)

    # -- residency and blocking I/O ------------------------------------------

    def content_resident(self, content: StaticContent) -> bool:
        """Whether ``content``'s body is memory resident (Section 5.7).

        Mapped bodies are tested chunk by chunk with ``mincore``.  Fd-backed
        (pure zero-copy) bodies have no mapping to test, so the query goes
        through :meth:`fd_resident` — a probe of the descriptor itself.
        Either stops at the first cold chunk or window.  When the residency
        test is disabled the content is treated as resident, which is
        exactly the behaviour of the Flash-SPED build.
        """
        if not self.config.enable_residency_test:
            return True
        if content.chunks:
            for chunk in content.chunks:
                if not self.mmap_cache.is_resident(chunk):
                    return False
        elif content.file_handle is not None:
            # Probe exactly the transmitted windows: a range far into the
            # file must not pass because the head is warm, and a tail
            # range must not fail (and re-warm forever) because of a cold
            # head it will never transmit.
            for _, offset, length in content.parts:
                if length > 0 and not self.fd_resident(content.file_handle, length, offset):
                    return False
        return True

    def fd_resident(self, handle: CachedFD, length: int, offset: int = 0) -> bool:
        """Residency of an fd-backed response-body window (no mapping).

        Asks the residency tester's ``file_resident``.  Resident verdicts
        are remembered on the descriptor for ``FD_RESIDENT_PROBE_TTL``
        seconds, so a hot file served in a burst pays one probe per window
        instead of one per request.  The cached verdict records the byte
        interval it covered: probes are window-scoped, and a warm range
        must not vouch for bytes it never inspected (nor the other way
        around).
        """
        now = time.monotonic()
        end = offset + length
        if (
            handle.resident_probe_expiry > now
            and offset >= handle.resident_probe_start
            and end <= handle.resident_probe_end
        ):
            return True
        resident = self.residency_tester.file_resident(
            handle.fd, length, path=handle.path, offset=offset
        )
        if resident:
            start = offset
            if (
                handle.resident_probe_expiry > now
                and handle.resident_probe_start <= end
                and offset <= handle.resident_probe_end
            ):
                # The fresh verdict overlaps (or abuts) a still-valid one:
                # the union is covered by probes within the TTL window.
                start = min(start, handle.resident_probe_start)
                end = max(end, handle.resident_probe_end)
            handle.resident_probe_start = start
            handle.resident_probe_end = end
            handle.resident_probe_expiry = now + FD_RESIDENT_PROBE_TTL
        return resident

    # The paper's documented disk-blocking step: helpers call this off-loop
    # (OP_READ); SPED calls it inline, which is exactly the architectural
    # cost under measurement.
    # repro-lint: allow[RL001] -- intentional blocking read: helper-side in AMPED, inline by design in SPED
    @staticmethod
    def read_file(path: str) -> bytes:
        """Plain blocking file read, used when the mmap cache is disabled."""
        with open(path, "rb") as handle:
            return handle.read()

    # repro-lint: allow[RL001] -- same contract as read_file: helper-side in AMPED, inline by design in SPED/fallbacks
    @staticmethod
    def read_file_range(path: str, offset: int, length: int) -> bytes:
        """Blocking read of a ``(offset, length)`` window of ``path``.

        The buffered body source for Range responses (and the sendfile
        fallback's window read); ``(0, size)`` degenerates to a full read.
        """
        from repro.testing.faults import faults

        if faults.take("disk_read"):
            # Injected media failure: the read errors like a dying disk
            # would, exercising the 404/500 conversion on every
            # architecture's buffered read route.
            raise OSError(errno.EIO, f"injected disk read failure: {path}")
        with open(path, "rb") as handle:
            if offset:
                handle.seek(offset)
            return handle.read(length)

    @staticmethod
    def touch_chunks(chunks: Iterable[MappedChunk]) -> int:
        """Touch every page of ``chunks``, forcing them into memory.

        This is the read helper's job in the AMPED architecture: the helper
        touches all pages of its mapping so that the main process can later
        transmit the file without risk of blocking.  Returns the number of
        bytes touched.
        """
        page = 4096
        touched = 0
        for chunk in chunks:
            view = chunk.view()
            for offset in range(0, chunk.length, page):
                # Reading one byte per page faults the page in.
                _ = view[offset]
            touched += chunk.length
        return touched

    # -- invalidation ----------------------------------------------------------

    def _on_pathname_invalidated(self, uri: str, entry: PathnameEntry) -> None:
        # The hot cache goes first so its pins are released before the
        # descriptor/chunk caches decide what they can close.  (The fd and
        # mmap hooks below would drop it too; this direct call also covers
        # configurations where those caches are disabled.)
        if self.hot_cache is not None:
            self.hot_cache.invalidate_path(entry.filesystem_path)
        if self.header_cache is not None:
            self.header_cache.invalidate(entry.filesystem_path)
        if self.mmap_cache is not None:
            self.mmap_cache.invalidate(entry.filesystem_path)
        self.fd_cache.invalidate(entry.filesystem_path)

    # -- misc -------------------------------------------------------------------

    def _maybe_lock(self):
        if self._lock is not None:
            return self._lock
        return _NULL_CONTEXT

    def stats_lock(self):
        """Context manager guarding :attr:`stats` updates from worker threads.

        ``x += 1`` is a read-modify-write even under the GIL, so the MT
        build's blocking workers wrap their counter updates in the store
        lock (as the :class:`ServerStats` docstring promises).  On the
        single-threaded and per-process builds this is the null context —
        zero overhead where no sharing exists.
        """
        return self._maybe_lock()

    def cache_stats(self) -> dict:
        """Hit-rate statistics for all three caches (for tests and reporting)."""
        stats = {}
        if self.pathname_cache is not None:
            stats["pathname"] = {
                "hits": self.pathname_cache.hits,
                "misses": self.pathname_cache.misses,
                "hit_rate": self.pathname_cache.hit_rate,
            }
        if self.header_cache is not None:
            stats["header"] = {
                "hits": self.header_cache.hits,
                "misses": self.header_cache.misses,
                "hit_rate": self.header_cache.hit_rate,
            }
        if self.mmap_cache is not None:
            stats["mmap"] = {
                "hits": self.mmap_cache.hits,
                "misses": self.mmap_cache.misses,
                "hit_rate": self.mmap_cache.hit_rate,
                "mapped_bytes": self.mmap_cache.mapped_bytes,
            }
        if self.fd_cache.hits or self.fd_cache.misses:
            stats["fd"] = {
                "hits": self.fd_cache.hits,
                "misses": self.fd_cache.misses,
                "hit_rate": self.fd_cache.hit_rate,
                "open": len(self.fd_cache),
            }
        if self.hot_cache is not None:
            stats["hot"] = self.hot_cache.stats()
        return stats

    def close(self) -> None:
        """Release every mapping and descriptor held by the caches.

        The hot cache unpins first — its entries hold references into the
        descriptor and chunk caches, which could otherwise not release
        everything.
        """
        if self.hot_cache is not None:
            self.hot_cache.clear()
        if self.mmap_cache is not None:
            self.mmap_cache.clear()
        self.fd_cache.clear()

    def __del__(self):  # pragma: no cover - depends on GC timing
        # Backstop releaser: the fd cache holds raw integer descriptors,
        # which the GC cannot release on its own.  Long-lived servers call
        # :meth:`close` explicitly; this covers stores dropped without it
        # (short-lived tools, tests) so descriptors never outlive the store.
        try:
            self.close()
        except Exception:
            pass


class _NullContext:
    """Context manager that does nothing (single-threaded builds)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


#: Stateless, so one instance serves every unlocked section: taking the
#: "lock" on a single-threaded build allocates nothing.
_NULL_CONTEXT = _NullContext()
