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

import functools
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cache.hot_response import HotEntry, HotResponseCache
from repro.cache.mapped_file import CachedFD, FileDescriptorCache
from repro.cache.pathname import PathnameCache, PathnameEntry
from repro.cache.residency import MincoreResidencyTester, ResidencyTester
from repro.cache.response_header import ResponseHeaderCache
from repro.core.config import ServerConfig
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
    #: ``OP_WARM`` dispatches: every cold body AMPED warms through a helper,
    #: whether it then leaves by ``sendfile`` or by buffered reads.
    blocking_reads: int = 0
    cgi_requests: int = 0
    sendfile_responses: int = 0
    sendfile_fallbacks: int = 0
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
    #: Exceptions caught by the crash barriers (event-loop readiness
    #: handlers, timers, completions and drain steps; the MT/MP workers'
    #: per-connection handler).  Anything non-zero means a bug was absorbed
    #: instead of killing every connection on the loop, or the worker.
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
    answer (HEAD, 304, 412, 416) has none.  Every file window leaves from
    the one pinned descriptor, ``file_handle``.

    Attributes
    ----------
    header:
        The encoded response header (already aligned per Section 5.5).
    content_length:
        Total body length in bytes (part heads + file windows + trailer).
    status:
        HTTP status code of the response.
    file_handle:
        The pinned open descriptor of the served file, present whenever the
        body has file bytes; the connection releases it when transmission
        finishes or the connection dies.
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
    buffered:
        Whether the windows leave by bounded positional reads
        (:meth:`window_buffers`) instead of ``sendfile``: zero-copy is off
        or unavailable, AMPED's warm failed, or ``sendfile`` refused this
        descriptor mid-transfer.
    """

    header: bytes
    content_length: int = 0
    status: int = 200
    file_handle: Optional[CachedFD] = None
    parts: Sequence[tuple[bytes, int, int]] = ()
    trailer: bytes = b""
    keep_alive: bool = False
    buffered: bool = False

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

        The one "window to bytes" route, used by every buffered send (see
        ``buffered``): a positional read from the pinned descriptor, so
        the bytes are those of the inode the header describes even when
        the path now names another file.  Comes up short when the file
        shrank.
        """
        return [ContentStore.read_file_range(self.file_handle.fd, offset, length)]

    def release(self, store: "ContentStore") -> None:
        """Return the pinned descriptor to the descriptor cache.  Idempotent."""
        handle, self.file_handle = self.file_handle, None
        if handle is not None:
            store.release_fd(handle)


class ContentStore:
    """Caches plus file access: the heart of the shared code base.

    A single instance is shared by all connections of a SPED/AMPED/MT server
    (the MT build serializes updates with ``lock``); the MP build creates one
    instance per worker process with the scaled-down configuration from
    :meth:`repro.core.config.ServerConfig.per_process_scaled`.

    The pathname and header caches can be disabled through the
    configuration; the descriptor cache is the one body source and is
    always on.  (The Figure 11 breakdown, which also turns the paper's
    mapped-file cache off, is reproduced in :mod:`repro.sim`.)
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
        # Reentrant: cache-invalidation hooks (invalidate_file -> hot-cache
        # release) run inside locked sections and re-enter through the
        # public release methods.
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
                on_invalidate=lambda _, entry: self.invalidate_file(entry.filesystem_path),
                revalidate_interval=config.hot_cache_revalidate,
            )

        self.header_cache: Optional[ResponseHeaderCache] = None
        if config.enable_header_cache:
            self.header_cache = ResponseHeaderCache(
                builder=self.header_builder,
                max_entries=config.header_cache_entries,
            )

        #: Open-descriptor cache: every static body with bytes leaves from
        #: a descriptor pinned here, by ``sendfile`` or by positional reads.
        self.fd_cache = FileDescriptorCache(max_entries=config.fd_cache_entries)

        #: Unified hot-response cache: one probe on the raw request-target
        #: bytes returns a fully precomposed response (validated path,
        #: header variants, pinned descriptor), retiring the
        #: pathname/header/fd triple-lookup chain from the hot path.
        self.hot_cache: Optional[HotResponseCache] = None
        if config.hot_cache:
            # Each entry pins a descriptor, and pinned descriptors are
            # exempt from the fd cache's eviction — so the hot cache holds
            # at most one entry per descriptor the fd cache may hold.
            self.hot_cache = HotResponseCache(
                max_entries=max(1, config.fd_cache_entries),
                revalidate_interval=config.hot_cache_revalidate,
                release_fd=self.release_fd,
                on_change=self.invalidate_file,
            )
            # Entries must never outlive their pinned descriptor: when the
            # descriptor cache invalidates a file, the hot entry is dropped
            # in the same call.
            self.fd_cache.on_invalidate = self.hot_cache.invalidate_path

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
        """Return the fresh cached translation for ``uri``, never translating.

        Returns ``None`` on a cache miss or a changed file (or when the
        pathname cache is disabled); the AMPED server then dispatches the
        translation to a helper.  An expired hit pays one inline ``stat``,
        as the hot cache does, not a helper round trip.
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

        The response header comes from the header cache when enabled; a
        body with bytes is a list of windows over a descriptor pinned from
        the descriptor cache — the build reads no body byte.  An open
        failure propagates as ``OSError`` and is answered 500.  HEAD
        requests get the header only.

        ``map_body`` is accepted and ignored: ``bench/layers.py`` still
        passes it, and ROADMAP item 2 removes it with the next benchmark
        change.

        What to answer — 200, 206 (plain or ``multipart/byteranges``),
        304, 412 or 416 — is decided by
        :func:`repro.http.planner.plan_response` against the entry's
        strong entity-tag and mtime; :meth:`_assemble` turns the plan into
        bytes.  :meth:`hot_lookup` runs the same two steps, so the paths
        agree by construction.
        """
        if keep_alive is None:
            keep_alive = request.keep_alive and self.config.keep_alive
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
        hot: Optional[HotEntry] = None,
    ) -> StaticContent:
        """Turn a ``plan_response`` verdict into a transmittable response.

        Shared by the slow path and the hot-cache read-side hit; the two
        differ only in ``hot``, the hit entry: its 200/304 header variants
        answer before anything is composed (see :meth:`_variant_header`),
        and its descriptor is the one the body windows pin, where the slow
        path acquires one from the descriptor cache.  The validator-only
        headers (412/416) and the client-shaped ones (206) are built fresh
        with the shared builder, and every status counter is bumped here.
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
                content_length=0,
                status=status,
                keep_alive=keep_alive,
            )
        if hot is None:
            handle = self._acquire_fd(path, size)
        else:
            handle = hot.file_handle
            if handle is not None:
                handle.refcount += 1
        return StaticContent(
            header=header,
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

    def _acquire_fd(self, path: str, size: int) -> Optional[CachedFD]:
        """Pin the cached open descriptor every window of a body leaves from.

        ``None`` for an empty file, which has no window.  An open failure
        raises ``OSError``: there is no other route to the bytes.
        """
        if size <= 0:
            return None
        with self._maybe_lock():
            return self.fd_cache.acquire(path)

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

    def hot_entry(self, target: bytes) -> Optional[HotEntry]:
        """The fresh hot entry for ``target``, or ``None``: one dict probe.

        The one place a hot lookup is made, revalidated and counted in
        ``hot_hits``/``hot_misses``.  A caller that keeps the entry's
        descriptor past the current loop step pins it.
        """
        if self.hot_cache is None:
            return None
        with self._maybe_lock():
            entry = self.hot_cache.lookup(target)
            if entry is None:
                self.stats.hot_misses += 1
            else:
                self.stats.hot_hits += 1
            return entry

    def hot_header(self, entry: HotEntry, keep_alive: bool) -> bytes:
        """The entry's 200 header for the disposition (see :meth:`_variant_header`)."""
        header = entry.header_keep if keep_alive else entry.header_close
        if header is None:
            header = self._variant_header(
                200, entry.path, entry.size, entry.mtime, entry.etag, keep_alive, entry
            )
        return header

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

        :meth:`hot_entry`, wrapped as a response.  On a hit the returned
        :class:`StaticContent` carries a freshly pinned reference to the
        entry's descriptor, so the caller releases it exactly like a
        slow-path response.  Returns ``None`` on a miss (or stale entry) —
        the caller then runs the full pipeline, whose successful result
        re-populates the cache via :meth:`hot_insert`.

        A plain GET (no conditional, no ``Range``, not HEAD) is answered
        straight from the entry: its own pin guarantees the descriptor is
        alive and off its cache's free list, so the per-request pin is a
        bare refcount increment.  Anything else is
        planned against the entry's cached validators by the same
        :func:`~repro.http.planner.plan_response` the slow path calls and
        assembled by the same :meth:`_assemble`: the entry's bodyless
        304, a fresh 206/412/416 header, and body windows over the entry's
        already-pinned descriptor — no translation, no descriptor-cache
        probe, no re-``stat``.
        """
        with self._maybe_lock():
            entry = self.hot_entry(target)
            if entry is None:
                return None
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
                return StaticContent(
                    header=self.hot_header(entry, keep_alive),
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
            )

    def hot_insert(
        self, request: HTTPRequest, entry: PathnameEntry, content: StaticContent
    ) -> bool:
        """Cache ``content`` as the hot response for ``request``'s raw target.

        Called after a successful slow-path build.  Only the common
        cacheable shape is admitted: a plain static ``GET`` whose response
        has a pinned descriptor to reuse.  Everything else simply keeps taking the full
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
        handle = content.file_handle
        if handle is None:
            return False
        target = request.uri.encode("latin-1")
        with self._maybe_lock():
            # Pin on the cache's behalf: this reference is what ties the
            # entry's lifetime to its descriptor (insert takes ownership).
            handle.refcount += 1
            hot_entry = HotEntry(
                target=target,
                path=entry.filesystem_path,
                size=entry.size,
                mtime=entry.mtime,
                etag=entry.etag,
                content_length=content.content_length,
                file_handle=handle,
                validated_at=entry.validated_at,
            )
            hot_entry.file_header(200, content.keep_alive, content.header)
            self.hot_cache.insert(hot_entry)
        self.stats.hot_insertions += 1
        return True

    # -- residency and blocking I/O ------------------------------------------

    def content_resident(self, content: StaticContent) -> bool:
        """Whether ``content``'s body is memory resident (Section 5.7).

        Each window is asked of the pinned descriptor (:meth:`fd_resident`),
        stopping at the first cold one.  Content without a descriptor has
        no body to fault in.
        """
        handle = content.file_handle
        if handle is None:
            return True
        # Probe exactly the transmitted windows: a range far into the file
        # must not pass because the head is warm, and a tail range must not
        # fail (and re-warm forever) because of a cold head it will never
        # transmit.
        for _, offset, length in content.parts:
            if length > 0 and not self.fd_resident(handle, length, offset):
                return False
        return True

    def fd_resident(self, handle: CachedFD, length: int, offset: int = 0) -> bool:
        """Residency of an fd-backed response-body window (no mapping).

        Cold while a helper warms the descriptor: the probe counts pages
        whose read is still in flight as cached, so a second request for a
        file being warmed would pass it and block the loop in ``sendfile``;
        it goes to its own ``OP_WARM`` instead, which waits in a helper.
        Otherwise one ``file_resident`` probe answers, every time.
        """
        if handle.warming:
            return False
        return self.residency_tester.file_resident(
            handle.fd, length, path=handle.path, offset=offset
        )

    # The buffered send's disk step: AMPED reads only windows its residency
    # probe found resident or a helper warmed (or whose warm failed, the
    # deliberate last resort); SPED reads inline, which is exactly the
    # architectural cost under measurement.
    # repro-lint: allow[RL001] -- intentional blocking read: of a warmed window in AMPED, inline by design in SPED/fallbacks
    @staticmethod
    def read_file_range(fd: int, offset: int, length: int) -> bytes:
        """Blocking positional read of ``length`` bytes at ``offset`` of ``fd``.

        Short only at end of file.  ``pread`` leaves the descriptor's file
        offset alone, so a shared cached descriptor may be read by several
        senders at once.
        """
        return os.pread(fd, length, offset)

    # -- invalidation ----------------------------------------------------------

    def invalidate_file(self, path: str) -> None:
        """The one fan-out for a changed (or explicitly dropped) file.

        Translations, hot entries and the descriptor go, so the next
        request re-translates and reopens a replaced inode; header keys
        carry size and mtime.  Hot first, so its pins are released before
        the fd cache decides what it can close.
        """
        if self.pathname_cache is not None:
            self.pathname_cache.invalidate_path(path)
        if self.hot_cache is not None:
            self.hot_cache.invalidate_path(path)
        self.fd_cache.invalidate(path)

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
        """Hit-rate statistics for every cache (for tests and reporting)."""
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
        """Release every descriptor held by the caches.

        The hot cache unpins first — its entries hold references into the
        descriptor cache, which could otherwise not release everything.
        """
        if self.hot_cache is not None:
            self.hot_cache.clear()
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
