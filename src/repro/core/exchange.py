# repro-lint: domain=event
"""One HTTP exchange, decided once for all four architectures.

The paper builds SPED, AMPED, MT and MP from one code base so that the
concurrency strategy is the only variable (Section 6).  Everything between
"a request head is complete" and "a sender is ready to be stepped" is a
*decision*, not I/O — so it lives here, as plain functions over a
:class:`ContentStore`, and the two transports (``Connection`` on the event
loop, ``servers.blocking.handle_client`` in a worker) call the same ones.
``docs/ARCHITECTURE.md`` tabulates decision → function → caller.

No socket and no event loop is touched here; the connection's lifecycle
around an exchange (parsing, deadlines, keep-alive) is
:mod:`repro.core.session`'s, and each transport keeps only the I/O:
timer wheel vs socket timeouts, selector vs ``select``.  Counters move under
``store.stats_lock()`` — the store lock in the MT build, the null context
everywhere else — so every architecture counts an exchange the same way.

The raw-target hit of the fast probe (``Connection._try_hot_fast``) does
not come through here: it has no parsed request to decide anything about,
and calls ``store.hot_lookup(target, keep_alive)`` directly.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Optional

from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, StaticContent
from repro.core.send_path import SendPath, choose_send_path
from repro.core.streaming import ResponseSource, StreamingSendPath
from repro.http.errors import HTTPError, NotFoundError
from repro.http.request import HTTPRequest
from repro.http.response import build_error_response

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sse import SSEHub

logger = logging.getLogger(__name__)

#: Answers of :func:`route`.
ROUTE_SSE = "sse"
ROUTE_CGI = "cgi"
ROUTE_STATIC = "static"


def disposition(requested: bool, config: ServerConfig, draining: bool, more_buffered) -> bool:
    """Whether the connection stays open after the response being planned.

    During drain a response may stay keep-alive only while further
    pipelined bytes are buffered behind it — in-flight pipelined requests
    complete — and the last buffered response carries ``Connection:
    close`` so a well-behaved client moves elsewhere.
    """
    return bool(requested and config.keep_alive and not (draining and not more_buffered))


def route(store: ContentStore, config: ServerConfig, request: HTTPRequest) -> str:
    """Count a parsed request and say which kind of answer it gets."""
    with store.stats_lock():
        store.stats.requests += 1
        if config.sse_path and request.path == config.sse_path:
            return ROUTE_SSE
        if request.is_cgi:
            store.stats.cgi_requests += 1
            return ROUTE_CGI
    return ROUTE_STATIC


def hot_consult(
    store: ContentStore, config: ServerConfig, request: HTTPRequest, keep_alive: bool
) -> Optional[StaticContent]:
    """Hot-cache consult for a fully parsed request (``ContentStore.hot_lookup``).

    GET and HEAD are eligible, conditionals and ``Range`` included.  The
    raw request URI is the key, so any spelling the fast probe declines
    (escapes, dot segments) simply misses and takes the full path.
    """
    if not config.hot_cache or request.method not in ("GET", "HEAD"):
        return None
    return store.hot_lookup(
        request.uri.encode("latin-1"),
        keep_alive,
        head=request.is_head,
        if_modified_since=request.if_modified_since,
        if_none_match=request.if_none_match,
        if_match=request.if_match,
        if_unmodified_since=request.if_unmodified_since,
        range_header=request.range_header,
        if_range=request.if_range,
    )


def static_miss(store: ContentStore, request: HTTPRequest, keep_alive: bool) -> StaticContent:
    """Translate, build and cache a static response, inline.

    May block on disk — which is SPED's defining cost and the MT/MP
    workers' concurrency model; AMPED splits the same three steps around
    its helpers instead (``FlashServer.respond_async``).  A path that does
    not translate is a 404; a build that fails on disk stays an
    ``OSError``, which :func:`failure_sender` answers with a 500.  The
    insert populates the single-lookup hot path: the next request for this
    raw target skips translation, header build and the descriptor probe
    (refused shapes are a no-op).
    """
    with store.stats_lock():
        store.stats.blocking_translations += 1
    try:
        entry = store.translate(request.path)
    except OSError as exc:
        raise NotFoundError(str(exc))
    content = store.build_response(request, entry, keep_alive=keep_alive)
    store.hot_insert(request, entry, content)
    return content


def static_sender(store: ContentStore, config: ServerConfig, content: StaticContent) -> SendPath:
    """Count a static answer and build its sender (see ``choose_send_path``)."""
    with store.stats_lock():
        store.stats.responses_ok += 1
        return choose_send_path(content, store=store, config=config, stats=store.stats)


def _stream_sender(
    store: ContentStore,
    request: HTTPRequest,
    source: ResponseSource,
    keep_alive: bool,
    content_type: str,
    cache_control: Optional[str] = None,
) -> tuple[StreamingSendPath, bool]:
    """Frame a response whose length is unknown up front.

    HTTP/1.1 consumers get ``Transfer-Encoding: chunked`` framing and may
    keep the connection alive afterwards; HTTP/1.0 consumers get the
    close-delimited fallback (the connection close is the framing, so
    keep-alive is off regardless of the request's preference).
    """
    chunked = request.version == "HTTP/1.1"
    keep_alive = keep_alive and chunked
    with store.stats_lock():
        store.stats.responses_ok += 1
        store.stats.streamed_responses += 1
        if chunked:
            store.stats.chunked_responses += 1
    header = store.header_builder.build_stream(
        200,
        content_type=content_type,
        chunked=chunked,
        keep_alive=keep_alive,
        cache_control=cache_control,
    ).raw

    def on_pause() -> None:
        # Send-buffer pressure paused the producing source (one edge).
        with store.stats_lock():
            store.stats.backpressure_pauses += 1

    return StreamingSendPath(header, source, chunked=chunked, on_pause=on_pause), keep_alive


def cgi_sender(
    store: ContentStore, request: HTTPRequest, body, keep_alive: bool
) -> tuple[object, bool]:
    """The sender for a CGI program's output, and the disposition after it.

    ``body`` is the whole document (bytes) or, for a streaming
    application, the :class:`ResponseSource` its chunks arrive through.
    """
    if isinstance(body, ResponseSource):
        return _stream_sender(store, request, body, keep_alive, "text/html")
    with store.stats_lock():
        store.stats.responses_ok += 1
    header = store.header_builder.build(
        200, content_length=len(body), content_type="text/html", keep_alive=keep_alive
    ).raw
    return SendPath([header, body], store), keep_alive


def sse_sender(
    store: ContentStore, hub: Optional["SSEHub"], request: HTTPRequest
) -> StreamingSendPath:
    """Subscribe to the server's SSE hub; the sender of the event stream.

    An event stream has no natural end: the connection is spent once the
    subscription finishes (hub close, disconnect policy, reap), so the
    header always says ``Connection: close``.
    """
    if hub is None or request.method not in ("GET", "HEAD"):
        raise HTTPError("no event stream here", status=404)
    subscriber = hub.subscribe()
    with store.stats_lock():
        store.stats.sse_connections += 1
    sender, _ = _stream_sender(
        store, request, subscriber, False, "text/event-stream", cache_control="no-store"
    )
    return sender


def error_sender(store: ContentStore, status: int, message: str, keep_alive: bool) -> SendPath:
    """Count an error answer and build its (header + small HTML body) sender."""
    with store.stats_lock():
        store.stats.responses_error += 1
    payload = build_error_response(
        status, message, builder=store.header_builder, keep_alive=keep_alive
    )
    return SendPath([payload], store)


def failure_sender(
    store: ContentStore, error: Exception, keep_alive: bool
) -> tuple[SendPath, bool]:
    """Answer an exception raised while planning a response.

    An :class:`HTTPError` is the client's problem: its status, and the
    connection's disposition stands.  Anything else (a disk error from the
    build, a crashed CGI program) is ours: logged, 500, and the connection
    closes.
    """
    if isinstance(error, HTTPError):
        status, message = error.status, error.message
    else:
        logger.error("internal error answering a request", exc_info=error)
        status, message, keep_alive = 500, str(error), False
    return error_sender(store, status, message, keep_alive), keep_alive
