"""Persistent CGI-style application runner (paper Section 5.6).

The original Flash forwards dynamic requests to CGI-bin application
*processes* via pipes and keeps those processes alive across requests
(FastCGI-style).  Here a CGI application is a Python callable registered
under a name; requests to ``/cgi-bin/<name>`` are forwarded to a persistent
worker thread dedicated to that application.  Workers are created lazily on
first use ("if a process does not currently exist, the server creates it"),
process one request at a time, and return the generated document.  Because
the application runs outside the event loop, it can block or compute for a
long time without stalling the server, which is the property Section 5.6
cares about.

The MP and MT builds block in :meth:`CGIRunner.run` for the result.  For the
SPED and AMPED builds the runner is bound to the event loop, and the worker
posts each result with :meth:`EventLoop.call_soon` — the path thread-mode
helpers take — so the response callback runs on the loop thread.

Streaming applications
----------------------

An application that returns *bytes* (or ``str``) is buffered exactly as
before.  An application that returns an **iterator/generator** streams:
its chunks flow through a *bounded* per-request queue
(``stream_depth`` entries) to the consumer, and the worker blocks on
``put`` when the queue is full — which is the CGI half of the streaming
backpressure design.  When the consuming connection pauses its source
(socket stopped draining), chunk notifications stop, the queue fills,
and the worker blocks in its queue write instead of the server buffering
unboundedly.  ``cancel`` (set when the consumer is reaped) unblocks the
worker and lets it run the generator's ``finally`` blocks.
"""

from __future__ import annotations

import logging
import queue
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Union

from repro.core.streaming import END_OF_STREAM, ResponseSource, WOULD_BLOCK
from repro.http.errors import NotFoundError
from repro.http.request import CGI_PREFIX, HTTPRequest

logger = logging.getLogger(__name__)

#: Signature of a CGI application: it receives the request data and returns
#: the response body as bytes (buffered) or an iterator of chunks (streamed).
CGIProgram = Callable[["CGIRequestData"], Union[bytes, Iterator[bytes]]]


@dataclass
class CGIRequestData:
    """The subset of a request forwarded to a CGI application."""

    program: str
    path: str
    query: str = ""
    method: str = "GET"
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def from_request(cls, program: str, request: HTTPRequest) -> "CGIRequestData":
        """Extract the CGI-visible fields from a parsed HTTP request."""
        return cls(
            program=program,
            path=request.path,
            query=request.query,
            method=request.method,
            headers=dict(request.headers),
            body=request.body,
        )


class _StreamEnd:
    """In-queue terminator: follows the last chunk through the chunk queue."""

    __slots__ = ("error_message",)

    def __init__(self, error_message: str = "") -> None:
        self.error_message = error_message


def _put_with_cancel(chunks: queue.Queue, item, cancel: threading.Event) -> bool:
    """Bounded put that aborts when the consumer cancelled the stream.

    The blocking ``put`` on a full queue IS the backpressure: the worker
    stalls until the consumer drains or gives up.  Polls the cancel flag so a reaped
    consumer cannot wedge the worker forever.
    """
    while not cancel.is_set():
        try:
            chunks.put(item, timeout=0.1)
            return True
        except queue.Full:
            continue
    return False


class CGIStreamSource(ResponseSource):
    """Streaming CGI output as a :class:`ResponseSource`.

    Wraps the bounded chunk queue a worker fills.  ``pause`` suppresses
    ready-notifications (the event-driven analog of unregistering the
    child pipe): chunks keep landing until the queue is full, at which
    point the producer blocks.  ``close`` sets the cancel flag and drains
    the queue so a blocked producer wakes up and can tear down.
    """

    def __init__(self, chunks: queue.Queue, cancel: threading.Event) -> None:
        super().__init__()
        self._chunks = chunks
        self._cancel = cancel
        self._paused = False
        self._ended = False
        self._closed = False

    def next_segment(self):
        if self._ended or self._closed:
            return END_OF_STREAM
        try:
            item = self._chunks.get_nowait()
        except queue.Empty:
            return WOULD_BLOCK
        if isinstance(item, _StreamEnd):
            self._ended = True
            if item.error_message:
                self.failed = True
            return END_OF_STREAM
        return item

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    def notify_data(self) -> None:
        """Chunk arrived: wake the parked consumer unless it paused us."""
        if not self._paused and not self._closed:
            self.notify_ready()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._cancel.set()
        try:
            while True:
                self._chunks.get_nowait()
        except queue.Empty:
            pass


class CGIRunner:
    """Dispatches dynamic requests to persistent per-application workers.

    Parameters
    ----------
    programs:
        Mapping of application name (the path component after
        ``/cgi-bin/``) to the application callable.
    stream_depth:
        Bound on the per-request chunk queue of a streaming application;
        the producer blocks once this many chunks are unconsumed.
    loop:
        Event loop that :meth:`submit` results are posted to (the same as
        :meth:`register`).  An unbound runner posts nothing.
    """

    def __init__(
        self,
        programs: Optional[dict] = None,
        stream_depth: int = 8,
        loop=None,
    ):
        self.programs: dict[str, CGIProgram] = dict(programs or {})
        self.stream_depth = max(1, stream_depth)
        self._workers: dict[str, _ThreadWorker] = {}
        self._loop = loop
        self._closed = False
        self.requests_run = 0

    # -- registration ---------------------------------------------------------

    def register_program(self, name: str, program: CGIProgram) -> None:
        """Add (or replace) an application.  Its worker starts on first use."""
        self.programs[name] = program

    def program_name(self, request: HTTPRequest) -> str:
        """Extract the application name from a dynamic request path."""
        if not request.is_cgi:
            raise NotFoundError(f"not a CGI path: {request.path}")
        name = request.path[len(CGI_PREFIX):].split("/", 1)[0]
        if not name or name not in self.programs:
            raise NotFoundError(f"no such CGI program: {name!r}")
        return name

    # -- synchronous execution (MP/MT builds) -----------------------------------

    def run(self, request: HTTPRequest):
        """Run the application for ``request``; body bytes or chunk iterator.

        This blocks the caller until the application finishes (buffered
        programs) or produces its first delivery (streaming programs),
        which is the natural mode for the MP and MT builds where each
        worker handles one request at a time anyway.  A streaming program
        yields a generator of chunks; iterating it paces the application
        through the bounded queue, and closing it cancels the stream.
        """
        name = self.program_name(request)
        outcome: queue.Queue = queue.Queue()
        self._worker_for(name).run(
            CGIRequestData.from_request(name, request), lambda *done: outcome.put(done)
        )
        result, error = outcome.get()
        self.requests_run += 1
        if error:
            raise RuntimeError(f"CGI program {name!r} failed: {error}")
        if isinstance(result, CGIStreamSource):
            return _drain_stream(result)
        return result

    # -- asynchronous execution (SPED/AMPED builds) -------------------------------

    def submit(self, request: HTTPRequest, callback: Callable) -> None:
        """Run the application without blocking; ``callback(result, error)``.

        ``result`` is the body bytes for buffered programs or a
        :class:`CGIStreamSource` for streaming ones.  The worker posts the
        call to the bound event loop, so it runs on the loop thread.
        """
        try:
            name = self.program_name(request)
        except NotFoundError as exc:
            callback(None, exc)
            return

        def deliver(result, error: str) -> None:
            self._post(partial(self._finish, callback, result, error))

        self._worker_for(name).run(CGIRequestData.from_request(name, request), deliver, self._post)

    def register(self, loop) -> None:
        """Bind the runner to the event loop that runs its callbacks."""
        self._loop = loop

    def unregister(self, loop) -> None:
        """Unbind the runner: later results are posted nowhere."""
        self._loop = None

    def _post(self, callback: Callable[[], None]) -> None:
        loop = self._loop
        if loop is not None:
            loop.call_soon(callback)

    def _finish(self, callback: Callable, result, error: str) -> None:
        try:
            self.requests_run += 1
            if error:
                callback(None, RuntimeError(error))
            else:
                callback(result, None)
        except Exception:
            # Crash barrier (lint rule RL005): runs as a posted loop
            # callback; a response-callback bug must not kill the loop.
            logger.exception("unhandled error in CGI completion (absorbed)")

    # -- lifecycle ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            worker.stop()
        self._workers.clear()

    @property
    def active_workers(self) -> int:
        """Number of application workers currently alive."""
        return len(self._workers)

    def _worker_for(self, name: str) -> "_ThreadWorker":
        worker = self._workers.get(name)
        if worker is None:
            worker = _ThreadWorker(name, self.programs[name], self.stream_depth)
            self._workers[name] = worker
        return worker


def _drain_stream(source: CGIStreamSource):
    """Generator over a stream's bounded queue (blocking-architecture drive)."""
    try:
        while True:
            item = source._chunks.get()
            if isinstance(item, _StreamEnd):
                if item.error_message:
                    raise RuntimeError(f"CGI stream failed: {item.error_message}")
                return
            yield item
    finally:
        source.close()


def _run_program(
    program: CGIProgram,
    data: CGIRequestData,
    stream_depth: int,
    deliver: Callable,
    post: Optional[Callable] = None,
) -> None:
    """Execute one application request, buffered or streamed.

    ``deliver(result, error)`` is called once, with the body bytes, a
    :class:`CGIStreamSource` for a streaming application, or an error
    message.  ``post`` (the asynchronous drive's) then receives the
    source's ``notify_data`` after every chunk and at the end of the
    stream, to wake the parked consumer on the loop thread; the
    synchronous drive reads the chunk queue directly and passes none.
    """
    try:
        body = program(data)
        if isinstance(body, str):
            body = body.encode("utf-8")
        if isinstance(body, (bytes, bytearray, memoryview)):
            deliver(bytes(body), "")
            return
    except Exception as exc:  # noqa: BLE001 - worker must survive app errors
        deliver(None, f"{type(exc).__name__}: {exc}")
        return
    chunks: queue.Queue = queue.Queue(maxsize=max(1, stream_depth))
    cancel = threading.Event()
    source = CGIStreamSource(chunks, cancel)
    deliver(source, "")
    error = ""
    try:
        for chunk in body:
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8")
            if not len(chunk):
                continue
            if not _put_with_cancel(chunks, bytes(chunk), cancel):
                break
            if post is not None:
                post(source.notify_data)
    except Exception as exc:  # noqa: BLE001 - worker must survive app errors
        error = f"{type(exc).__name__}: {exc}"
    finally:
        closer = getattr(body, "close", None)
        if closer is not None:
            try:
                closer()
            except Exception:  # noqa: BLE001 - generator cleanup is best-effort
                logger.exception("CGI stream generator close failed (absorbed)")
    _put_with_cancel(chunks, _StreamEnd(error), cancel)
    if post is not None:
        post(source.notify_data)


class _ThreadWorker:
    """Persistent worker thread dedicated to one application."""

    def __init__(self, name: str, program: CGIProgram, stream_depth: int = 8):
        self.name = name
        self.program = program
        self.stream_depth = stream_depth
        self._jobs: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._main, name=f"cgi-{name}", daemon=True
        )
        self._thread.start()

    def _main(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            data, deliver, post = job
            _run_program(self.program, data, self.stream_depth, deliver, post)

    def run(
        self, data: CGIRequestData, deliver: Callable, post: Optional[Callable] = None
    ) -> None:
        """Queue one request; see :func:`_run_program` for the callbacks."""
        self._jobs.put((data, deliver, post))

    def stop(self) -> None:
        self._jobs.put(None)
        self._thread.join(timeout=5.0)
