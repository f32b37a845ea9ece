"""Per-layer measurement from outside: an in-process replay and layer probes.

Nothing here changes the program.  The benchmark builds the program's own
objects (a ``ContentStore``, a ``RequestParser``, an un-started server),
calls their public functions single-threaded in the order
``core/connection.py`` does, and records a span around each call.

* :class:`Replay` pushes a workload's requests through parse -> hot lookup
  -> (translate -> build -> residency -> hot insert) -> send, over a real
  loopback socket, giving each layer's self time per request.
* :func:`probe_layers` measures each named per-layer metric on a fixed
  probe docroot (64 x 4 KiB and one 256 KiB file), so a metric means the
  same thing in every workload's traced run.
* :func:`probe_connection` drives an un-started SPED server with
  ``loop.run_once(0)`` from this thread and subtracts the layer spans of
  the same request, which leaves ``core/connection.py`` and the event loop.
"""

from __future__ import annotations

import os
import socket
import statistics
import time
import tracemalloc
from typing import Optional, Sequence

from repro.cache.hot_response import HotEntry
from repro.core.config import ServerConfig
from repro.core.event_loop import EVENT_READ, EVENT_WRITE, EventLoop
from repro.core.helpers import OP_TRANSLATE, HelperPool, HelperRequest
from repro.core.pipeline import ContentStore
from repro.core.send_path import choose_send_path
from repro.core.streaming import IterableSource, StreamingSendPath
from repro.http.request import RequestParser, probe_fast_request
from repro.servers import create_server

from bench import spans as span_tools
from bench import verify, workloads
from bench.procs import BenchError

#: Repetitions of each probe; medians are reported.
PROBE_REPEATS = 400

LARGE_NAME = "large.bin"
LARGE_BYTES = 256 * 1024


class LoopbackPair:
    """A connected loopback TCP pair: ``server`` is what a send path writes
    to (non-blocking, as an accepted connection is), ``client`` is drained
    by the benchmark between writes."""

    def __init__(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            self.client = socket.create_connection(listener.getsockname())
            self.server, _ = listener.accept()
        finally:
            listener.close()
        self.server.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.setblocking(False)
        self.client.setblocking(False)

    def drain(self) -> int:
        total = 0
        while True:
            try:
                data = self.client.recv(1 << 20)
            except BlockingIOError:
                return total
            if not data:
                return total
            total += len(data)

    def close(self) -> None:
        self.client.close()
        self.server.close()


def _lookup_tag(content) -> str:
    return "miss" if content is None else str(content.status)


class Replay:
    """One request at a time through the layers, as the connection does."""

    def __init__(self, config: ServerConfig, tracer, store: Optional[ContentStore] = None):
        self.config = config
        self.tracer = tracer
        self.owns_store = store is None
        self.store = ContentStore(config) if store is None else store
        self.parser = RequestParser(
            max_header_bytes=config.max_header_bytes, fast=config.fast_parse
        )
        self.pair = LoopbackPair()
        # Callees inside the program become child spans, so a caller's self
        # time excludes them.  Only objects this replay owns are wrapped.
        if self.owns_store:
            store = self.store
            tracer.wrap(store.hot_cache, "lookup", "cache.hot_response.lookup")
            tracer.wrap(store.hot_cache, "insert", "cache.hot_response.insert")
            tracer.wrap(store.pathname_cache, "lookup", "cache.pathname.lookup")
            tracer.wrap(store.header_cache, "get", "cache.response_header.get")
            tracer.wrap(store.header_builder, "build", "http.response.build")
            tracer.wrap(store.fd_cache, "acquire", "cache.mapped_file.fd_acquire")
            tracer.wrap(store, "fd_resident", "cache.residency.fd_probe")

    def request(self, raw: bytes, request_id: int) -> None:
        tracer, store, parser, config = self.tracer, self.store, self.parser, self.config
        tracer.request_id = request_id
        tracer.begin("request")
        tracer.begin("http.request.feed")
        parser.feed(raw)
        fast = parser.fast_request
        tracer.end("fast" if fast is not None else "full")
        content = None
        request = None
        if fast is not None:
            keep_alive = fast.keep_alive and config.keep_alive
            tracer.begin("core.pipeline.hot_lookup")
            content = store.hot_lookup(fast.target, keep_alive)
            tracer.end(_lookup_tag(content))
        if content is None:
            tracer.begin("http.request.materialize")
            request = parser.request
            tracer.end()
            keep_alive = request.keep_alive and config.keep_alive
            if fast is None:
                tracer.begin("core.pipeline.hot_lookup")
                content = store.hot_lookup(
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
                tracer.end(_lookup_tag(content))
        if content is not None and content.content_length:
            # The AMPED gate on a hot hit: is the body still in memory?
            tracer.begin("cache.residency.content_resident")
            store.content_resident(content)
            tracer.end()
        if content is None:
            tracer.begin("core.pipeline.translate")
            entry = store.translate(request.path)
            tracer.end()
            tracer.begin("core.pipeline.build_response")
            content = store.build_response(request, entry, map_body=False)
            tracer.end()
            tracer.begin("cache.residency.content_resident")
            store.content_resident(content)
            tracer.end()
            tracer.begin("core.pipeline.hot_insert")
            store.hot_insert(request, entry, content)
            tracer.end()
        tracer.begin("core.send_path.choose")
        sender = choose_send_path(content, store=store, config=config, stats=store.stats)
        tracer.end()
        while not sender.done:
            tracer.begin("core.send_path.send")
            sender.send(self.pair.server)
            tracer.end()
            tracer.begin("loadgen.drain")
            self.pair.drain()
            tracer.end()
        self.pair.drain()
        sender.release()
        content.release(store)
        parser.reset()
        tracer.end()

    def close(self) -> None:
        self.pair.close()
        if self.owns_store:
            self.store.close()


def replay_workload(config: ServerConfig, raws: Sequence[bytes], tracer) -> float:
    """Replay ``raws`` on a fresh store; returns the wall seconds taken."""
    replay = Replay(config, tracer)
    try:
        started = time.perf_counter()
        for request_id, raw in enumerate(raws):
            replay.request(raw, request_id)
        return time.perf_counter() - started
    finally:
        tracer.request_id = -1
        replay.close()


# -- the probe docroot ---------------------------------------------------------


def generate_probe_docroot(root: str, seed: int):
    """64 x 4 KiB files (``hot_small``'s shape) and one 256 KiB file."""
    small = workloads.generate_docroot(workloads.BY_NAME["hot_small"], seed, root)
    with open(os.path.join(root, LARGE_NAME), "wb") as handle:
        handle.write(os.urandom(LARGE_BYTES))
    return small


def _get(target: bytes) -> bytes:
    return b"GET " + target + b" HTTP/1.1\r\nHost: bench\r\n\r\n"


def _parse(raw: bytes):
    parser = RequestParser(fast=False)
    parser.feed(raw)
    return parser.request


def _send_all(sender, pair: LoopbackPair, tracer, name: str) -> tuple[int, float]:
    """Drive ``sender`` to ``done``, one span per ``send`` call, draining the
    peer between calls (outside the spans).  Returns the number of calls
    and their total microseconds."""
    first = len(tracer.spans)
    calls = 0
    while not sender.done:
        tracer.begin(name)
        sender.send(pair.server)
        tracer.end()
        calls += 1
        pair.drain()
    return calls, sum(span_tools.durations_us(tracer.spans[first:], name))


def probe_layers(root: str, small, tracer, repeats: int = PROBE_REPEATS) -> dict:
    """Measure every span-based per-layer metric on the probe docroot.

    Returns ``metric -> (value, unit, samples)``.
    """
    config = ServerConfig(document_root=root)
    store = ContentStore(config)
    pair = LoopbackPair()
    metrics: dict = {}
    spans = tracer.spans
    first = len(spans)
    targets = [spec.target for spec in small]
    uris = [target.decode("ascii") for target in targets]
    plain = [_get(target) for target in targets]
    requests = [_parse(raw) for raw in plain]

    def median(metric: str, name: str) -> None:
        value, count = span_tools.median_us(spans[first:], name)
        metrics[metric] = (value, "us", count)

    try:
        # http.request ---------------------------------------------------------
        for index in range(repeats):
            raw = plain[index % len(plain)]
            tracer.begin("probe.fast_probe")
            probe_fast_request(raw)
            tracer.end()
            tracer.begin("probe.full_parse")
            parser = RequestParser(fast=False)
            parser.feed(raw)
            parser.request
            tracer.end()
        median("http.request.fast_probe_us", "probe.fast_probe")
        median("http.request.full_parse_us", "probe.full_parse")
        metrics["http.request.allocs_per_parse"] = (
            _allocations_per_parse(plain[0], repeats), "count", repeats)

        # Populate every cache: one slow-path request per file.
        contents = []
        for uri, request in zip(uris, requests):
            entry = store.translate(uri)
            content = store.build_response(request, entry, map_body=False)
            store.hot_insert(request, entry, content)
            contents.append(content)
        for content in contents:
            content.release(store)

        # cache.hot_response and the core.pipeline read side -----------------------
        etag = store.translate(uris[0]).etag
        for index in range(repeats):
            target = targets[index % len(targets)]
            tracer.begin("probe.hot_cache_lookup")
            store.hot_cache.lookup(target)
            tracer.end()
            for name, kwargs in (
                ("probe.hot_lookup_200", {}),
                ("probe.hot_lookup_304", {"if_none_match": etag}),
                ("probe.hot_lookup_206", {"range_header": "bytes=0-1023"}),
                ("probe.hot_lookup_head", {"head": True}),
            ):
                tracer.begin(name)
                content = store.hot_lookup(targets[0], True, **kwargs)
                tracer.end()
                content.release(store)
        median("cache.hot_response.lookup_us", "probe.hot_cache_lookup")
        median("core.pipeline.hot_lookup_200_us", "probe.hot_lookup_200")
        median("core.pipeline.hot_lookup_304_us", "probe.hot_lookup_304")
        median("core.pipeline.hot_lookup_206_us", "probe.hot_lookup_206")
        median("core.pipeline.hot_lookup_head_us", "probe.hot_lookup_head")

        # cache.pathname, cache.mapped_file, http.response, core.pipeline slow side --
        for index in range(repeats):
            uri = uris[index % len(uris)]
            request = requests[index % len(uris)]
            tracer.begin("probe.pathname_hit")
            entry = store.pathname_cache.lookup(uri)
            tracer.end()
            store.pathname_cache.invalidate(uri)
            tracer.begin("probe.pathname_miss")
            entry = store.pathname_cache.lookup(uri)
            tracer.end()
            path = entry.filesystem_path
            tracer.begin("probe.fd_hit")
            handle = store.fd_cache.acquire(path)
            tracer.end()
            tracer.begin("probe.fd_probe")
            store.fd_resident(handle, entry.size)
            tracer.end()
            store.fd_cache.release(handle)
            tracer.begin("probe.translate")
            entry = store.translate(uri)
            tracer.end()
            tracer.begin("probe.build_response")
            content = store.build_response(request, entry, map_body=False)
            tracer.end()
            tracer.begin("probe.hot_insert")
            store.hot_insert(request, entry, content)
            tracer.end()
            content.release(store)
            tracer.begin("probe.header_build")
            store.header_builder.build(
                200, content_length=entry.size, content_type="application/octet-stream",
                last_modified=entry.mtime, keep_alive=True, etag=entry.etag, accept_ranges=True,
            )
            tracer.end()
        median("cache.pathname.lookup_hit_us", "probe.pathname_hit")
        median("cache.pathname.lookup_miss_us", "probe.pathname_miss")
        median("cache.mapped_file.fd_acquire_hit_us", "probe.fd_hit")
        median("cache.residency.fd_probe_us", "probe.fd_probe")
        median("core.pipeline.translate_us", "probe.translate")
        median("core.pipeline.build_response_us", "probe.build_response")
        median("core.pipeline.hot_insert_us", "probe.hot_insert")
        median("http.response.header_build_us", "probe.header_build")

        # A descriptor-cache miss opens the file: drop the hot entries that
        # pin the descriptors, then invalidate before each acquire.
        store.hot_cache.clear()
        for index in range(repeats):
            path = os.path.join(root, workloads.file_name(index % len(small)))
            store.fd_cache.invalidate(path)
            tracer.begin("probe.fd_miss")
            handle = store.fd_cache.acquire(path)
            tracer.end()
            store.fd_cache.release(handle)
        median("cache.mapped_file.fd_acquire_miss_us", "probe.fd_miss")

        # Insert into a full hot cache, so every insert evicts the coldest.
        capacity = store.hot_cache.max_entries
        for index in range(capacity + repeats):
            entry = HotEntry(
                target=b"/synthetic/%d" % index, path=f"/synthetic/{index}", size=0, mtime=0.0,
                content_length=0, header_keep=b"", header_close=b"",
                header_304_keep=b"", header_304_close=b"",
            )
            if index >= capacity:
                tracer.begin("probe.hot_insert_evict")
            store.hot_cache.insert(entry)
            if index >= capacity:
                tracer.end()
        median("cache.hot_response.insert_evict_us", "probe.hot_insert_evict")
        store.hot_cache.clear()

        # core.send_path ---------------------------------------------------------------
        small_sends, large_sends = [], []
        large_uri = "/" + LARGE_NAME
        large_request = _parse(_get(large_uri.encode("ascii")))
        for index in range(repeats):
            entry = store.translate(uris[index % len(uris)])
            content = store.build_response(requests[index % len(uris)], entry, map_body=False)
            sender = choose_send_path(content, store=store, config=config, stats=store.stats)
            small_sends.append(_send_all(sender, pair, tracer, "probe.small_send"))
            sender.release()
            content.release(store)
        for index in range(max(1, repeats // 8)):
            entry = store.translate(large_uri)
            content = store.build_response(large_request, entry, map_body=False)
            sender = choose_send_path(content, store=store, config=config, stats=store.stats)
            large_sends.append(_send_all(sender, pair, tracer, "probe.large_send"))
            sender.release()
            content.release(store)
        for prefix, sends, scale in (
            ("core.send_path.small_send_us", small_sends, 1.0),
            ("core.send_path.large_send_us_per_mb", large_sends, LARGE_BYTES / 1e6),
        ):
            metrics[prefix] = (
                statistics.median(us for _, us in sends) / scale,
                "us" if scale == 1.0 else "us/MB", len(sends))
        metrics["core.send_path.syscalls_per_response"] = (
            statistics.mean(calls for calls, _ in small_sends), "count", len(small_sends))
        metrics["core.send_path.large_syscalls_per_response"] = (
            statistics.mean(calls for calls, _ in large_sends), "count", len(large_sends))

        # core.streaming: 8 x 512 B through the chunked sender -----------------------------
        header = store.header_builder.build_stream(200, chunked=True, keep_alive=True).raw
        chunked = []
        for _ in range(repeats):
            source = IterableSource(b"x" * 512 for _ in range(8))
            sender = StreamingSendPath(header, source, chunked=True)
            chunked.append(_send_all(sender, pair, tracer, "probe.chunked_response")[1])
            sender.release()
        metrics["core.streaming.chunked_response_us"] = (
            statistics.median(chunked), "us", len(chunked))
    finally:
        pair.close()
        store.close()

    metrics.update(_probe_event_loop(tracer, repeats))
    metrics.update(_probe_helpers(config, uris, tracer, repeats))
    return metrics


def _allocations_per_parse(raw: bytes, repeats: int) -> float:
    """Blocks ``http/request.py`` allocates per fast-probed request on a
    reused parser, counted exactly by tracemalloc (results are retained so
    a free cannot hide an allocation)."""
    parser = RequestParser(fast=True)
    parser.feed(raw)
    parser.reset()
    retained = []
    tracemalloc.start(1)
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(repeats):
            parser.feed(raw)
            retained.append(parser.fast_request)
            parser.reset()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    keep = [tracemalloc.Filter(True, "*repro*request.py")]
    delta = after.filter_traces(keep).compare_to(before.filter_traces(keep), "filename")
    return sum(stat.count_diff for stat in delta if stat.count_diff > 0) / repeats


def _probe_event_loop(tracer, repeats: int) -> dict:
    loop = EventLoop()
    left, right = socket.socketpair()
    first = len(tracer.spans)
    try:
        left.send(b"x")  # never read: ``right`` stays readable
        loop.register(right, EVENT_READ, lambda fileobj, mask: None)
        for index in range(repeats):
            tracer.begin("probe.dispatch")
            loop.run_once(0)
            tracer.end()
            tracer.begin("probe.modify")
            loop.modify(right, EVENT_READ | EVENT_WRITE if index % 2 == 0 else EVENT_READ)
            tracer.end()
            tracer.begin("probe.schedule_cancel")
            loop.wheel.cancel(loop.wheel.schedule(30.0, lambda: None))
            tracer.end()
    finally:
        loop.unregister(right)
        loop.close()
        left.close()
        right.close()
    recorded = tracer.spans[first:]
    metrics = {}
    for metric, name in (
        ("core.event_loop.dispatch_us", "probe.dispatch"),
        ("core.event_loop.modify_us", "probe.modify"),
        ("core.timer_wheel.schedule_cancel_us", "probe.schedule_cancel"),
    ):
        value, count = span_tools.median_us(recorded, name)
        metrics[metric] = (value, "us", count)
    return metrics


def _probe_helpers(config: ServerConfig, uris, tracer, repeats: int) -> dict:
    """``HelperPool.submit(OP_TRANSLATE)`` to its completion callback, the
    completion observed through an event loop as the AMPED server does."""
    loop = EventLoop()
    pool = HelperPool(num_helpers=config.num_helpers, mode=config.helper_mode)
    pool.register(loop)
    first = len(tracer.spans)
    done = []
    try:
        for index in range(repeats):
            request = HelperRequest(
                seq=0, op=OP_TRANSLATE, uri=uris[index % len(uris)],
                document_root=config.document_root, user_dirs=config.user_dirs,
            )
            del done[:]
            tracer.begin("probe.helper_roundtrip")
            pool.submit(request, done.append)
            while not done:
                loop.run_once(1.0)
            tracer.end()
            if not done[0].ok:
                raise BenchError(f"helper translation failed: {done[0].error_message}")
    finally:
        pool.unregister(loop)
        pool.shutdown()
        loop.close()
    value, count = span_tools.median_us(tracer.spans[first:], "probe.helper_roundtrip")
    return {"core.helpers.roundtrip_us": (value, "us", count)}


# -- core.connection -------------------------------------------------------------


def _exchange(server, client: socket.socket, request, tracer, until_closed: bool) -> int:
    """Send ``request`` and turn the server's loop from this thread until the
    response is complete (and, for a closing exchange, until the server has
    closed).  Each ``run_once`` is a span; returns their total in ns."""
    client.sendall(request.raw)
    received = bytearray()
    total = 0
    head = None
    closed = False
    for _ in range(10000):
        tracer.begin("core.connection.run_once")
        server.loop.run_once(0)
        tracer.end()
        span = tracer.spans[-1]
        total += span[span_tools.END] - span[span_tools.START]
        try:
            data = client.recv(1 << 20)
            if data:
                received += data
            else:
                closed = True
        except BlockingIOError:
            pass
        if head is None:
            head = verify.parse_head(received, len(received))
        if head is not None:
            due = head.end + verify.wire_body_length(request, head)
            if len(received) >= due and (closed or not until_closed):
                break
    else:
        raise BenchError("the in-process server did not answer")
    reason = verify.verify_response(request, bytes(received))
    if reason is not None:
        raise BenchError(f"in-process response failed verification: {reason}")
    return total


def probe_connection(root: str, small, tracer, repeats: int = PROBE_REPEATS) -> dict:
    """``core.connection.request_self_us`` and ``accept_close_us``."""
    config = ServerConfig(document_root=root)
    server = create_server("sped", config)
    server.bind()
    table = workloads.request_table(small, [workloads.GET, workloads.CLOSE])
    keep = [table[(spec.index, workloads.GET)] for spec in small]
    close = [table[(spec.index, workloads.CLOSE)] for spec in small]
    replay = Replay(config, tracer, store=server.store)
    client = socket.create_connection(server.address)
    client.setblocking(False)
    self_times, keep_totals, fresh_totals = [], [], []
    try:
        for request in keep:  # populate the hot cache
            _exchange(server, client, request, tracer, until_closed=False)
        for index in range(repeats):
            request = keep[index % len(keep)]
            total = _exchange(server, client, request, tracer, until_closed=False)
            mark = len(tracer.spans)
            replay.request(request.raw, -1)
            layers = sum(
                span[span_tools.END] - span[span_tools.START]
                for span in tracer.spans[mark:]
                if span[span_tools.PARENT] == mark and span[span_tools.NAME] != "loadgen.drain"
            )
            keep_totals.append(total / 1000.0)
            self_times.append((total - layers) / 1000.0)
        for index in range(repeats):
            fresh = socket.create_connection(server.address)
            fresh.setblocking(False)
            try:
                total = _exchange(server, fresh, close[index % len(close)], tracer,
                                  until_closed=True)
            finally:
                fresh.close()
            fresh_totals.append(total / 1000.0)
    finally:
        client.close()
        replay.close()
        server.close()
    return {
        "core.connection.request_self_us": (statistics.median(self_times), "us", len(self_times)),
        "core.connection.accept_close_us": (
            statistics.median(fresh_totals) - statistics.median(keep_totals), "us",
            len(fresh_totals)),
    }
