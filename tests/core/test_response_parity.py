"""Differential test: the slow path and the hot path answer identically.

``ContentStore.build_response`` (after ``translate``) and
``ContentStore.hot_lookup`` (after ``hot_insert``) share one planner and
one assembler, and every transmission shares one sender — so for any
request the two paths must put the same bytes on the wire and move the
same counters.  This checks that with generated requests instead of a
hand-picked grid: method, conditional headers, ``Range``/``If-Range``,
keep-alive (of the request, and of the one that inserted the hot entry —
the entry composes its other header variants on first use), ``map_body``
and a ``sendfile`` that may refuse to work, sent the event-driven way (``choose_send_path`` stepped non-blocking) and the
MT/MP way (the blocking driver), with zero-copy on and off.
"""

import errno
import os
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.core.send_path import choose_send_path
from repro.http.request import HTTPRequest
from repro.http.response import http_date
from repro.servers.blocking import _send_static

BODY = bytes((index * 37 + index // 211) % 256 for index in range(150_000))

#: The counters the planner, the assembler and the sender own.
COUNTERS = (
    "precondition_failed",
    "not_modified_responses",
    "range_unsatisfiable",
    "range_responses",
    "range_multipart_responses",
    "sendfile_responses",
    "sendfile_fallbacks",
)


def transmit(content, store, config, blocking):
    """Send ``content`` over a small-buffered socketpair; return the bytes."""
    left, right = socket.socketpair()
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
    received = bytearray()

    def read_all():
        while True:
            data = right.recv(65536)
            if not data:
                return
            received.extend(data)

    reader = threading.Thread(target=read_all, daemon=True)
    reader.start()
    try:
        if blocking:
            left.settimeout(5.0)
            _send_static(left, store, config, content)
        else:
            sender = choose_send_path(content, store=store, config=config, stats=store.stats)
            while not sender.done:
                if not sender.send(left):
                    # Full buffer: let the reader thread drain it.
                    threading.Event().wait(0.001)
            assert not sender.under_delivered
            sender.release()
        left.shutdown(socket.SHUT_WR)
        reader.join(timeout=5.0)
        assert not reader.is_alive()
    finally:
        left.close()
        right.close()
    return bytes(received)


def strip_date(raw):
    """Drop the Date header: precomposed hot headers carry an older one."""
    head, separator, body = raw.partition(b"\r\n\r\n")
    lines = [line for line in head.split(b"\r\n") if not line.startswith(b"Date:")]
    return b"\r\n".join(lines) + separator + body


def counters(store):
    snapshot = store.stats.snapshot()
    return {name: snapshot[name] for name in COUNTERS}


def delta(before, after):
    return {name: after[name] - before[name] for name in COUNTERS}


offsets = st.integers(0, len(BODY) + 10)
range_values = st.none() | st.sampled_from(
    ["bytes=0-99", "bytes=140000-", "bytes=-50", "bytes=999999-", "bytes=5-3", "lines=0-5"]
) | st.lists(st.tuples(offsets, offsets), min_size=1, max_size=5).map(
    lambda pairs: "bytes=" + ",".join(f"{first}-{first + span}" for first, span in pairs)
)


@st.composite
def requests(draw, etag, mtime):
    tags = st.none() | st.sampled_from(["*", etag, "W/" + etag, '"zzz"', f'"zzz", {etag}'])
    dates = st.none() | st.sampled_from(
        [http_date(mtime), http_date(mtime + 3600), http_date(mtime - 3600), "garbage"]
    )
    headers = {
        "if-match": draw(tags),
        "if-unmodified-since": draw(dates),
        "if-none-match": draw(tags),
        "if-modified-since": draw(dates),
        "range": draw(range_values),
        "if-range": draw(
            st.none() | st.sampled_from([etag, "W/" + etag, http_date(mtime), "garbage"])
        ),
    }
    return {
        "method": draw(st.sampled_from(["GET", "HEAD"])),
        "headers": {name: value for name, value in headers.items() if value is not None},
        "keep_alive": draw(st.booleans()),
        # The hot entry is born holding one header, in the flavour of the
        # request that inserted it; every other variant is composed by the
        # first hit that wants it.
        "primer_keep_alive": draw(st.booleans()),
        "map_body": draw(st.booleans()),
        "sendfile_works": draw(st.booleans()),
    }


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "file.bin").write_bytes(BODY)
    return tmp_path


@pytest.mark.parametrize("blocking", [False, True], ids=["event", "blocking"])
@pytest.mark.parametrize("zero_copy", [True, False], ids=["zero-copy", "buffered"])
@given(data=st.data())
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_slow_and_hot_paths_agree(docroot, monkeypatch, zero_copy, blocking, data):
    config = ServerConfig(document_root=str(docroot), port=0, zero_copy=zero_copy)
    store = ContentStore(config)
    try:
        entry = store.translate("/file.bin")
        case = data.draw(requests(entry.etag, entry.mtime))
        if not case["sendfile_works"]:
            def refuse(*_args):
                raise OSError(errno.EINVAL, "injected: sendfile unsupported here")

            monkeypatch.setattr(os, "sendfile", refuse)
        request = HTTPRequest(
            method=case["method"], uri="/file.bin", path="/file.bin",
            version="HTTP/1.1", headers=case["headers"],
        )
        keep_alive, map_body = case["keep_alive"], case["map_body"]

        # The hot entry comes from a plain GET built the same way.
        plain = HTTPRequest(method="GET", uri="/file.bin", path="/file.bin", version="HTTP/1.1")
        primer_keep_alive = case["primer_keep_alive"]
        primer = store.build_response(
            plain, entry, keep_alive=primer_keep_alive, map_body=map_body
        )
        assert store.hot_insert(plain, entry, primer)
        hot_entry = store.hot_cache.lookup(b"/file.bin")
        assert hot_entry.header(200, primer_keep_alive) == primer.header
        assert hot_entry.header(200, not primer_keep_alive) is None
        assert hot_entry.header(304, True) is None and hot_entry.header(304, False) is None
        primer.release(store)

        before = counters(store)
        slow = store.build_response(request, entry, keep_alive=keep_alive, map_body=map_body)
        slow_bytes = transmit(slow, store, config, blocking)
        slow.release(store)
        slow_delta = delta(before, counters(store))

        before = counters(store)
        hot = store.hot_lookup(
            b"/file.bin",
            keep_alive,
            head=request.is_head,
            if_modified_since=request.if_modified_since,
            if_none_match=request.if_none_match,
            if_match=request.if_match,
            if_unmodified_since=request.if_unmodified_since,
            range_header=request.range_header,
            if_range=request.if_range,
        )
        assert hot is not None
        assert hot.status == slow.status
        hot_bytes = transmit(hot, store, config, blocking)
        hot.release(store)
        hot_delta = delta(before, counters(store))
        if hot.status in (200, 304):
            # The variant the first hit composed is the one every later
            # hit gets (206/412/416 headers are client-shaped: always fresh).
            assert hot_entry.header(hot.status, keep_alive) == hot.header

        assert strip_date(hot_bytes) == strip_date(slow_bytes)
        assert hot_delta == slow_delta
        if slow.status == 200 and case["method"] == "GET":
            assert slow_bytes.endswith(BODY)
    finally:
        monkeypatch.undo()
        store.close()
