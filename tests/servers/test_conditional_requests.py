"""End-to-end tests for RFC 7232 conditional requests.

The tentpole's contract from the issue:

* strong ETags derived from ``(size, mtime_ns)`` ride every 200/206/304;
* ``If-None-Match`` revalidation of a hot target is a read-side hot-cache
  hit returning a precomposed 304 — no re-translation,
  ``stats.not_modified_responses`` increments — byte-identical across
  SPED/AMPED/MP/MT and across the ``--no-hot-cache``/``--no-fast-parse``
  toggles;
* ``If-Match``/``If-Unmodified-Since`` failures answer 412 with current
  validators, on both the slow and the hot path;
* the RFC 7232 §6 precedence order holds: ``If-Match`` before
  ``If-Unmodified-Since``, ``If-None-Match`` suppressing
  ``If-Modified-Since``;
* ``If-Range`` accepts the ETag form (strong comparison; weak tags and
  stale tags degrade to a full 200);
* a changed file changes the ETag, and stale validators stop matching.
"""

import os
import re
import socket

import pytest

from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.server import FlashServer
from repro.servers import create_server
from repro.servers.sped import SPEDServer

BIG = b"".join(b"%07d|" % i for i in range(25_000))
SMALL = b"<html>conditional</html>"


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "big.bin").write_bytes(BIG)
    (tmp_path / "small.html").write_bytes(SMALL)
    return str(tmp_path)


def config_for(docroot, **overrides):
    overrides.setdefault("num_helpers", 2)
    overrides.setdefault("num_workers", 2)
    return ServerConfig(document_root=docroot, port=0, **overrides)


def normalize(raw: bytes) -> bytes:
    """Blank out Date headers: they track the wall clock, not the toggles."""
    return re.sub(rb"Date: [^\r]+\r\n", b"Date: X\r\n", raw)


def raw_exchange(address, payload: bytes) -> bytes:
    sock = socket.create_connection(address, timeout=5.0)
    try:
        sock.sendall(payload)
        received = bytearray()
        while True:
            data = sock.recv(65536)
            if not data:
                break
            received.extend(data)
    finally:
        sock.close()
    return bytes(received)


def request_lines(path, *, headers=(), close=False):
    lines = [f"GET {path} HTTP/1.1", "Host: x", *headers]
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class TestValidatorsOnResponses:
    @pytest.mark.parametrize("server_cls", [SPEDServer, FlashServer])
    def test_etag_and_accept_ranges_on_200(self, docroot, server_cls):
        server = server_cls(config_for(docroot))
        server.start()
        try:
            first = fetch(*server.address, "/big.bin")
            repeat = fetch(*server.address, "/big.bin")  # hot path
        finally:
            server.stop()
        for response in (first, repeat):
            assert response.status == 200
            assert re.fullmatch(r'"[0-9a-f]+-[0-9a-f]+"', response.headers["etag"])
            assert response.headers["accept-ranges"] == "bytes"
        assert first.headers["etag"] == repeat.headers["etag"]

    def test_etag_on_206_and_304_matches_200(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            full = fetch(*server.address, "/big.bin")
            etag = full.headers["etag"]
            partial = fetch(*server.address, "/big.bin",
                            headers={"Range": "bytes=0-9"})
            revalidated = fetch(*server.address, "/big.bin",
                                headers={"If-None-Match": etag})
        finally:
            server.stop()
        assert partial.status == 206 and partial.headers["etag"] == etag
        assert revalidated.status == 304 and revalidated.headers["etag"] == etag
        assert revalidated.body == b""

    def test_file_change_changes_etag(self, docroot):
        server = SPEDServer(config_for(docroot, hot_cache_revalidate=0.0))
        server.start()
        try:
            before = fetch(*server.address, "/small.html")
            path = os.path.join(docroot, "small.html")
            with open(path, "wb") as handle:
                handle.write(b"<html>changed!</html>")
            os.utime(path, ns=(1_700_000_000_000_000_000, 1_700_000_000_000_000_000))
            stale = before.headers["etag"]
            revalidated = fetch(*server.address, "/small.html",
                                headers={"If-None-Match": stale})
        finally:
            server.stop()
        assert revalidated.status == 200
        assert revalidated.headers["etag"] != stale
        assert revalidated.body == b"<html>changed!</html>"

    def test_cgi_and_errors_do_not_advertise_ranges(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            missing = fetch(*server.address, "/nope.html")
        finally:
            server.stop()
        assert missing.status == 404
        assert "accept-ranges" not in missing.headers
        assert "etag" not in missing.headers


class TestPreconditions:
    @pytest.mark.parametrize("hot_primed", [False, True])
    def test_if_match_failure_is_412(self, docroot, hot_primed):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            if hot_primed:
                fetch(*server.address, "/big.bin")
            response = fetch(*server.address, "/big.bin",
                             headers={"If-Match": '"stale"'})
        finally:
            server.stop()
        assert response.status == 412
        assert response.body == b""
        assert "etag" in response.headers  # current validator for recovery
        assert server.stats.precondition_failed == 1

    @pytest.mark.parametrize("hot_primed", [False, True])
    def test_if_match_success_serves_full(self, docroot, hot_primed):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            etag = fetch(*server.address, "/big.bin").headers["etag"]
            if hot_primed:
                fetch(*server.address, "/big.bin")
            for value in (etag, "*", f'"zzz", {etag}'):
                response = fetch(*server.address, "/big.bin",
                                 headers={"If-Match": value})
                assert response.status == 200 and response.body == BIG, value
        finally:
            server.stop()
        assert server.stats.precondition_failed == 0

    @pytest.mark.parametrize("hot_primed", [False, True])
    def test_if_unmodified_since_failure_is_412(self, docroot, hot_primed):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            if hot_primed:
                fetch(*server.address, "/big.bin")
            response = fetch(
                *server.address, "/big.bin",
                headers={"If-Unmodified-Since": "Mon, 01 Jan 1990 00:00:00 GMT"},
            )
        finally:
            server.stop()
        assert response.status == 412
        assert server.stats.precondition_failed == 1

    def test_if_match_takes_precedence_over_if_unmodified_since(self, docroot):
        """§6: a passing If-Match means If-Unmodified-Since is not even
        evaluated — an ancient date must not produce a 412."""
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            etag = fetch(*server.address, "/big.bin").headers["etag"]
            response = fetch(
                *server.address, "/big.bin",
                headers={
                    "If-Match": etag,
                    "If-Unmodified-Since": "Mon, 01 Jan 1990 00:00:00 GMT",
                },
            )
        finally:
            server.stop()
        assert response.status == 200 and response.body == BIG

    @pytest.mark.parametrize("hot_primed", [False, True])
    def test_if_none_match_suppresses_if_modified_since(self, docroot, hot_primed):
        """§3.3: when If-None-Match is present (and stale), a matching
        If-Modified-Since must NOT turn the answer into a 304."""
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            stamp = fetch(*server.address, "/big.bin").headers["last-modified"]
            if hot_primed:
                fetch(*server.address, "/big.bin")
            response = fetch(
                *server.address, "/big.bin",
                headers={"If-None-Match": '"stale"', "If-Modified-Since": stamp},
            )
        finally:
            server.stop()
        assert response.status == 200 and response.body == BIG

    def test_weak_tag_revalidates_but_fails_if_match(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            etag = fetch(*server.address, "/big.bin").headers["etag"]
            weak = f"W/{etag}"
            inm = fetch(*server.address, "/big.bin",
                        headers={"If-None-Match": weak})
            im = fetch(*server.address, "/big.bin", headers={"If-Match": weak})
        finally:
            server.stop()
        assert inm.status == 304   # weak comparison matches
        assert im.status == 412    # strong comparison does not

    @pytest.mark.parametrize("architecture", ["sped", "mt"])
    def test_list_split_over_repeated_lines(self, docroot, architecture):
        """RFC 7230 §3.2.2: repeated lines of a list field are one list, so
        the current tag still counts when a later line names another."""
        server = create_server(architecture, config_for(docroot))
        server.start()
        try:
            etag = fetch(*server.address, "/small.html").headers["etag"]
            split = {
                name: raw_exchange(server.address, request_lines(
                    "/small.html", close=True,
                    headers=(f"{name}: {etag}", f'{name}: "zzz"'),
                ))
                for name in ("If-None-Match", "If-Match")
            }
        finally:
            server.stop()
        assert split["If-None-Match"].startswith(b"HTTP/1.1 304 ")
        assert split["If-Match"].startswith(b"HTTP/1.1 200 ")
        assert split["If-Match"].endswith(SMALL)

    def test_post_ignores_conditionals(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            etag = fetch(*server.address, "/small.html").headers["etag"]
            response = fetch(*server.address, "/small.html", method="POST",
                             headers={"If-None-Match": etag})
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == SMALL


class TestIfRangeEtag:
    @pytest.mark.parametrize("hot_primed", [False, True])
    def test_matching_etag_yields_206(self, docroot, hot_primed):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            etag = fetch(*server.address, "/big.bin").headers["etag"]
            if hot_primed:
                fetch(*server.address, "/big.bin")
            response = fetch(*server.address, "/big.bin",
                             headers={"Range": "bytes=0-1023", "If-Range": etag})
        finally:
            server.stop()
        assert response.status == 206
        assert response.body == BIG[:1024]

    @pytest.mark.parametrize("value", ['"stale"', 'W/"{tag}"'])
    def test_stale_or_weak_etag_degrades_to_200(self, docroot, value):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            etag = fetch(*server.address, "/big.bin").headers["etag"]
            if_range = value.format(tag=etag.strip('"'))
            response = fetch(*server.address, "/big.bin",
                             headers={"Range": "bytes=0-1023", "If-Range": if_range})
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == BIG


class TestHotPathRevalidation:
    """The acceptance criterion: conditional revalidation rides the
    single-lookup hot path."""

    def test_304_is_read_side_hit_without_retranslation(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            etag = fetch(*server.address, "/big.bin").headers["etag"]
            translations_before = server.stats.blocking_translations
            pathname_misses_before = server.store.pathname_cache.misses
            hot_hits_before = server.stats.hot_hits
            for _ in range(5):
                response = fetch(*server.address, "/big.bin",
                                 headers={"If-None-Match": etag})
                assert response.status == 304 and response.body == b""
            assert server.stats.blocking_translations == translations_before
            assert server.store.pathname_cache.misses == pathname_misses_before
            assert server.stats.hot_hits >= hot_hits_before + 5
            assert server.stats.not_modified_responses == 5
        finally:
            server.stop()

    def test_revalidation_byte_identical_across_toggles(self, docroot):
        """--no-hot-cache / --no-fast-parse must not change a single byte
        of the conditional exchange."""
        streams = {}
        counters = {}
        for hot in (True, False):
            for fast in (True, False):
                server = SPEDServer(
                    config_for(docroot, hot_cache=hot, fast_parse=fast)
                )
                server.start()
                try:
                    etag = fetch(*server.address, "/small.html").headers["etag"]
                    payload = b"".join(
                        [
                            request_lines("/small.html"),
                            request_lines(
                                "/small.html", headers=[f"If-None-Match: {etag}"]
                            ),
                            request_lines(
                                "/small.html",
                                headers=['If-Match: "stale"'],
                                close=True,
                            ),
                        ]
                    )
                    streams[(hot, fast)] = normalize(
                        raw_exchange(server.address, payload)
                    )
                    counters[(hot, fast)] = server.stats.snapshot()
                finally:
                    server.stop()
        reference = streams[(True, True)]
        assert reference.count(b"HTTP/1.1 304 Not Modified") == 1
        assert reference.count(b"HTTP/1.1 412 Precondition Failed") == 1
        for combo, stream in streams.items():
            assert stream == reference, f"bytes differ for {combo}"
        # The hot configurations actually served the 304 from the cache.
        assert counters[(True, True)]["hot_hits"] > 0
        assert counters[(False, False)]["hot_hits"] == 0
        for stats in counters.values():
            assert stats["not_modified_responses"] == 1
            assert stats["precondition_failed"] == 1
