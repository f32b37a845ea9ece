"""Unit tests for response-header generation and byte-position alignment."""

import email.utils
import html

import pytest
from hypothesis import given, settings, strategies as st

from repro.http.response import (
    DATE_MEMO_SECONDS,
    DEFAULT_ALIGNMENT,
    ResponseHeaderBuilder,
    build_error_response,
    http_date,
)


class TestHttpDate:
    def test_rfc1123_shape(self):
        value = http_date(0)
        assert value == "Thu, 01 Jan 1970 00:00:00 GMT"

    def test_current_time_formats(self):
        assert http_date().endswith("GMT")

    # The serializer rounds half-even to the microsecond and only then
    # floors to the second, so k + 0.9999995 is where a second is won or
    # lost; the memo must key on the second the serializer lands on.
    seconds = st.integers(-(2**31), 2**33)
    fractions = st.floats(0, 1, exclude_max=True) | st.sampled_from(
        [0.9999995, 0.9999995 - 1e-7, 0.9999995 + 1e-7, 0.4999995, 0.5, 0.0000005]
    )

    @given(second=seconds, fraction=fractions)
    @settings(max_examples=500, deadline=None)
    def test_memo_is_byte_identical_to_formatdate(self, second, fraction):
        for timestamp in (second + fraction, float(second), second):
            expected = email.utils.formatdate(timestamp, usegmt=True)
            assert http_date(timestamp) == expected
            assert http_date(timestamp) == expected  # served from the memo

    def test_memo_survives_eviction(self):
        first = [http_date(second + 0.25) for second in range(64)]
        for second in range(1000, 1000 + 2 * DATE_MEMO_SECONDS):
            http_date(second)
        assert [http_date(second + 0.25) for second in range(64)] == first
        assert first[1] == "Thu, 01 Jan 1970 00:00:01 GMT"


class TestResponseHeaderBuilder:
    def test_status_line_and_fields(self):
        header = ResponseHeaderBuilder(align=0).build(
            200, content_length=123, content_type="text/plain", last_modified=0
        )
        text = header.raw.decode("latin-1")
        assert text.startswith("HTTP/1.1 200 OK\r\n")
        assert "Content-Length: 123\r\n" in text
        assert "Content-Type: text/plain\r\n" in text
        assert "Last-Modified: Thu, 01 Jan 1970 00:00:00 GMT\r\n" in text
        assert text.endswith("\r\n\r\n")

    def test_connection_header_reflects_keep_alive(self):
        builder = ResponseHeaderBuilder(align=0)
        assert b"Connection: keep-alive" in builder.build(200, keep_alive=True).raw
        assert b"Connection: close" in builder.build(200, keep_alive=False).raw

    def test_extra_headers_included(self):
        header = ResponseHeaderBuilder(align=0).build(
            200, extra_headers={"X-Custom": "yes"}
        )
        assert b"X-Custom: yes\r\n" in header.raw

    def test_error_status_reason_phrase(self):
        header = ResponseHeaderBuilder(align=0).build(404)
        assert header.raw.startswith(b"HTTP/1.1 404 Not Found\r\n")

    def test_negative_alignment_rejected(self):
        with pytest.raises(ValueError):
            ResponseHeaderBuilder(align=-1)


class TestAlignment:
    """Section 5.5: headers padded to 32-byte boundaries."""

    def test_default_alignment_is_32(self):
        assert DEFAULT_ALIGNMENT == 32

    def test_aligned_header_length_is_multiple_of_32(self):
        header = ResponseHeaderBuilder().build(200, content_length=7)
        assert len(header.raw) % 32 == 0
        assert header.aligned

    def test_padding_applied_via_server_field(self):
        builder = ResponseHeaderBuilder()
        header = builder.build(200, content_length=7)
        if header.padding:
            assert b"Server: " + builder.server_name.encode() + b" " in header.raw

    def test_alignment_disabled(self):
        header = ResponseHeaderBuilder(align=0).build(200, content_length=7)
        assert header.padding == 0

    @given(content_length=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_any_content_length_stays_aligned(self, content_length):
        """The padding must absorb the varying digit count of Content-Length."""
        header = ResponseHeaderBuilder().build(200, content_length=content_length)
        assert len(header.raw) % DEFAULT_ALIGNMENT == 0
        assert 0 <= header.padding < DEFAULT_ALIGNMENT

    @given(align=st.sampled_from([4, 8, 16, 32, 64]), length=st.integers(0, 10**7))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_alignment_honoured(self, align, length):
        header = ResponseHeaderBuilder(align=align).build(200, content_length=length)
        assert len(header.raw) % align == 0

    def test_content_length_metadata(self):
        header = ResponseHeaderBuilder().build(200, content_length=999)
        assert header.content_length == 999
        assert header.status == 200


class TestErrorResponse:
    def test_contains_status_and_body(self):
        payload = build_error_response(404, "file not found")
        assert payload.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"file not found" in payload
        assert b"<html>" in payload

    def test_content_length_matches_body(self):
        payload = build_error_response(403)
        header_block, body = payload.split(b"\r\n\r\n", 1)
        declared = None
        for line in header_block.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                declared = int(line.split(b":", 1)[1])
        assert declared == len(body)

    def test_plain_message_keeps_its_exact_bytes(self):
        _, body = build_error_response(404, "file not found: /a b.html").split(b"\r\n\r\n", 1)
        assert body == (
            b"<html><head><title>404 Not Found</title></head>"
            b"<body><h1>404 Not Found</h1><p>file not found: /a b.html</p></body></html>\n"
        )

    def test_markup_in_the_message_is_escaped(self):
        payload = build_error_response(404, "file not found: /<script>alert(1)</script>&")
        assert b"<script>" not in payload
        assert b"/&lt;script&gt;alert(1)&lt;/script&gt;&amp;</p>" in payload

    def test_non_ascii_message_becomes_character_references(self):
        # U+20AC is outside Latin-1: this used to raise UnicodeEncodeError.
        payload = build_error_response(404, "file not found: /\u20ac-missing.html")
        assert b"/&#8364;-missing.html</p>" in payload
        header_block, body = payload.split(b"\r\n\r\n", 1)
        assert f"Content-Length: {len(body)}\r\n".encode() in header_block + b"\r\n"

    @given(message=st.text(alphabet=st.one_of(st.characters(), st.sampled_from("<>&\"'"))))
    def test_any_message_is_escaped_text(self, message):
        _, body = build_error_response(400, message).split(b"\r\n\r\n", 1)
        paragraph = body.split(b"<p>", 1)[1].rsplit(b"</p>", 1)[0]
        # The reference: the standard library's escaping, as ASCII.
        expected = html.escape(message or "Bad Request", quote=False)
        assert paragraph == expected.encode("ascii", "xmlcharrefreplace")
        assert b"<" not in paragraph and b">" not in paragraph


class TestIfModifiedSinceTruncation:
    """Validator comparisons must use the serializer's second, not int().

    ``email.utils.formatdate`` (via ``datetime.fromtimestamp``) rounds the
    fractional part to the nearest microsecond before flooring to seconds,
    so an mtime within half a microsecond of the next second serializes one
    second *later* than ``int(mtime)``.  The old ``int(mtime) <=
    parsed.timestamp()`` comparison then 304'd against a validator older
    than the Last-Modified the server itself advertises for the file — a
    stale client copy was confirmed fresh.
    """

    def test_fractional_mtime_rounding_up_is_modified(self):
        from repro.http.response import if_modified_since_matches

        mtime = 1_000_000_000.9999996          # serializes as second ...01
        assert http_date(mtime) != http_date(int(mtime))
        stale_validator = http_date(int(mtime))  # client cached second ...00
        # The file's advertised Last-Modified is one second later than the
        # client's validator: the copy is stale, the answer must be 200.
        assert not if_modified_since_matches(stale_validator, mtime)

    def test_fractional_mtime_same_second_still_matches(self):
        from repro.http.response import if_modified_since_matches

        mtime = 1_000_000_000.25               # serializes as second ...00
        assert if_modified_since_matches(http_date(int(mtime)), mtime)
        assert if_modified_since_matches(http_date(mtime), mtime)

    def test_older_validator_never_matches(self):
        from repro.http.response import if_modified_since_matches

        mtime = 1_000_000_000.5
        assert not if_modified_since_matches(http_date(int(mtime) - 1), mtime)

    def test_newer_validator_matches(self):
        from repro.http.response import if_modified_since_matches

        mtime = 1_000_000_000.5
        assert if_modified_since_matches(http_date(int(mtime) + 60), mtime)


class TestIfRange:
    def test_exact_date_matches(self):
        from repro.http.response import if_range_matches

        mtime = 1_000_000_000.25
        assert if_range_matches(http_date(mtime), mtime)

    def test_strong_comparison_rejects_newer_and_older(self):
        from repro.http.response import if_range_matches

        mtime = 1_000_000_000.25
        assert not if_range_matches(http_date(int(mtime) - 1), mtime)
        # Unlike If-Modified-Since, a *newer* date is also a mismatch:
        # only an exact validator proves the partial copy is of these bytes.
        assert not if_range_matches(http_date(int(mtime) + 60), mtime)

    def test_entity_tag_forms_never_match(self):
        from repro.http.response import if_range_matches

        assert not if_range_matches('"abc123"', 1_000_000_000.0)
        assert not if_range_matches('W/"abc123"', 1_000_000_000.0)

    def test_garbage_never_matches(self):
        from repro.http.response import if_range_matches

        assert not if_range_matches("yesterday-ish", 1_000_000_000.0)
        assert not if_range_matches("", 1_000_000_000.0)


class TestContentRange:
    def test_satisfied(self):
        from repro.http.response import content_range

        assert content_range(0, 1024, 4096) == "bytes 0-1023/4096"
        assert content_range(100, 1, 4096) == "bytes 100-100/4096"

    def test_unsatisfied(self):
        from repro.http.response import content_range_unsatisfied

        assert content_range_unsatisfied(4096) == "bytes */4096"

    def test_206_header_carries_content_range(self):
        header = ResponseHeaderBuilder().build(
            206,
            content_length=1024,
            extra_headers={"Content-Range": "bytes 0-1023/4096"},
        )
        assert header.raw.startswith(b"HTTP/1.1 206 Partial Content\r\n")
        assert b"Content-Range: bytes 0-1023/4096\r\n" in header.raw
        assert b"Content-Length: 1024\r\n" in header.raw
        assert len(header.raw) % DEFAULT_ALIGNMENT == 0

    def test_416_header_carries_star_form(self):
        header = ResponseHeaderBuilder().build(
            416,
            content_length=0,
            extra_headers={"Content-Range": "bytes */4096"},
        )
        assert header.raw.startswith(b"HTTP/1.1 416 Range Not Satisfiable\r\n")
        assert b"Content-Range: bytes */4096\r\n" in header.raw


class TestCacheControl:
    def test_max_age_emits_cache_control_and_expires(self):
        builder = ResponseHeaderBuilder()
        header = builder.build(
            200, content_length=5, date=1_700_000_000.0, cache_max_age=600
        )
        assert b"Cache-Control: max-age=600\r\n" in header.raw
        expected_expires = http_date(1_700_000_000.0 + 600)
        assert f"Expires: {expected_expires}\r\n".encode("latin-1") in header.raw

    def test_expires_is_consistent_with_date(self):
        builder = ResponseHeaderBuilder()
        header = builder.build(200, date=1_700_000_000.0, cache_max_age=60)
        assert f"Date: {http_date(1_700_000_000.0)}".encode("latin-1") in header.raw
        assert f"Expires: {http_date(1_700_000_060.0)}".encode("latin-1") in header.raw

    def test_default_omits_freshness_headers(self):
        header = ResponseHeaderBuilder().build(200, content_length=5)
        assert b"Cache-Control" not in header.raw
        assert b"Expires" not in header.raw

    def test_alignment_still_holds_with_freshness_headers(self):
        header = ResponseHeaderBuilder(align=32).build(200, cache_max_age=86400)
        assert len(header.raw) % 32 == 0
