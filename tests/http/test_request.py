"""Unit tests for the incremental HTTP request parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.http.errors import (
    BadRequestError,
    NotImplementedError_,
    RequestTooLargeError,
    VersionNotSupportedError,
)
from repro.http.request import MAX_BODY_BYTES, HTTPRequest, RequestParser


def parse(raw: bytes) -> HTTPRequest:
    parser = RequestParser()
    assert parser.feed(raw)
    return parser.request


class TestBasicParsing:
    def test_simple_get(self):
        request = parse(b"GET /index.html HTTP/1.0\r\nHost: example\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/index.html"
        assert request.version == "HTTP/1.0"
        assert request.headers["host"] == "example"

    def test_head_request(self):
        request = parse(b"HEAD /x HTTP/1.1\r\nHost: h\r\n\r\n")
        assert request.is_head

    def test_query_string_split(self):
        request = parse(b"GET /cgi-bin/app?a=1&b=2 HTTP/1.0\r\n\r\n")
        assert request.path == "/cgi-bin/app"
        assert request.query == "a=1&b=2"
        assert request.is_cgi

    def test_http09_simple_request(self):
        request = parse(b"GET /old\r\n\r\n")
        assert request.version == "HTTP/0.9"

    def test_header_names_lowercased(self):
        request = parse(b"GET / HTTP/1.0\r\nUser-AGENT: test\r\n\r\n")
        assert request.header("user-agent") == "test"
        assert request.header("User-Agent") == "test"
        assert request.header("missing", "fallback") == "fallback"

    def test_percent_encoded_path(self):
        request = parse(b"GET /a%20b.html HTTP/1.0\r\n\r\n")
        assert request.path == "/a b.html"

    def test_lf_only_line_endings_accepted(self):
        request = parse(b"GET /x HTTP/1.0\nHost: h\n\n")
        assert request.path == "/x"

    def test_header_continuation_folding(self):
        request = parse(b"GET / HTTP/1.0\r\nX-Long: part1\r\n    part2\r\n\r\n")
        assert request.headers["x-long"] == "part1 part2"


class TestIncrementalFeeding:
    def test_byte_at_a_time(self):
        raw = b"GET /page.html HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
        parser = RequestParser()
        for i, byte in enumerate(raw):
            done = parser.feed(bytes([byte]))
            if i < len(raw) - 1:
                assert not done or i == len(raw) - 1
        assert parser.complete
        assert parser.request.path == "/page.html"

    def test_request_not_complete_until_blank_line(self):
        parser = RequestParser()
        assert not parser.feed(b"GET / HTTP/1.0\r\nHost: h\r\n")
        assert not parser.complete
        with pytest.raises(ValueError):
            _ = parser.request
        assert parser.feed(b"\r\n")

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize(
        "first, second",
        [
            (b"GET /a HTTP/1.1\n\n", b"GET /b HTTP/1.1\r\n\r\n"),
            (b"GET /a HTTP/1.1\r\n\r\n", b"GET /b HTTP/1.1\n\n"),
            (b"GET /a HTTP/1.1\r\nHost: h\n\r\n", b"GET /b HTTP/1.1\r\n\r\n"),
        ],
    )
    def test_head_ends_at_first_empty_line(self, first, second, fast):
        """One terminator rule: the first empty line, CRLF or bare LF, ends
        the head wherever the other kind appears later in the buffer."""
        parser = RequestParser(fast=fast)
        assert parser.feed(first + second)
        assert parser.request.path == "/a"
        assert parser.remainder == second

    def test_pipelined_remainder_preserved(self):
        raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
        parser = RequestParser()
        assert parser.feed(raw)
        assert parser.request.path == "/a"
        second = RequestParser()
        assert second.feed(parser.remainder)
        assert second.request.path == "/b"

    def test_post_body_collected(self):
        raw = b"POST /cgi-bin/form HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello"
        parser = RequestParser()
        assert parser.feed(raw)
        assert parser.request.body == b"hello"

    def test_post_body_split_across_feeds(self):
        parser = RequestParser()
        assert not parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 10\r\n\r\nhel")
        assert not parser.complete
        assert parser.feed(b"lo worldEXTRA")
        assert parser.request.body == b"hello worl"
        assert parser.remainder == b"dEXTRA"


class TestErrors:
    def test_unsupported_method(self):
        with pytest.raises(NotImplementedError_):
            parse(b"BREW /coffee HTTP/1.0\r\n\r\n")

    def test_unsupported_version(self):
        with pytest.raises(VersionNotSupportedError):
            parse(b"GET / HTTP/3.0\r\n\r\n")

    def test_malformed_request_line(self):
        with pytest.raises(BadRequestError):
            parse(b"GET\r\n\r\n")

    def test_malformed_header_line(self):
        with pytest.raises(BadRequestError):
            parse(b"GET / HTTP/1.0\r\nbadheader\r\n\r\n")

    @pytest.mark.parametrize("line", [b"Host : x", b"Host\t: x", b"Connection : close"])
    @pytest.mark.parametrize("fast", [False, True])
    def test_whitespace_before_colon_rejected(self, line, fast):
        """RFC 7230 §3.2.4: 400, not a stripped name; the fast probe
        declines the line, so both parser modes answer the same."""
        parser = RequestParser(fast=fast)
        with pytest.raises(BadRequestError, match="whitespace before colon"):
            parser.feed(b"GET / HTTP/1.1\r\n" + line + b"\r\n\r\n")
        assert parser.fast_request is None

    @pytest.mark.parametrize("line", [b" Content-Length: 5", b"\tHost: x"])
    @pytest.mark.parametrize("fast", [False, True])
    def test_whitespace_led_first_header_rejected(self, line, fast):
        """RFC 7230 §3: a whitespace-led line before the first field folds
        into nothing — 400, not a field a front end would have ignored."""
        parser = RequestParser(fast=fast)
        with pytest.raises(BadRequestError, match="whitespace before first header"):
            parser.feed(b"GET / HTTP/1.1\r\n" + line + b"\r\nHost: x\r\n\r\nhello")
        assert parser.fast_request is None

    def test_negative_content_length(self):
        with pytest.raises(BadRequestError):
            parse(b"POST / HTTP/1.0\r\nContent-Length: -5\r\n\r\n")

    def test_non_numeric_content_length(self):
        with pytest.raises(BadRequestError):
            parse(b"POST / HTTP/1.0\r\nContent-Length: ten\r\n\r\n")

    def test_body_of_exactly_the_cap_is_accepted(self):
        parser = RequestParser()
        head = b"POST /cgi-bin/x HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % MAX_BODY_BYTES
        assert parser.feed(head + b"b" * MAX_BODY_BYTES + b"GET")
        assert len(parser.request.body) == MAX_BODY_BYTES
        assert isinstance(parser.request.body, bytes)
        assert parser.remainder == b"GET"

    def test_body_over_the_cap_is_413_before_any_body_arrives(self):
        parser = RequestParser()
        with pytest.raises(RequestTooLargeError) as info:
            parser.feed(
                b"POST /cgi-bin/x HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
            )
        assert info.value.status == 413
        with pytest.raises(RequestTooLargeError):
            parse(b"POST / HTTP/1.0\r\nContent-Length: 99999999999999\r\n\r\n")

    def test_capped_body_fed_in_small_pieces_is_whole(self):
        parser = RequestParser()
        body = bytes(range(256)) * (MAX_BODY_BYTES // 256)
        assert not parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body))
        pieces = [body[offset : offset + 1024] for offset in range(0, len(body), 1024)]
        for piece in pieces[:-1]:
            assert not parser.feed(piece)
        assert parser.feed(pieces[-1] + b"NEXT")
        assert parser.request.body == body
        assert isinstance(parser.request.body, bytes)
        assert parser.remainder == b"NEXT"

    @pytest.mark.parametrize("method", ["GET", "HEAD", "POST"])
    def test_body_is_framed_on_every_method(self, method):
        """A GET's body must not become the next pipelined request."""
        smuggled = b"GET /secret HTTP/1.1\r\n\r\n"
        parser = RequestParser()
        head = b"%s /a HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (
            method.encode(),
            len(smuggled),
        )
        assert parser.feed(head + smuggled + b"NEXT")
        assert parser.request.body == smuggled
        assert parser.remainder == b"NEXT"

    @pytest.mark.parametrize(
        "value", ["+10", "1_0", " 1 0", "0x10", "1e3", "", "5, 5", "\xb2"]
    )
    def test_content_length_must_be_digits(self, value):
        raw = b"GET / HTTP/1.1\r\nContent-Length: " + value.encode("latin-1") + b"\r\n\r\n"
        with pytest.raises(BadRequestError):
            parse(raw + b"x" * 16)

    def test_repeated_content_length_rejected(self):
        with pytest.raises(BadRequestError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc")

    @pytest.mark.parametrize("name", ["If-Match", "If-None-Match"])
    def test_repeated_list_field_lines_are_joined(self, name):
        request = parse(
            f'GET / HTTP/1.1\r\n{name}: "a"\r\nHost: h\r\n{name}: "b", "c"\r\n\r\n'.encode()
        )
        assert request.headers[name.lower()] == '"a", "b", "c"'

    def test_other_repeated_fields_keep_the_last_line(self):
        request = parse(b"GET / HTTP/1.1\r\nX-Tag: a\r\nX-Tag: b\r\n\r\n")
        assert request.headers["x-tag"] == "b"

    def test_transfer_encoding_not_implemented(self):
        with pytest.raises(NotImplementedError_) as info:
            parse(b"POST /cgi-bin/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
        assert info.value.status == 501

    def test_transfer_encoding_with_content_length_rejected(self):
        with pytest.raises(BadRequestError) as info:
            parse(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                b"Content-Length: 5\r\n\r\n0\r\n\r\n"
            )
        assert info.value.status == 400

    def test_oversized_header_rejected(self):
        parser = RequestParser(max_header_bytes=128)
        with pytest.raises(RequestTooLargeError):
            parser.feed(b"GET /" + b"a" * 200 + b" HTTP/1.0\r\nX: 1\r\n")

    def test_empty_request_line(self):
        with pytest.raises(BadRequestError):
            parse(b"\r\n\r\n")


class TestKeepAliveSemantics:
    def test_http11_default_keep_alive(self):
        assert parse(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n").keep_alive

    def test_http11_explicit_close(self):
        assert not parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive

    def test_http10_default_close(self):
        assert not parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive

    def test_http10_explicit_keep_alive(self):
        assert parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive


class TestPropertyBased:
    @given(
        path_bits=st.lists(
            st.text(alphabet="abcdefghij0123456789_-", min_size=1, max_size=8),
            min_size=1,
            max_size=5,
        ),
        header_values=st.dictionaries(
            st.sampled_from(["host", "accept", "user-agent", "referer"]),
            st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=20),
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_arbitrary_paths_and_headers(self, path_bits, header_values):
        """Any well-formed request the parser sees round-trips faithfully."""
        path = "/" + "/".join(path_bits)
        lines = [f"GET {path} HTTP/1.1"]
        lines.extend(f"{name}: {value}" for name, value in header_values.items())
        raw = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        request = parse(raw)
        assert request.method == "GET"
        assert request.path == path
        for name, value in header_values.items():
            assert request.headers[name] == value.strip()

    @given(split_at=st.integers(min_value=1, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_any_split_point_gives_same_result(self, split_at):
        """Feeding the bytes in two arbitrary chunks never changes the parse."""
        raw = b"GET /some/file.html HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n\r\n"
        split_at = min(split_at, len(raw) - 1)
        parser = RequestParser()
        parser.feed(raw[:split_at])
        parser.feed(raw[split_at:])
        assert parser.complete
        assert parser.request.path == "/some/file.html"


class TestFastParse:
    """The allocation-free fast probe and its equivalence with the full parser."""

    @staticmethod
    def fast(raw, *chunks):
        parser = RequestParser(fast=True)
        parser.feed(raw)
        for chunk in chunks:
            parser.feed(chunk)
        return parser

    def test_plain_get_hits_fast_path(self):
        parser = self.fast(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
        assert parser.complete
        assert parser.fast_request is not None
        assert parser.fast_request.target == b"/index.html"
        assert parser.fast_request.keep_alive is True
        assert parser.remainder == b""

    def test_lazy_materialization_matches_full_parse(self):
        raw = b"GET /a/b.html HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n"
        parser = self.fast(raw)
        assert parser.fast_request is not None
        materialized = parser.request          # built on demand
        reference = parse(raw)
        assert materialized.method == reference.method
        assert materialized.uri == reference.uri
        assert materialized.path == reference.path
        assert materialized.version == reference.version
        assert materialized.headers == reference.headers
        assert materialized.keep_alive == reference.keep_alive

    @pytest.mark.parametrize(
        "raw, keep_alive",
        [
            (b"GET / HTTP/1.1\r\n\r\n", True),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", False),
            (b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n", False),
            (b"GET / HTTP/1.0\r\n\r\n", False),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", True),
            (b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", True),
            (b"GET / HTTP/1.1\r\nConnection: close, te\r\n\r\n", True),
        ],
    )
    def test_keep_alive_matches_full_parser(self, raw, keep_alive):
        parser = self.fast(raw)
        assert parser.fast_request is not None
        assert parser.fast_request.keep_alive is keep_alive
        assert parse(raw).keep_alive is keep_alive

    @pytest.mark.parametrize(
        "raw",
        [
            b"HEAD /x HTTP/1.1\r\n\r\n",                       # method
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nok",  # method + body
            b"GET /x?q=1 HTTP/1.1\r\n\r\n",                    # query string
            b"GET /a%20b HTTP/1.1\r\n\r\n",                    # percent escape
            b"GET /a//b HTTP/1.1\r\n\r\n",                     # slash collapsing
            b"GET /a/../b HTTP/1.1\r\n\r\n",                   # dot segments
            b"GET /cgi-bin/app HTTP/1.1\r\n\r\n",              # dynamic prefix
            b"GET /x HTTP/0.9\r\n\r\n",                        # old version
            b"GET /x HTTP/1.1\r\nIf-Modified-Since: t\r\n\r\n",  # conditional
            b"GET /x HTTP/1.1\r\nRange: bytes=0-1\r\n\r\n",    # range
            b"GET /x HTTP/1.1\r\nHost: a\r\n b\r\n\r\n",       # folded header
            b"GET /x\r\n\r\n",                                 # HTTP/0.9 simple
            b"GET /x HTTP/1.1\nHost: a\n\n",                   # bare-LF endings
        ],
    )
    def test_unusual_shapes_take_full_parser(self, raw):
        """Every unsupported shape must parse exactly as with fast off."""
        parser = self.fast(raw)
        assert parser.fast_request is None
        assert parser.complete
        reference_parser = RequestParser()
        reference_parser.feed(raw)
        reference = reference_parser.request
        request = parser.request
        assert request.method == reference.method
        assert request.uri == reference.uri
        assert request.headers == reference.headers
        assert parser.remainder == reference_parser.remainder

    def test_malformed_header_line_still_rejected(self):
        """A junk header line must 400 with fast parsing on, exactly as off."""
        raw = b"GET /x HTTP/1.1\r\ngarbage-without-colon\r\n\r\n"
        parser = RequestParser(fast=True)
        with pytest.raises(BadRequestError):
            parser.feed(raw)
        assert parser.fast_request is None  # probe declined; full parse owns it

    def test_extra_spaces_in_request_line_rejected_both_ways(self):
        raw = b"GET /a b HTTP/1.1\r\n\r\n"
        for fast in (True, False):
            parser = RequestParser(fast=fast)
            with pytest.raises(BadRequestError):
                parser.feed(raw)
                parser.request

    def test_pipelined_requests_leave_remainder(self):
        first = b"GET /one HTTP/1.1\r\nHost: x\r\n\r\n"
        second = b"GET /two HTTP/1.1\r\nHost: x\r\n\r\n"
        parser = self.fast(first + second)
        assert parser.fast_request.target == b"/one"
        assert parser.remainder == second
        parser.reset()
        assert parser.feed(parser.remainder or second)
        # reset cleared the remainder; feed the captured second request
        parser2 = RequestParser(fast=True)
        parser2.feed(second)
        assert parser2.fast_request.target == b"/two"

    def test_byte_at_a_time_delivery_still_hits_fast_path(self):
        raw = b"GET /slow.html HTTP/1.1\r\nHost: x\r\n\r\n"
        parser = RequestParser(fast=True)
        for index in range(len(raw)):
            complete = parser.feed(raw[index : index + 1])
        assert complete
        assert parser.fast_request is not None
        assert parser.fast_request.target == b"/slow.html"

    def test_reset_reuses_parser_for_next_request(self):
        parser = RequestParser(fast=True)
        parser.feed(b"GET /a HTTP/1.1\r\n\r\n")
        assert parser.fast_request.target == b"/a"
        parser.reset()
        assert not parser.complete
        parser.feed(b"GET /b HTTP/1.0\r\n\r\n")
        assert parser.fast_request.target == b"/b"
        assert parser.fast_request.keep_alive is False

    @given(
        target=st.text(
            alphabet="abcdefghij0123456789_-./~", min_size=1, max_size=30
        ),
        version=st.sampled_from(["HTTP/1.0", "HTTP/1.1"]),
        connection=st.sampled_from([None, "close", "keep-alive", "Close", "weird"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_fast_and_full_always_agree(self, target, version, connection):
        """Whenever the probe accepts a request, its verdicts are identical
        to the full parser's."""
        lines = [f"GET /{target} {version}", "Host: h"]
        if connection is not None:
            lines.append(f"Connection: {connection}")
        raw = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        parser = RequestParser(fast=True)
        try:
            parser.feed(raw)
        except Exception:
            # Full-parse rejection (e.g. traversal): fast must not have
            # claimed the request first.
            assert parser.fast_request is None
            return
        if parser.fast_request is None:
            return
        reference = parse(raw)
        assert parser.fast_request.target == b"/" + target.encode("latin-1")
        assert parser.fast_request.keep_alive == reference.keep_alive
        assert parser.request.uri == reference.uri


class TestFastParseBareLF:
    """Bare LFs anywhere in the block are line breaks to the full parser
    but would be line content to the probe's CRLF scan: the probe must
    decline so both parser modes stay byte-identical."""

    def test_bare_lf_in_header_value_declines(self):
        raw = b"GET /x HTTP/1.1\r\nConnection: close\nX: b\r\n\r\n"
        parser = RequestParser(fast=True)
        parser.feed(raw)
        assert parser.fast_request is None
        # Full parser (both modes) sees the Connection header and closes.
        assert parser.request.keep_alive is False
        assert parse(raw).keep_alive is False

    def test_bare_lf_splitting_header_name_declines(self):
        raw = b"GET /x HTTP/1.1\r\nConn\nection: close\r\n\r\n"
        parser = RequestParser(fast=True)
        with pytest.raises(BadRequestError):
            parser.feed(raw)                  # "Conn" has no colon: 400
        assert parser.fast_request is None

    def test_bare_lf_in_target_declines(self):
        raw = b"GET /a\nb HTTP/1.1\r\n\r\n"
        parser = RequestParser(fast=True)
        with pytest.raises(BadRequestError):
            parser.feed(raw)                  # >3 request-line words: 400
        assert parser.fast_request is None


class TestParseRange:
    """RFC 7233 range parsing against a representation size.

    Exercises :func:`parse_ranges` through a one-window adapter: these
    cases all describe a single contiguous window, so the full parser must
    return exactly one ``(offset, length)`` pair for them.
    """

    def setup_method(self):
        from repro.http.request import RANGE_UNSATISFIABLE, parse_ranges

        def one_window(value, size):
            windows = parse_ranges(value, size)
            if windows is None or windows is RANGE_UNSATISFIABLE:
                return windows
            assert len(windows) == 1, windows
            return windows[0]

        self.parse_range = staticmethod(one_window)
        self.UNSAT = RANGE_UNSATISFIABLE

    def test_simple_window(self):
        assert self.parse_range("bytes=0-1023", 4096) == (0, 1024)

    def test_interior_window(self):
        assert self.parse_range("bytes=100-199", 4096) == (100, 100)

    def test_single_byte(self):
        assert self.parse_range("bytes=0-0", 4096) == (0, 1)
        assert self.parse_range("bytes=4095-4095", 4096) == (4095, 1)

    def test_open_ended(self):
        assert self.parse_range("bytes=4000-", 4096) == (4000, 96)

    def test_last_clamped_to_size(self):
        assert self.parse_range("bytes=4000-999999", 4096) == (4000, 96)

    def test_suffix(self):
        assert self.parse_range("bytes=-100", 4096) == (3996, 100)

    def test_suffix_larger_than_file_is_whole_file(self):
        assert self.parse_range("bytes=-999999", 4096) == (0, 4096)

    def test_suffix_zero_unsatisfiable(self):
        assert self.parse_range("bytes=-0", 4096) is self.UNSAT

    def test_first_past_end_unsatisfiable(self):
        assert self.parse_range("bytes=4096-", 4096) is self.UNSAT
        assert self.parse_range("bytes=5000-6000", 4096) is self.UNSAT

    def test_empty_file_unsatisfiable(self):
        assert self.parse_range("bytes=0-", 0) is self.UNSAT
        assert self.parse_range("bytes=-5", 0) is self.UNSAT

    def test_multi_range_returns_every_window(self):
        from repro.http.request import parse_ranges

        assert parse_ranges("bytes=0-1,5-9", 4096) == [(0, 2), (5, 5)]

    def test_other_units_ignored(self):
        assert self.parse_range("lines=0-5", 4096) is None

    def test_malformed_ignored(self):
        for value in (
            "bytes=", "bytes=-", "bytes=a-b", "bytes=5", "bytes=5-3",
            "bytes", "", "bytes= - ", "bytes=+1-2", "bytes=1-2x",
        ):
            assert self.parse_range(value, 4096) is None, value

    def test_whitespace_tolerated(self):
        assert self.parse_range("bytes = 0 - 99", 4096) == (0, 100)

    @given(
        size=st.integers(1, 1 << 20),
        first=st.integers(0, 1 << 21),
        last=st.integers(0, 1 << 21),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_always_inside_representation(self, size, first, last):
        from repro.http.request import parse_ranges

        result = parse_ranges(f"bytes={first}-{last}", size)
        if last < first:
            assert result is None
        elif first >= size:
            from repro.http.request import RANGE_UNSATISFIABLE

            assert result is RANGE_UNSATISFIABLE
        else:
            [(offset, length)] = result
            assert offset == first
            assert length >= 1
            assert offset + length <= size
