"""Unit tests for the RFC 7232 validator layer and multi-range parsing.

Covers ETag minting and comparison (strong/weak, lists, the ``*`` form),
the four precondition evaluators, the ETag form of ``If-Range``, the
multi-range ``parse_ranges`` contract (ordering, overlap, the
single-survivor collapse, the parts cap) and the multipart framing
helpers the 206 builder composes responses from.
"""

import pytest

from repro.http.request import (
    MAX_RANGE_PARTS,
    RANGE_UNSATISFIABLE,
    parse_ranges,
)
from repro.http.response import (
    etag_strong_match,
    etag_weak_match,
    http_date,
    if_match_matches,
    if_none_match_matches,
    if_range_matches,
    if_unmodified_since_matches,
    make_etag,
    multipart_boundary,
    multipart_part_head,
    multipart_trailer,
    parse_etag_list,
)

ETAG = make_etag(4096, 1_700_000_000_123_456_789)


class TestMakeEtag:
    def test_quoted_and_strong(self):
        assert ETAG.startswith('"') and ETAG.endswith('"')
        assert not ETAG.startswith("W/")

    def test_distinct_states_get_distinct_tags(self):
        # Same second, different nanoseconds: still distinguishable, which
        # is what makes the tag strong where Last-Modified is not.
        assert make_etag(4096, 1_000_000_000) != make_etag(4096, 1_000_000_001)
        assert make_etag(4096, 1_000_000_000) != make_etag(4097, 1_000_000_000)

    def test_deterministic(self):
        assert make_etag(10, 20) == make_etag(10, 20)


class TestParseEtagList:
    def test_star(self):
        assert parse_etag_list("*") == ["*"]

    def test_single(self):
        assert parse_etag_list('"abc"') == ['"abc"']

    def test_list_with_weak_members(self):
        assert parse_etag_list('W/"a", "b" , W/"c"') == ['W/"a"', '"b"', 'W/"c"']

    def test_comma_inside_tag_is_preserved(self):
        assert parse_etag_list('"a,b", "c"') == ['"a,b"', '"c"']

    @pytest.mark.parametrize("value", ["", "unquoted", '"unterminated', 'W/', "  "])
    def test_malformed(self, value):
        assert parse_etag_list(value) is None


class TestComparisons:
    def test_strong_match(self):
        assert etag_strong_match('"a"', '"a"')
        assert not etag_strong_match('W/"a"', '"a"')
        assert not etag_strong_match('"a"', 'W/"a"')
        assert not etag_strong_match('"a"', '"b"')

    def test_weak_match(self):
        assert etag_weak_match('W/"a"', '"a"')
        assert etag_weak_match('"a"', 'W/"a"')
        assert etag_weak_match('"a"', '"a"')
        assert not etag_weak_match('"a"', '"b"')

    def test_if_none_match(self):
        assert if_none_match_matches("*", ETAG)
        assert if_none_match_matches(ETAG, ETAG)
        assert if_none_match_matches(f'"zzz", {ETAG}', ETAG)
        assert if_none_match_matches(f"W/{ETAG}", ETAG)  # weak comparison
        assert not if_none_match_matches('"zzz"', ETAG)
        assert not if_none_match_matches("garbage", ETAG)

    def test_if_match(self):
        assert if_match_matches("*", ETAG)
        assert if_match_matches(ETAG, ETAG)
        assert if_match_matches(f'"zzz", {ETAG}', ETAG)
        assert not if_match_matches(f"W/{ETAG}", ETAG)  # strong comparison
        assert not if_match_matches('"zzz"', ETAG)
        assert not if_match_matches("garbage", ETAG)


class TestIfUnmodifiedSince:
    MTIME = 1_700_000_000.0

    def test_not_modified_since_passes(self):
        assert if_unmodified_since_matches(http_date(self.MTIME), self.MTIME)
        assert if_unmodified_since_matches(http_date(self.MTIME + 60), self.MTIME)

    def test_modified_since_fails(self):
        assert not if_unmodified_since_matches(http_date(self.MTIME - 60), self.MTIME)

    def test_unparseable_is_ignored(self):
        # RFC 7232 §3.4: ignore the header, i.e. the precondition passes.
        assert if_unmodified_since_matches("not a date", self.MTIME)


class TestIfRangeEtagForm:
    MTIME = 1_700_000_000.0

    def test_matching_strong_tag(self):
        assert if_range_matches(ETAG, self.MTIME, ETAG)

    def test_stale_tag(self):
        assert not if_range_matches('"stale"', self.MTIME, ETAG)

    def test_weak_tag_never_matches(self):
        assert not if_range_matches(f"W/{ETAG}", self.MTIME, ETAG)

    def test_tag_form_without_known_etag(self):
        assert not if_range_matches(ETAG, self.MTIME, None)

    def test_date_form_still_exact(self):
        assert if_range_matches(http_date(self.MTIME), self.MTIME, ETAG)
        assert not if_range_matches(http_date(self.MTIME - 1), self.MTIME, ETAG)


class TestParseRanges:
    SIZE = 1000

    def test_single_window(self):
        assert parse_ranges("bytes=0-9", self.SIZE) == [(0, 10)]

    def test_multi_window_in_request_order(self):
        assert parse_ranges("bytes=100-199,0-9", self.SIZE) == [(100, 100), (0, 10)]

    def test_overlapping_windows_coalesce(self):
        # RFC 7233 §4.1: overlapping ranges ought to be coalesced; a client
        # cannot rely on receiving the exact ranges it requested.
        assert parse_ranges("bytes=0-99,50-149", self.SIZE) == [(0, 150)]

    def test_touching_windows_coalesce(self):
        assert parse_ranges("bytes=0-4,5-9", self.SIZE) == [(0, 10)]

    def test_gapped_windows_stay_distinct(self):
        assert parse_ranges("bytes=0-4,6-9", self.SIZE) == [(0, 5), (6, 4)]

    def test_coalescing_bridges_through_a_late_window(self):
        # The middle window only becomes mergeable once 5-9 joins 0-4, so
        # coalescing must iterate to a fixed point.
        assert parse_ranges("bytes=0-4,10-14,5-9", self.SIZE) == [(0, 15)]

    def test_coalesced_window_keeps_first_occurrence_order(self):
        assert parse_ranges("bytes=100-199,0-9,150-249", self.SIZE) == [
            (100, 150),
            (0, 10),
        ]

    def test_mixed_forms(self):
        # The open-ended 500- window swallows the overlapping -10 suffix.
        assert parse_ranges("bytes=0-0,500-,-10", self.SIZE) == [
            (0, 1),
            (500, 500),
        ]

    def test_single_survivor_collapses_to_one_window(self):
        # One satisfiable + one out-of-bounds: the caller serves a plain 206.
        assert parse_ranges("bytes=5-9,99999-", self.SIZE) == [(5, 5)]

    def test_all_unsatisfiable_is_416(self):
        assert parse_ranges("bytes=9999-,8888-9999", self.SIZE) is RANGE_UNSATISFIABLE

    def test_any_invalid_spec_invalidates_the_header(self):
        assert parse_ranges("bytes=0-9,oops", self.SIZE) is None
        assert parse_ranges("bytes=0-9,9-0", self.SIZE) is None

    def test_non_bytes_unit_ignored(self):
        assert parse_ranges("lines=0-9", self.SIZE) is None

    def test_parts_cap(self):
        # Gapped singletons so coalescing leaves them distinct; the cap
        # applies to the spec count *before* coalescing.
        within = ",".join(f"{2 * i}-{2 * i}" for i in range(MAX_RANGE_PARTS))
        beyond = ",".join(f"{2 * i}-{2 * i}" for i in range(MAX_RANGE_PARTS + 1))
        assert len(parse_ranges(f"bytes={within}", self.SIZE)) == MAX_RANGE_PARTS
        assert parse_ranges(f"bytes={beyond}", self.SIZE) is None

    def test_trailing_and_empty_elements_tolerated(self):
        # 0-9 and 10-19 touch, so the tolerated list also coalesces.
        assert parse_ranges("bytes=0-9,,10-19,", self.SIZE) == [(0, 20)]


class TestMultipartFraming:
    WINDOWS = [(0, 10), (100, 50)]

    def test_boundary_is_deterministic_and_distinct(self):
        first = multipart_boundary(ETAG, self.WINDOWS)
        again = multipart_boundary(ETAG, self.WINDOWS)
        other = multipart_boundary(ETAG, [(0, 10), (100, 51)])
        assert first == again
        assert first != other
        assert first != multipart_boundary('"other"', self.WINDOWS)

    def test_part_head_shape(self):
        boundary = multipart_boundary(ETAG, self.WINDOWS)
        first = multipart_part_head(boundary, "text/html", 0, 10, 1000, first=True)
        later = multipart_part_head(boundary, "text/html", 100, 50, 1000)
        assert first.startswith(f"--{boundary}\r\n".encode())
        assert later.startswith(f"\r\n--{boundary}\r\n".encode())
        assert b"Content-Range: bytes 0-9/1000\r\n" in first
        assert b"Content-Range: bytes 100-149/1000\r\n" in later
        assert b"Content-Type: text/html\r\n" in first
        assert first.endswith(b"\r\n\r\n")

    def test_trailer_shape(self):
        boundary = multipart_boundary(ETAG, self.WINDOWS)
        assert multipart_trailer(boundary) == f"\r\n--{boundary}--\r\n".encode()
