"""The response planner: the one place that decides 200/206/304/412/416.

Every static GET/HEAD — whether it arrives through the full pipeline
(:meth:`repro.core.pipeline.ContentStore.build_response`) or is answered
from the hot-response cache (:meth:`~repro.core.pipeline.ContentStore.hot_lookup`)
— asks this function what to answer.  It is pure: no I/O, no counters, no
cache, no pins; the validators come from whichever entry the caller holds
(``PathnameEntry`` and ``HotEntry`` both carry ``size``/``mtime``/``etag``)
and the header values from the request.  Byte identity between the two
paths therefore holds by construction, not by keeping two evaluators in
step.
"""

from __future__ import annotations

from typing import Optional

from repro.http.request import RANGE_UNSATISFIABLE, parse_ranges
from repro.http.response import (
    if_match_matches,
    if_modified_since_matches,
    if_none_match_matches,
    if_range_matches,
    if_unmodified_since_matches,
)


def plan_response(
    *,
    size: int,
    mtime: float,
    etag: str,
    if_match: Optional[str] = None,
    if_unmodified_since: Optional[str] = None,
    if_none_match: Optional[str] = None,
    if_modified_since: Optional[str] = None,
    range_header: Optional[str] = None,
    if_range: Optional[str] = None,
) -> tuple[int, Optional[list[tuple[int, int]]]]:
    """Plan the answer to a GET/HEAD for a ``(size, mtime, etag)`` file.

    Returns ``(status, windows)``: ``status`` is 200, 206, 304, 412 or
    416, and ``windows`` is the coalesced ``(offset, length)`` list from
    :func:`~repro.http.request.parse_ranges` for a 206 (one entry: plain
    206; several: ``multipart/byteranges``) and ``None`` otherwise.

    RFC 7232 §6 precedence: ``If-Match`` first (strong comparison; failure
    is 412), then — only when ``If-Match`` is absent —
    ``If-Unmodified-Since`` (412), then ``If-None-Match`` (weak
    comparison; a match is a 304), and only when ``If-None-Match`` is
    absent, ``If-Modified-Since``.  A failed ``If-None-Match`` suppresses
    ``If-Modified-Since`` (§3.3): the client's tag is stale, so the full
    response follows even when the date alone would have said 304.

    RFC 7233: a ``Range`` header counts only when ``If-Range`` is absent
    or still selects this file; shapes the server must ignore (invalid
    specs, non-``bytes`` units, too many parts) degrade to the full 200,
    and a valid set that selects no byte is a 416.
    """
    if if_match:
        if not if_match_matches(if_match, etag):
            return 412, None
    elif if_unmodified_since and not if_unmodified_since_matches(
        if_unmodified_since, mtime
    ):
        return 412, None
    if if_none_match:
        if if_none_match_matches(if_none_match, etag):
            return 304, None
    elif if_modified_since and if_modified_since_matches(if_modified_since, mtime):
        return 304, None
    if range_header and (not if_range or if_range_matches(if_range, mtime, etag)):
        windows = parse_ranges(range_header, size)
        if windows is RANGE_UNSATISFIABLE:
            return 416, None
        if windows is not None:
            return 206, windows
    return 200, None
