"""``plan_response`` against a table-driven reference.

Every header value is generated together with the verdict it carries *by
construction* (``*`` matches, a weak tag fails a strong comparison, a stale
date fails ``If-Unmodified-Since``, ...), so the reference never parses a
header: it looks the verdicts up in two first-row-wins tables — RFC 7232 §6
precedence, then RFC 7233 range resolution — and the planner, which only
sees the strings, must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.planner import plan_response
from repro.http.request import MAX_RANGE_PARTS
from repro.http.response import http_date, make_etag

MTIME = 1_700_000_000.25
MTIME_NS = 1_700_000_000_250_000_000
ANY = object()

# -- the reference tables (first matching row wins) ---------------------------

#   If-Match   If-Unmodified-Since   If-None-Match   If-Modified-Since   answer
PRECEDENCE = [
    ("fail",   ANY,                  ANY,            ANY,                412),
    ("absent", "fail",               ANY,            ANY,                412),
    (ANY,      ANY,                  "match",        ANY,                304),
    (ANY,      ANY,                  "absent",       "match",            304),
    (ANY,      ANY,                  ANY,            ANY,                None),  # on to Range
]

#   Range        If-Range   answer
RANGES = [
    ("absent",   ANY,       200),
    ("ignored",  ANY,       200),
    (ANY,        "fail",    200),
    ("unsat",    ANY,       416),
    ("windows",  ANY,       206),
]


def first_row(table, *verdicts):
    for *pattern, answer in table:
        if all(want is ANY or want == got for want, got in zip(pattern, verdicts)):
            return answer
    raise AssertionError(f"no row for {verdicts}")


# -- generated header values, each with its verdict ---------------------------

absent = st.just((None, "absent"))


def etag_values(etag, *, weak_matches):
    """Entity-tag list forms and whether they select ``etag``."""
    weak = "W/" + etag
    yes, no = ("match", "nomatch") if weak_matches else ("pass", "fail")
    return st.sampled_from(
        [
            ("*", yes),
            (etag, yes),
            (f'"zzz", {etag}', yes),
            (weak, yes if weak_matches else no),
            (f'"zzz", {weak}', yes if weak_matches else no),
            ('"zzz"', no),
            ('"zzz", "yyy"', no),
            ("not-a-tag", no),
        ]
    )


DATES = {
    "exact": http_date(MTIME),
    "later": http_date(MTIME + 3600),
    "stale": http_date(MTIME - 3600),
    "garbage": "yesterday-ish",
}
# An unparseable If-Unmodified-Since is ignored, i.e. does not fail.
if_unmodified_since = absent | st.sampled_from(
    [(DATES["exact"], "pass"), (DATES["later"], "pass"),
     (DATES["stale"], "fail"), (DATES["garbage"], "pass")]
)
if_modified_since = absent | st.sampled_from(
    [(DATES["exact"], "match"), (DATES["later"], "match"),
     (DATES["stale"], "nomatch"), (DATES["garbage"], "nomatch")]
)


def if_range_values(etag):
    # Both validator forms compare strongly: a weak tag never matches and a
    # date must equal Last-Modified exactly.
    return absent | st.sampled_from(
        [(etag, "pass"), ("W/" + etag, "fail"), ('"zzz"', "fail"),
         (DATES["exact"], "pass"), (DATES["later"], "fail"),
         (DATES["stale"], "fail"), (DATES["garbage"], "fail")]
    )


def resolve(specs, size):
    """Reference range resolution: ``(verdict, windows)`` for typed specs."""
    intervals = []  # (first, end-exclusive, position in the request)
    unsatisfiable = False
    for position, spec in enumerate(specs):
        kind = spec[0]
        if kind == "bad":
            return "ignored", None
        if kind == "suffix":
            first, end = size - min(spec[1], size), size
            if spec[1] == 0:
                first = end
        elif kind == "open":
            first, end = spec[1], size
        else:
            if spec[2] < spec[1]:
                return "ignored", None
            first, end = spec[1], min(spec[2] + 1, size)
        if first >= end:
            unsatisfiable = True
        else:
            intervals.append((first, end, position))
    if len(specs) > MAX_RANGE_PARTS:
        return "ignored", None
    if not intervals:
        return ("unsat", None) if unsatisfiable else ("ignored", None)
    # Maximal runs of overlapping-or-touching intervals, each placed where
    # its earliest member appeared in the request.
    runs = []
    for first, end, position in sorted(intervals):
        if runs and first <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], end)
            runs[-1][2] = min(runs[-1][2], position)
        else:
            runs.append([first, end, position])
    runs.sort(key=lambda run: run[2])
    return "windows", [(first, end - first) for first, end, _ in runs]


def spec_text(spec):
    kind = spec[0]
    if kind == "bad":
        return spec[1]
    if kind == "suffix":
        return f"-{spec[1]}"
    if kind == "open":
        return f"{spec[1]}-"
    return f"{spec[1]}-{spec[2]}"


def range_specs(size):
    position = st.integers(0, size + 50)
    spec = st.one_of(
        st.tuples(st.just("range"), position, position),
        st.tuples(st.just("open"), position),
        st.tuples(st.just("suffix"), st.integers(0, size + 50)),
        st.tuples(st.just("bad"), st.sampled_from(["x-y", "5", "-", "1-2x"])),
    )
    return st.lists(spec, min_size=1, max_size=MAX_RANGE_PARTS + 2)


@st.composite
def range_headers(draw, size):
    if draw(st.integers(0, 5)) == 0:
        return draw(
            absent | st.sampled_from(
                [("lines=0-5", "ignored"), ("bytes", "ignored"), ("bytes=", "ignored")]
            )
        ) + (None,)
    specs = draw(range_specs(size))
    verdict, windows = resolve(specs, size)
    return "bytes=" + ",".join(spec_text(spec) for spec in specs), verdict, windows


@st.composite
def cases(draw):
    size = draw(st.sampled_from([0, 1, 1000, 100_000]))
    etag = make_etag(size, MTIME_NS)
    return {
        "size": size,
        "etag": etag,
        "if_match": draw(absent | etag_values(etag, weak_matches=False)),
        "if_unmodified_since": draw(if_unmodified_since),
        "if_none_match": draw(absent | etag_values(etag, weak_matches=True)),
        "if_modified_since": draw(if_modified_since),
        "range": draw(range_headers(size)),
        "if_range": draw(if_range_values(etag)),
    }


@given(case=cases())
@settings(max_examples=600, deadline=None)
def test_planner_agrees_with_the_reference_tables(case):
    range_value, range_verdict, windows = case["range"]
    expected = first_row(
        PRECEDENCE,
        case["if_match"][1],
        case["if_unmodified_since"][1],
        case["if_none_match"][1],
        case["if_modified_since"][1],
    )
    if expected is None:
        expected = first_row(RANGES, range_verdict, case["if_range"][1])
    status, planned = plan_response(
        size=case["size"],
        mtime=MTIME,
        etag=case["etag"],
        if_match=case["if_match"][0],
        if_unmodified_since=case["if_unmodified_since"][0],
        if_none_match=case["if_none_match"][0],
        if_modified_since=case["if_modified_since"][0],
        range_header=range_value,
        if_range=case["if_range"][0],
    )
    assert status == expected
    assert planned == (windows if status == 206 else None)


def test_no_headers_is_a_plain_200():
    assert plan_response(size=10, mtime=MTIME, etag=make_etag(10, MTIME_NS)) == (200, None)
