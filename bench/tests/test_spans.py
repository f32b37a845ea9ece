"""Span bookkeeping: parents, request ids and self-time arithmetic."""

import json

from bench import spans
from bench.spans import END, NAME, PARENT, REQUEST, START


def fixed(records):
    """Spans with hand-set clocks: (name, start, end, parent, request_id)."""
    return [[name, start, end, parent, request, None] for name, start, end, parent, request in records]


def test_self_time_is_duration_minus_direct_children():
    recorded = fixed([
        ("request", 0, 100_000, -1, 0),       # 100 us
        ("parse", 10_000, 30_000, 0, 0),      # 20 us, child of request
        ("lookup", 40_000, 90_000, 0, 0),     # 50 us, child of request
        ("cache", 50_000, 60_000, 2, 0),      # 10 us, child of lookup
    ])
    assert spans.self_times_ns(recorded) == [30_000, 20_000, 40_000, 10_000]
    by_layer = spans.self_time_by_layer(recorded)
    assert by_layer["request"] == (30.0, 1.0)
    assert by_layer["lookup"] == (40.0, 1.0)
    assert sum(value for value, _ in by_layer.values()) == 100.0  # nothing lost


def test_per_request_figures_divide_by_the_requests_seen_and_skip_probes():
    recorded = fixed([
        ("request", 0, 10_000, -1, 0),
        ("request", 20_000, 40_000, -1, 1),
        ("probe", 50_000, 90_000, -1, -1),    # request_id -1: not a replayed request
    ])
    assert spans.self_time_by_layer(recorded) == {"request": (15.0, 1.0)}
    assert spans.median_us(recorded, "request") == (15.0, 2)
    assert spans.median_us(recorded, "absent") == (0.0, 0)


def test_tracer_nests_spans_and_wrap_records_callees_as_children():
    class Layer:
        def work(self, value):
            return value + 1

    tracer = spans.Tracer()
    layer = Layer()
    tracer.wrap(layer, "work", "layer.work")
    tracer.request_id = 7
    tracer.begin("outer")
    assert layer.work(1) == 2
    tracer.end("tagged")
    outer, inner = tracer.spans
    assert (outer[NAME], outer[PARENT], outer[REQUEST]) == ("outer", -1, 7)
    assert (inner[NAME], inner[PARENT], inner[REQUEST]) == ("layer.work", 0, 7)
    assert outer[START] <= inner[START] <= inner[END] <= outer[END]
    assert spans.durations_us(tracer.spans, "outer", "tagged") and not spans.durations_us(
        tracer.spans, "outer", "other")


def test_wrapped_callee_that_raises_still_closes_its_span():
    class Layer:
        def work(self):
            raise KeyError("gone")

    tracer = spans.Tracer()
    layer = Layer()
    tracer.wrap(layer, "work", "layer.work")
    try:
        layer.work()
    except KeyError:
        pass
    tracer.begin("next")
    tracer.end()
    assert [span[PARENT] for span in tracer.spans] == [-1, -1]


def test_null_tracer_records_nothing():
    tracer = spans.NullTracer()
    tracer.begin("x")
    tracer.end()
    assert tracer.spans == []


def test_trace_file_is_one_json_object_per_span(tmp_path):
    tracer = spans.Tracer()
    tracer.begin("a")
    tracer.begin("b")
    tracer.end()
    tracer.end()
    path = tmp_path / "trace.jsonl"
    spans.write_jsonl(tracer.spans, str(path), "first")
    spans.write_jsonl(tracer.spans[:1], str(path), "second")  # appends
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(row["workload"], row["id"], row["name"], row["parent"]) for row in rows] == [
        ("first", 0, "a", -1), ("first", 1, "b", 0), ("second", 0, "a", -1)]
    assert all(row["end_ns"] >= row["start_ns"] for row in rows)
