"""Figure 11 — Flash performance breakdown (caching optimizations).

The FreeBSD single-file test is repeated with all eight combinations of the
pathname-translation, mapped-file and response-header caches.  Paper shape
asserted here:

* the fully optimized Flash achieves the highest connection rate at every
  file size;
* with no caching at all, small-file performance drops to roughly half;
* every individual optimization contributes: each single-cache variant
  beats "no caching";
* pathname translation caching provides the largest single benefit;
* the impact of the optimizations is strongest for small documents.

A second benchmark in this file (``BENCH fig11-hotpath``) extends the
breakdown to the *live* servers and to this reproduction's own
optimizations: the unified hot-response cache and the allocation-free fast
request parse are ablated (on/off × on/off) on a cached Zipf workload,
measuring the server's CPU time per request (``getrusage`` of this
process, which runs the server; the clients are subprocesses),
requests/second and latency percentiles under a multi-process
:class:`~repro.client.coordinator.LoadCoordinator`, and per-request
allocation counts under ``tracemalloc``.  Every live ablation writes its
``.txt`` table plus a schema-valid ``BENCH_fig11_*.json`` payload with
p50/p99/p999 and the latency CDF.
"""

import os
import random
import resource
import tempfile
import tracemalloc

from conftest import RESULTS_DIR, save_and_show

from repro.client.coordinator import LoadCoordinator
from repro.core.config import ServerConfig
from repro.experiments.optimization_breakdown import OptimizationBreakdownExperiment
from repro.experiments.results import ExperimentResult, ResultRow
from repro.http.request import RequestParser
from repro.servers import create_server


def test_fig11_optimization_breakdown(run_once):
    experiment = OptimizationBreakdownExperiment("freebsd", duration=1.5, warmup=0.5)
    result = run_once(experiment.run)
    save_and_show(result, metric="request_rate", name="fig11_optimization_breakdown")

    def rate(label, size_kb):
        return result.value(label, size_kb, "request_rate")

    sizes = result.x_values
    small = min(sizes)

    # Full Flash is the best combination at every size.
    for size_kb in sizes:
        best = max(
            result.rows, key=lambda row, s=size_kb: row.request_rate if row.x == s else -1
        )
        assert rate("all (Flash)", size_kb) >= 0.98 * best.request_rate

    # Without optimizations, small-file performance roughly halves.
    drop = rate("no caching", small) / rate("all (Flash)", small)
    assert 0.35 <= drop <= 0.65, f"no-caching small-file ratio {drop:.2f} not near one half"

    # Each single optimization beats no caching.
    for single in ("path only", "mmap only", "resp only"):
        assert rate(single, small) > rate("no caching", small)

    # Pathname translation caching is the largest single benefit.
    assert rate("path only", small) > rate("mmap only", small)
    assert rate("path only", small) > rate("resp only", small)

    # The benefit of caching shrinks as files get larger (per-request savings
    # are amortized over more bytes).
    large = max(sizes)
    gain_small = rate("all (Flash)", small) / rate("no caching", small)
    gain_large = rate("all (Flash)", large) / rate("no caching", large)
    assert gain_small >= gain_large


# -- live hot-path ablation (BENCH fig11-hotpath) ------------------------------

#: Zipf-ish catalog: most requests land on a handful of small documents, the
#: regime where per-request bookkeeping (the thing the hot path removes)
#: dominates per-request byte movement.
HOTPATH_FILES = 48
HOTPATH_FILE_SIZE = 4096
HOTPATH_SAMPLES = 192
HOTPATH_ALPHA = 1.2

#: Overridable so the CI bench-smoke job can run a tiny workload while
#: local/PR runs use the full one.
HOTPATH_DURATION = float(os.environ.get("FIG11_HOTPATH_DURATION", "2.0"))
HOTPATH_WARMUP = float(os.environ.get("FIG11_HOTPATH_WARMUP", "0.5"))
HOTPATH_GAIN_FLOOR = float(os.environ.get("FIG11_HOTPATH_GAIN_FLOOR", "1.25"))
#: Grid repetitions: each cell is measured once per pass (pass order
#: reversed) and scored by its best pass, which filters out runs degraded
#: by scheduler noise on small shared-core hosts.
HOTPATH_PASSES = int(os.environ.get("FIG11_HOTPATH_PASSES", "2"))
#: Client-side worker processes per measurement (cluster loadgen).
HOTPATH_WORKERS = int(os.environ.get("FIG11_WORKERS", "2"))
HOTPATH_CLIENTS_PER_PROCESS = 4
HOTPATH_ALLOC_REQUESTS = 300
HOTPATH_SEED = 23

HOTPATH_GRID = [
    (True, True),
    (True, False),
    (False, True),
    (False, False),
]


def _zipf_paths():
    """A fixed Zipf-weighted request sequence over the catalog."""
    weights = [1.0 / (rank ** HOTPATH_ALPHA) for rank in range(1, HOTPATH_FILES + 1)]
    rng = random.Random(7)
    return [
        f"/doc_{rng.choices(range(HOTPATH_FILES), weights=weights)[0]:03d}.html"
        for _ in range(HOTPATH_SAMPLES)
    ]


def _make_catalog(docroot):
    rng = random.Random(11)
    for index in range(HOTPATH_FILES):
        payload = bytes(rng.randrange(32, 127) for _ in range(HOTPATH_FILE_SIZE))
        with open(os.path.join(docroot, f"doc_{index:03d}.html"), "wb") as handle:
            handle.write(payload)


def _hotpath_clients(port, duration, paths, **load_kwargs):
    """Drive the server from ``HOTPATH_WORKERS`` separate client processes.

    The coordinator spawns the load generators, so the client side never
    shares an interpreter (or its GIL) with the server under test; the
    returned numbers are the parent's exact merge of the per-worker
    counters and latency histograms.
    """
    coordinator = LoadCoordinator(
        ("127.0.0.1", port),
        paths,
        workers=HOTPATH_WORKERS,
        num_clients=HOTPATH_CLIENTS_PER_PROCESS,
        duration=duration,
        seed=HOTPATH_SEED,
        **load_kwargs,
    )
    merged = coordinator.run().merged
    elapsed = max(merged.elapsed, 1e-9)
    return {
        "request_rate": merged.requests_completed / elapsed,
        "requests": merged.requests_completed,
        "errors": merged.errors,
        "bandwidth_mbps": merged.bytes_received * 8 / elapsed / 1e6,
        "latency": merged.latency,
    }


def _write_fig11_bench(name, rows, x_of, detail_keys):
    """Emit one live ablation as ``BENCH_<name>.json`` next to its table."""
    result = ExperimentResult(name, "cell")
    for row in rows:
        latency = row["latency"]
        result.add(
            ResultRow(
                experiment=name,
                server="sped",
                x=float(x_of(row)),
                bandwidth_mbps=row["bandwidth_mbps"],
                request_rate=row["request_rate"],
                details={key: row[key] for key in detail_keys},
                latency_ms=latency.summary_ms(),
                latency_cdf=latency.cdf_ms(),
            )
        )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    result.write_json(RESULTS_DIR)


def _latency_cells(row):
    """The p50/p99/p999 table cells (ms) for one live ablation row."""
    latency = row["latency"]
    return (
        f"{latency.percentile(0.50) * 1e3:>8.2f} "
        f"{latency.percentile(0.99) * 1e3:>8.2f} "
        f"{latency.percentile(0.999) * 1e3:>8.2f}"
    )


_LATENCY_HEADER = f"{'p50ms':>8} {'p99ms':>8} {'p999ms':>8}"


def _allocations_per_request(*, hot_cache, fast_parse):
    """Parse-layer allocation count per request for one ablation cell
    (tracemalloc).

    Replays the exact parsing work the live server performs per request in
    this configuration — fast probe only (hot hit), fast probe plus lazy
    materialization (hot miss), or the full parse — and retains every
    artifact so transient frees cannot hide the cost.  The snapshot diff is
    filtered to the parser module, so the number is "objects the request
    parse materializes", the thing the allocation-free fast path exists to
    eliminate.
    """
    raw = (
        b"GET /doc_000.html HTTP/1.1\r\n"
        b"Host: bench\r\nConnection: keep-alive\r\n\r\n"
    )
    # Warm once outside the traced window (interned strings, caches).
    warm = RequestParser(fast=fast_parse)
    warm.feed(raw)
    _ = warm.request

    retained = []
    tracemalloc.start(1)
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(HOTPATH_ALLOC_REQUESTS):
            parser = RequestParser(fast=fast_parse)
            parser.feed(raw)
            if parser.fast_request is not None and hot_cache:
                # Hot hit: the raw target is all the server ever touches.
                retained.append((parser, parser.fast_request.target))
            else:
                # Hot miss (or full parsing): the HTTPRequest materializes.
                retained.append((parser, parser.request))
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    keep = [tracemalloc.Filter(True, "*repro*request.py")]
    delta = after.filter_traces(keep).compare_to(
        before.filter_traces(keep), "filename"
    )
    allocations = sum(stat.count_diff for stat in delta if stat.count_diff > 0)
    del retained
    return allocations / HOTPATH_ALLOC_REQUESTS


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _measure_hotpath(docroot, paths, *, hot_cache, fast_parse):
    config = ServerConfig(
        document_root=docroot,
        port=0,
        num_helpers=2,
        hot_cache=hot_cache,
        fast_parse=fast_parse,
    )
    server = create_server("sped", config)
    server.start()
    try:
        port = server.address[1]
        _hotpath_clients(port, HOTPATH_WARMUP, paths)
        # The server runs in this process and the clients in subprocesses,
        # so this process's CPU time over the run is the server's (plus a
        # coordinator that waits): a per-request cost the generator's own
        # speed does not bound, unlike requests/second.
        requests_before, cpu_before = server.stats.requests, _cpu_seconds()
        clients = _hotpath_clients(port, HOTPATH_DURATION, paths)
        cpu = _cpu_seconds() - cpu_before
        served = server.stats.requests - requests_before
        stats = server.stats.snapshot()
    finally:
        server.stop()
    allocs = _allocations_per_request(hot_cache=hot_cache, fast_parse=fast_parse)
    return {
        "hot": hot_cache,
        "fast": fast_parse,
        "cpu_us_per_request": cpu * 1e6 / max(served, 1),
        "request_rate": clients["request_rate"],
        "requests": clients["requests"],
        "errors": clients["errors"],
        "bandwidth_mbps": clients["bandwidth_mbps"],
        "latency": clients["latency"],
        "allocs_per_request": allocs,
        "hot_hits": stats["hot_hits"],
        "fast_parses": stats["fast_parses"],
    }


def test_fig11_hotpath_ablation(run_once):
    """Live-server ablation: hot-response cache × fast parse (BENCH
    fig11-hotpath).

    The acceptance shape: with both optimizations on, the server spends at
    most 1/``HOTPATH_GAIN_FLOOR`` of both-off's CPU time per request on the
    cached Zipf workload, at a strictly lower server-side allocation count
    per request.  Requests/second are reported beside it, not gated: the
    closed-loop clients share the host's cores with the server, so that
    ratio moves with the generator.
    """
    paths = _zipf_paths()
    with tempfile.TemporaryDirectory() as docroot:
        _make_catalog(docroot)

        def run_grid():
            best = {}
            for rep in range(HOTPATH_PASSES):
                cells = HOTPATH_GRID if rep % 2 == 0 else HOTPATH_GRID[::-1]
                for hot, fast in cells:
                    row = _measure_hotpath(
                        docroot, paths, hot_cache=hot, fast_parse=fast
                    )
                    key = (hot, fast)
                    if (
                        key not in best
                        or row["cpu_us_per_request"] < best[key]["cpu_us_per_request"]
                    ):
                        best[key] = row
            return [best[key] for key in HOTPATH_GRID]

        rows = run_once(run_grid)

    onoff = {True: "on", False: "off"}
    header = (
        f"{'hot':<4} {'fast':<5} {'cpu us/req':>10} {'req/s':>9} {'requests':>9} "
        f"{'allocs/req':>11} {_LATENCY_HEADER} {'errors':>6}"
    )
    lines = [
        "BENCH fig11-hotpath: cached Zipf workload, SPED, "
        "hot-cache x fast-parse ablation",
        header,
    ]
    for row in rows:
        lines.append(
            f"{onoff[row['hot']]:<4} {onoff[row['fast']]:<5} "
            f"{row['cpu_us_per_request']:>10.1f} "
            f"{row['request_rate']:>9.0f} {row['requests']:>9.0f} "
            f"{row['allocs_per_request']:>11.1f} {_latency_cells(row)} "
            f"{row['errors']:>6.0f}"
        )
    by_key = {(row["hot"], row["fast"]): row for row in rows}
    both_on = by_key[(True, True)]
    both_off = by_key[(False, False)]
    speedup = both_on["request_rate"] / max(both_off["request_rate"], 1e-9)
    cpu_gain = both_off["cpu_us_per_request"] / max(both_on["cpu_us_per_request"], 1e-9)
    lines.append(
        f"BENCH fig11-hotpath: hot+fast vs both-off: {cpu_gain:.2f}x less server CPU "
        f"per request ({speedup:.2f}x requests/s), "
        f"{both_off['allocs_per_request']:.1f} -> "
        f"{both_on['allocs_per_request']:.1f} allocs/request"
    )
    table = "\n".join(lines)
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "fig11_hotpath.txt"), "w") as handle:
        handle.write(table + "\n")
    _write_fig11_bench(
        "fig11_hotpath",
        rows,
        x_of=lambda row: HOTPATH_GRID.index((row["hot"], row["fast"])),
        detail_keys=(
            "hot", "fast", "requests", "errors", "allocs_per_request",
            "cpu_us_per_request", "hot_hits", "fast_parses",
        ),
    )

    for row in rows:
        assert row["errors"] == 0, row
    # The toggles actually engaged (or stayed out of the way).
    assert both_on["hot_hits"] > 0 and both_on["fast_parses"] > 0
    assert both_off["hot_hits"] == 0 and both_off["fast_parses"] == 0
    assert by_key[(True, False)]["fast_parses"] == 0
    assert by_key[(False, True)]["hot_hits"] == 0
    # The acceptance criteria: single-lookup + allocation-free parse costs
    # the server decisively less per request and allocates less.
    assert cpu_gain >= HOTPATH_GAIN_FLOOR, (
        f"hot+fast only {cpu_gain:.2f}x less CPU per request than both-off "
        f"({both_on['cpu_us_per_request']:.1f} vs "
        f"{both_off['cpu_us_per_request']:.1f} us)"
    )
    assert both_on["allocs_per_request"] < both_off["allocs_per_request"]


# -- live range-mix ablation (BENCH fig11-range) -------------------------------

#: Range mixes measured: a pure full-GET workload and a half-ranged one
#: (the segment-fetcher / resumed-download regime the Range tentpole opens).
RANGE_FRACTIONS = [0.0, 0.5]
RANGE_SPEC = "0-1023"


def _measure_range_mix(docroot, paths, fraction):
    config = ServerConfig(
        document_root=docroot,
        port=0,
        num_helpers=2,
    )
    server = create_server("sped", config)
    server.start()
    try:
        port = server.address[1]
        extra = (
            {"range_fraction": fraction, "range_spec": RANGE_SPEC}
            if fraction > 0
            else {}
        )
        _hotpath_clients(port, HOTPATH_WARMUP, paths, **extra)
        clients = _hotpath_clients(port, HOTPATH_DURATION, paths, **extra)
        stats = server.stats.snapshot()
    finally:
        server.stop()
    return {
        "fraction": fraction,
        "request_rate": clients["request_rate"],
        "requests": clients["requests"],
        "errors": clients["errors"],
        "bandwidth_mbps": clients["bandwidth_mbps"],
        "latency": clients["latency"],
        "range_responses": stats["range_responses"],
        "range_unsatisfiable": stats["range_unsatisfiable"],
        "hot_hits": stats["hot_hits"],
        # Server-side totals include the warmup round; the mix share must
        # be computed against the same window the 206 counter covers.
        "server_requests": stats["requests"],
    }


def test_fig11_range_ablation(run_once):
    """Live-server range-mix ablation (BENCH fig11-range).

    The same cached Zipf workload is driven with ``--range-fraction`` off
    and at 0.5: a correctness gate (zero client errors, the 206 path
    engaged exactly when the mix is on, no unsatisfiable ranges) plus the
    throughput rows the artifact records.  No speed floor — a 206 moves
    fewer bytes per request, so the interesting number is the recorded
    rate, not a ratio gate that CI noise would flip.
    """
    paths = _zipf_paths()
    with tempfile.TemporaryDirectory() as docroot:
        _make_catalog(docroot)

        def run_grid():
            return [
                _measure_range_mix(docroot, paths, fraction)
                for fraction in RANGE_FRACTIONS
            ]

        rows = run_once(run_grid)

    lines = [
        "BENCH fig11-range: cached Zipf workload, SPED, range mix ablation "
        f"(--range-fraction, Range: bytes={RANGE_SPEC})",
        f"{'mix':<5} {'req/s':>9} {'requests':>9} {'206s':>8} "
        f"{'hot hits':>9} {_LATENCY_HEADER} {'errors':>6}",
    ]
    for row in rows:
        label = "off" if row["fraction"] == 0 else f"{row['fraction']:.2f}"
        lines.append(
            f"{label:<5} {row['request_rate']:>9.0f} {row['requests']:>9.0f} "
            f"{row['range_responses']:>8.0f} {row['hot_hits']:>9.0f} "
            f"{_latency_cells(row)} {row['errors']:>6.0f}"
        )
    off_row, on_row = rows[0], rows[-1]
    ratio = on_row["request_rate"] / max(off_row["request_rate"], 1e-9)
    lines.append(
        f"BENCH fig11-range: range mix on vs off: {ratio:.2f}x requests/s, "
        f"{on_row['range_responses']:.0f} partial responses served"
    )
    table = "\n".join(lines)
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "fig11_range.txt"), "w") as handle:
        handle.write(table + "\n")
    _write_fig11_bench(
        "fig11_range",
        rows,
        x_of=lambda row: row["fraction"],
        detail_keys=(
            "fraction", "requests", "errors", "range_responses",
            "range_unsatisfiable", "hot_hits", "server_requests",
        ),
    )

    for row in rows:
        assert row["errors"] == 0, row
        assert row["range_unsatisfiable"] == 0, row
    assert off_row["range_responses"] == 0
    assert on_row["range_responses"] > 0
    # The deterministic mix is close to the requested fraction.
    share = on_row["range_responses"] / max(on_row["server_requests"], 1)
    assert 0.3 <= share <= 0.7, f"206 share {share:.2f} far from the 0.5 mix"


# -- live conditional-mix ablation (BENCH fig11-conditional) -------------------

#: Conditional mixes measured: a pure full-GET workload against the
#: CDN-revalidation regime the RFC 7232 tentpole opens — half the requests
#: replay the captured ETag as ``If-None-Match`` and are answered by the
#: cheapest possible response, a precomposed bodyless 304.
CONDITIONAL_FRACTIONS = [0.0, 0.5]


def _measure_conditional_mix(docroot, paths, fraction):
    config = ServerConfig(
        document_root=docroot,
        port=0,
        num_helpers=2,
    )
    server = create_server("sped", config)
    server.start()
    try:
        port = server.address[1]
        extra = {"conditional_fraction": fraction} if fraction > 0 else {}
        _hotpath_clients(port, HOTPATH_WARMUP, paths, **extra)
        clients = _hotpath_clients(port, HOTPATH_DURATION, paths, **extra)
        stats = server.stats.snapshot()
    finally:
        server.stop()
    return {
        "fraction": fraction,
        "request_rate": clients["request_rate"],
        "requests": clients["requests"],
        "errors": clients["errors"],
        "bandwidth_mbps": clients["bandwidth_mbps"],
        "latency": clients["latency"],
        "not_modified": stats["not_modified_responses"],
        "precondition_failed": stats["precondition_failed"],
        "hot_hits": stats["hot_hits"],
        # Server-side totals include the warmup round; the mix share must
        # be computed against the same window the 304 counter covers.
        "server_requests": stats["requests"],
    }


def test_fig11_conditional_ablation(run_once):
    """Live-server conditional-revalidation ablation (BENCH
    fig11-conditional).

    The same cached Zipf workload is driven with ``--conditional-fraction``
    off and at 0.5: a correctness gate (zero client errors, the 304 path
    engaged exactly when the mix is on, revalidations landing as hot-cache
    read-side hits) plus the throughput rows the artifact records.  A 304
    moves no body bytes at all, so the recorded rate is the interesting
    number — no CI-noise-prone ratio gate.
    """
    paths = _zipf_paths()
    with tempfile.TemporaryDirectory() as docroot:
        _make_catalog(docroot)

        def run_grid():
            return [
                _measure_conditional_mix(docroot, paths, fraction)
                for fraction in CONDITIONAL_FRACTIONS
            ]

        rows = run_once(run_grid)

    lines = [
        "BENCH fig11-conditional: cached Zipf workload, SPED, conditional mix "
        "ablation (--conditional-fraction, If-None-Match revalidation)",
        f"{'mix':<5} {'req/s':>9} {'requests':>9} {'304s':>8} "
        f"{'hot hits':>9} {_LATENCY_HEADER} {'errors':>6}",
    ]
    for row in rows:
        label = "off" if row["fraction"] == 0 else f"{row['fraction']:.2f}"
        lines.append(
            f"{label:<5} {row['request_rate']:>9.0f} {row['requests']:>9.0f} "
            f"{row['not_modified']:>8.0f} {row['hot_hits']:>9.0f} "
            f"{_latency_cells(row)} {row['errors']:>6.0f}"
        )
    off_row, on_row = rows[0], rows[-1]
    ratio = on_row["request_rate"] / max(off_row["request_rate"], 1e-9)
    lines.append(
        f"BENCH fig11-conditional: conditional mix on vs off: {ratio:.2f}x "
        f"requests/s, {on_row['not_modified']:.0f} not-modified responses served"
    )
    table = "\n".join(lines)
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "fig11_conditional.txt"), "w") as handle:
        handle.write(table + "\n")
    _write_fig11_bench(
        "fig11_conditional",
        rows,
        x_of=lambda row: row["fraction"],
        detail_keys=(
            "fraction", "requests", "errors", "not_modified",
            "precondition_failed", "hot_hits", "server_requests",
        ),
    )

    for row in rows:
        assert row["errors"] == 0, row
        assert row["precondition_failed"] == 0, row
    assert off_row["not_modified"] == 0
    assert on_row["not_modified"] > 0
    # Revalidations ride the hot cache: the 304s are read-side hits served
    # from precomposed variants, not re-translations.
    assert on_row["hot_hits"] >= on_row["not_modified"]
    # The deterministic mix is close to the requested fraction.
    share = on_row["not_modified"] / max(on_row["server_requests"], 1)
    assert 0.3 <= share <= 0.7, f"304 share {share:.2f} far from the 0.5 mix"


# -- live slow-client ablation (BENCH fig11-slowclient) ------------------------

#: Slowloris loads measured: the clean baseline, then the same fast-client
#: pool with this many dribbling writers attached — connections trickling
#: one header byte per interval that never complete a request head.
SLOWCLIENT_WRITERS = [0, 4]
#: The attacked server's absolute request-head budget.  Short enough that
#: even the CI smoke window reaps each dribbler; the dribble interval sits
#: well inside it, so only the *absolute* budget (never a per-byte reset)
#: can end the connection.
SLOWCLIENT_HEADER_TIMEOUT = 0.3
SLOWCLIENT_DRIBBLE_INTERVAL = 0.1
#: The fast lane with the attack attached must keep at least this fraction
#: of the clean request rate.  0 disables the gate — shared CI runners are
#: too noisy for throughput ratios, so the smoke job checks correctness
#: only and the real ratio accrues in the per-PR artifact.
SLOWCLIENT_RATE_FLOOR = float(os.environ.get("FIG11_SLOWCLIENT_RATE_FLOOR", "0.5"))


def _measure_slowclient(docroot, paths, slow_writers):
    config = ServerConfig(
        document_root=docroot,
        port=0,
        num_helpers=2,
        header_timeout=SLOWCLIENT_HEADER_TIMEOUT,
    )
    server = create_server("sped", config)
    server.start()
    try:
        port = server.address[1]
        extra = (
            {
                "slow_writers": slow_writers,
                "dribble_bytes": 1,
                "dribble_interval": SLOWCLIENT_DRIBBLE_INTERVAL,
            }
            if slow_writers > 0
            else {}
        )
        _hotpath_clients(port, HOTPATH_WARMUP, paths, **extra)
        clients = _hotpath_clients(port, HOTPATH_DURATION, paths, **extra)
        stats = server.stats.snapshot()
    finally:
        server.stop()
    return {
        # slow_writers is per worker process; the table reports the total
        # number of dribblers actually attached to the server.
        "writers": slow_writers * HOTPATH_WORKERS,
        "request_rate": clients["request_rate"],
        "requests": clients["requests"],
        "errors": clients["errors"],
        "bandwidth_mbps": clients["bandwidth_mbps"],
        "latency": clients["latency"],
        "timeouts_header": stats["timeouts_header"],
        "timeouts_write_stall": stats["timeouts_write_stall"],
        "server_requests": stats["requests"],
    }


def test_fig11_slowclient_ablation(run_once):
    """Slow-client hardening under load (BENCH fig11-slowclient).

    The cached Zipf workload is measured clean, then with slowloris
    writers attached: each dribbles one header byte per interval and never
    finishes a request head, so only the absolute header budget can end
    it.  Correctness gate: zero fast-client errors in both rows, no reaps
    in the clean row, the attacked row answering the dribblers 408 on the
    header deadline while the fast lane keeps completing requests.  The
    throughput ratio is gated by ``FIG11_SLOWCLIENT_RATE_FLOOR`` locally
    and disabled in the CI smoke like every other throughput gate.
    """
    paths = _zipf_paths()
    with tempfile.TemporaryDirectory() as docroot:
        _make_catalog(docroot)

        def run_grid():
            return [
                _measure_slowclient(docroot, paths, writers)
                for writers in SLOWCLIENT_WRITERS
            ]

        rows = run_once(run_grid)

    lines = [
        "BENCH fig11-slowclient: cached Zipf workload, SPED, slowloris "
        f"writers attached (--slow-writers, {SLOWCLIENT_HEADER_TIMEOUT:.1f}s "
        "header budget)",
        f"{'slow':<5} {'req/s':>9} {'requests':>9} {'408s':>8} "
        f"{_LATENCY_HEADER} {'errors':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row['writers']:<5} {row['request_rate']:>9.0f} "
            f"{row['requests']:>9.0f} {row['timeouts_header']:>8.0f} "
            f"{_latency_cells(row)} {row['errors']:>6.0f}"
        )
    clean, attacked = rows[0], rows[-1]
    ratio = attacked["request_rate"] / max(clean["request_rate"], 1e-9)
    lines.append(
        f"BENCH fig11-slowclient: {attacked['writers']} slowloris attached "
        f"vs clean: {ratio:.2f}x requests/s, "
        f"{attacked['timeouts_header']:.0f} dribblers reaped with 408"
    )
    table = "\n".join(lines)
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "fig11_slowclient.txt"), "w") as handle:
        handle.write(table + "\n")
    _write_fig11_bench(
        "fig11_slowclient",
        rows,
        x_of=lambda row: row["writers"],
        detail_keys=(
            "writers", "requests", "errors", "timeouts_header",
            "timeouts_write_stall", "server_requests",
        ),
    )

    for row in rows:
        assert row["errors"] == 0, row
        assert row["timeouts_write_stall"] == 0, row
    # The clean row never trips a deadline; the attacked row reaps the
    # dribblers on the header budget while the fast lane stays healthy.
    assert clean["timeouts_header"] == 0
    assert attacked["timeouts_header"] >= 1
    assert attacked["requests"] > 0
    if SLOWCLIENT_RATE_FLOOR > 0:
        assert ratio >= SLOWCLIENT_RATE_FLOOR, (
            f"fast lane dropped to {ratio:.2f}x of clean under slowloris "
            f"({attacked['request_rate']:.0f} vs {clean['request_rate']:.0f} req/s)"
        )
