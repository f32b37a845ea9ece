"""One live run of one workload against the real server in a subprocess.

Run shape, the same for every workload:

1. generate the seeded docroot (the benchmark's input, timed apart);
2. measure the generator's own ceiling against the echo stub;
3. ``LAUNCHES`` times: launch the server, make the strict warm/verify pass
   (``setup_s`` is launch -> listening -> pass done), then

   * **closed phase**: each of the 2 connections sends when its previous
     response completes; cut into half-second slices;
   * **open phase**: the seeded Poisson schedule at the workload's frozen
     rate, latency timed from the scheduled send; cut into half-second
     windows;

   then read the server's counters and peak memory and close its stdin.

Why several launches: a server process keeps, for its whole life, the speed
its memory layout and hash seed happened to give it -- on the reference
host launches of one commit differ by up to 20 % in CPU per request while
the slices of one launch agree within 2 %.  One launch would measure the
draw, not the program.

Why the favourable quartile: the slices and windows of all launches are
pooled and the slice at the *favourable quartile* is reported (third
quartile of throughput, first quartile of CPU per request and latency).
Neighbours on a shared host and an unlucky layout only ever slow the server
down; the favourable quartile sits among the undisturbed slices as long as
a quarter of them are undisturbed, where a median needs half.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import statistics
import time
import zlib

from bench import estimators, loadgen, procs, workloads

OUT = os.path.join(procs.HERE, "out")

LAUNCHES = 5
SLICE_SECONDS = 0.5
ECHO_SECONDS = 1.0

#: A run is invalid when the generator's ceiling is below this multiple of
#: the measured throughput: the generator, not the server, would set it.
ECHO_HEADROOM = 2.0
#: ... or when the generator noticed due requests later than this (p99).
LATE_LIMIT_MS = 1.0
#: ... or when the open-phase queue met by arrivals grew by more than this
#: many requests from the first to the last window of a launch.
BACKLOG_GROWTH_LIMIT = 2.0


@dataclasses.dataclass
class LiveResult:
    #: ``name -> (value, unit, samples)``
    metrics: dict
    attempted: int = 0
    failed: int = 0
    errors: dict = dataclasses.field(default_factory=dict)
    #: Reasons the run does not measure the server (empty when valid).
    invalid: list = dataclasses.field(default_factory=list)
    #: Responses by status, as counted by the generator in the timed phases.
    statuses: dict = dataclasses.field(default_factory=dict)
    #: Requests sent in the timed phases.
    timed_requests: int = 0
    #: The docroot's files, and the ETag the server gave each in the warm pass.
    files: list = dataclasses.field(default_factory=list)
    etags: dict = dataclasses.field(default_factory=dict)


def docroot(name: str) -> str:
    return os.path.join(OUT, "docroot", name)


def launch(root: str, files, shapes, architecture: str = "amped"):
    """Start the server on ``root`` and make the warm/verify pass: every
    file by plain GET with full-body CRC32 (capturing its ETag), then every
    other request shape in ``shapes``, on every file.

    Returns ``(child, generator, request table, seconds taken)``.
    """
    started = time.perf_counter()
    child = procs.Child("launcher.py", "--root", root, "--architecture", architecture)
    generator = loadgen.LoadGenerator(child.address)
    try:
        table = workloads.request_table(files, [workloads.GET])
        generator.warm(table.values())
        if not generator.failed:
            table = workloads.request_table(files, shapes, generator.etags)
            generator.warm(
                request for (_, shape), request in table.items() if shape != workloads.GET
            )
        if generator.failed:
            raise procs.BenchError(f"warm pass failed verification: {dict(generator.errors)}")
    except BaseException:
        generator.close()
        child.stop()
        raise
    return child, generator, table, time.perf_counter() - started


def echo_ceiling(seconds: float = ECHO_SECONDS) -> float:
    """Requests per second the generator reaches against the echo stub."""
    child = procs.Child("echo_stub.py")
    generator = loadgen.LoadGenerator(child.address)
    try:
        body = b"ok"
        spec = workloads.FileSpec(0, b"/echo", len(body), zlib.crc32(body), zlib.crc32(body))
        request = workloads.Request(spec, workloads.GET)
        _, completions = generator.closed(itertools.repeat(request), seconds)
        if generator.failed:
            raise procs.BenchError(f"echo calibration failed: {dict(generator.errors)}")
        return len(completions) / seconds
    finally:
        generator.close()
        child.stop()


def _counter_deltas(before: dict, after: dict, totals: dict) -> None:
    """Add to ``totals`` what the server's own counters gained between two
    snapshots (the timed phases of one launch)."""
    def delta(*path):
        old, new = before, after
        for key in path:
            old, new = old.get(key, {}), new.get(key, {})
        return (new or 0) - (old or 0)

    for name in ("requests", "responses_ok", "hot_hits", "hot_misses", "helper_dispatches",
                 "blocking_reads", "sendfile_responses", "sendfile_fallbacks"):
        totals[name] = totals.get(name, 0) + delta("stats", name)
    for cache in ("pathname", "header", "fd"):
        for name in ("hits", "misses"):
            key = f"{cache}.{name}"
            totals[key] = totals.get(key, 0) + delta("caches", cache, name)


def _counter_metrics(totals: dict) -> dict:
    def ratio(numerator, denominator):
        return (numerator / denominator if denominator else 0.0, "ratio", int(denominator))

    # AMPED never counts a pathname miss: it ships the translation to a
    # helper instead, so the misses are the translation dispatches.
    translations = totals["helper_dispatches"] - totals["blocking_reads"]
    lookups = totals["pathname.hits"] + totals["pathname.misses"] + translations
    return {
        "cache.hot_response.hit_ratio": ratio(
            totals["hot_hits"], totals["hot_hits"] + totals["hot_misses"]),
        "cache.pathname.hit_ratio": ratio(totals["pathname.hits"], lookups),
        "cache.response_header.hit_ratio": ratio(
            totals["header.hits"], totals["header.hits"] + totals["header.misses"]),
        "cache.mapped_file.fd_hit_ratio": ratio(
            totals["fd.hits"], totals["fd.hits"] + totals["fd.misses"]),
        "core.helpers.dispatches_per_req": ratio(totals["helper_dispatches"], totals["requests"]),
        "core.send_path.sendfile_share": ratio(
            totals["sendfile_responses"], totals["responses_ok"]),
        "core.send_path.fallbacks": (
            float(totals["sendfile_fallbacks"]), "count", int(totals["requests"])),
    }


def run_live(workload: workloads.Workload, seed: int, seconds: float,
             launches: int = LAUNCHES) -> LiveResult:
    """``seconds`` of measurement, split evenly over ``launches`` launches
    and, within each, evenly between the closed and the open phase."""
    phase_seconds = seconds / launches / 2.0
    slices_per_phase = max(1, round(phase_seconds / SLICE_SECONDS))
    width = phase_seconds / slices_per_phase
    metrics: dict = {}
    result = LiveResult(metrics=metrics)

    started = time.perf_counter()
    files = result.files = workloads.generate_docroot(workload, seed, docroot(workload.name))
    metrics["loadgen.docroot_s"] = (time.perf_counter() - started, "s", len(files))
    echo_rps = echo_ceiling()
    metrics["loadgen.echo_rps"] = (echo_rps, "req/s", int(echo_rps * ECHO_SECONDS))

    order = workloads.sequence(workload, seed)
    setups, rss, growth = [], [], []
    rps, mbps, cpu_us = [], [], []          # one value per closed slice
    p50, p99, worst, late = [], [], [], []  # one value per open window, in ms
    responses = timed_latencies = 0
    own_cpu = closed_wall = 0.0
    counter_totals: dict = {}
    for attempt in range(launches):
        child, generator, table, setup = launch(docroot(workload.name), files, workload.shapes)
        try:
            setups.append(setup)
            result.etags = generator.etags
            warm_attempted = generator.attempted
            generator.statuses.clear()
            stream = itertools.cycle([table[key] for key in order])
            counters_before = child.counters()

            # -- closed phase -------------------------------------------------------
            own_before, wall_before = time.process_time(), time.perf_counter()
            cpu_mark = procs.cpu_seconds(child.pid)
            for _ in range(slices_per_phase):
                start, completions = generator.closed(stream, width)
                wall = time.perf_counter() - start
                cpu_before, cpu_mark = cpu_mark, procs.cpu_seconds(child.pid)
                cpu = cpu_mark - cpu_before
                if not completions:
                    raise procs.BenchError(
                        f"no response verified in a closed slice: {dict(generator.errors)}")
                responses += len(completions)
                rps.append(len(completions) / wall)
                mbps.append(sum(size for _, size in completions) * 8 / 1e6 / wall)
                cpu_us.append(cpu * 1e6 / len(completions))
            own_cpu += time.process_time() - own_before
            closed_wall += time.perf_counter() - wall_before

            # -- open phase ---------------------------------------------------------
            schedule = workloads.poisson_schedule(
                workload.open_rate, phase_seconds, seed, f"{workload.name}:{attempt}")
            start, latencies, lateness, backlog = generator.open(stream, schedule, phase_seconds)
            if not latencies:
                raise procs.BenchError(
                    f"no response verified in the open phase: {dict(generator.errors)}")
            timed_latencies += len(latencies)

            def windows(samples):
                cut = estimators.split_windows(samples, start, width, slices_per_phase)
                return [window for window in cut if window]

            for window in windows(latencies):
                p50.append(statistics.median(window) * 1e3)
                p99.append(estimators.percentile(window, 0.99) * 1e3)
                worst.append(max(window) * 1e3)
            late.extend(estimators.percentile(w, 0.99) * 1e3 for w in windows(lateness))
            queue = [statistics.mean(window) for window in windows(backlog)]
            growth.append(queue[-1] - queue[0])

            # -- what the server says about itself ------------------------------------
            _counter_deltas(counters_before, child.counters(), counter_totals)
            rss.append(procs.peak_rss_mb(child.pid))
        finally:
            generator.close()
            child.stop()
            result.attempted += generator.attempted
            result.failed += generator.failed
            for reason, count in generator.errors.items():
                result.errors[reason] = result.errors.get(reason, 0) + count
        result.timed_requests += generator.attempted - warm_attempted
        for status, count in generator.statuses.items():
            result.statuses[status] = result.statuses.get(status, 0) + count

    metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    metrics["throughput_rps"] = (estimators.steady(rps, "higher"), "req/s", responses)
    metrics["goodput_mbps"] = (estimators.steady(mbps, "higher"), "Mbit/s", responses)
    metrics["server_cpu_us_per_req"] = (estimators.steady(cpu_us, "lower"), "us", responses)
    metrics["loadgen.lat_p50_ms"] = (estimators.steady(p50, "lower"), "ms", timed_latencies)
    metrics["server_rss_mb"] = (statistics.median(rss), "MB", len(rss))
    metrics["loadgen.cpu_share"] = (own_cpu / closed_wall, "ratio", responses)
    metrics["loadgen.lat_p99_ms"] = (estimators.steady(p99, "lower"), "ms", timed_latencies)
    metrics["loadgen.lat_max_ms"] = (estimators.steady(worst, "lower"), "ms", timed_latencies)
    metrics["loadgen.late_p99_ms"] = (statistics.median(late), "ms", timed_latencies)
    metrics["loadgen.error_share"] = (result.failed / result.attempted, "ratio", result.attempted)
    metrics.update(_counter_metrics(counter_totals))

    if echo_rps < ECHO_HEADROOM * metrics["throughput_rps"][0]:
        result.invalid.append(
            f"generator ceiling {echo_rps:.0f} req/s is under {ECHO_HEADROOM:g}x the throughput")
    if metrics["loadgen.late_p99_ms"][0] > LATE_LIMIT_MS:
        result.invalid.append(
            f"generator ran late: p99 {metrics['loadgen.late_p99_ms'][0]:.3f} ms "
            f"> {LATE_LIMIT_MS:g} ms")
    if statistics.median(growth) > BACKLOG_GROWTH_LIMIT:
        result.invalid.append(
            f"open-phase backlog grew by {statistics.median(growth):.1f} requests per launch")
    return result


def closed_loop_rps(architecture: str, seed: int, seconds: float) -> tuple[float, int]:
    """Closed-loop requests per second of ``architecture`` on ``hot_small``
    (the view of the other three builds; never gating)."""
    workload = workloads.BY_NAME["hot_small"]
    root = docroot("_servers")
    files = workloads.generate_docroot(workload, seed, root)
    child, generator, table, _ = launch(root, files, workload.shapes, architecture)
    try:
        stream = itertools.cycle([table[key] for key in workloads.sequence(workload, seed)])
        _, completions = generator.closed(stream, seconds)
        if generator.failed:
            raise procs.BenchError(f"{architecture}: {dict(generator.errors)}")
        return len(completions) / seconds, len(completions)
    finally:
        generator.close()
        child.stop()
