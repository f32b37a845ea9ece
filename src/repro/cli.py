"""Command-line interface for the Flash reproduction.

Three subcommands cover the library's main uses:

``serve``
    Run one of the real servers (AMPED/SPED/MP/MT) on a document root::

        python -m repro serve --root ./www --architecture amped --port 8080

``loadgen``
    Drive any HTTP server with the paper's event-driven client::

        python -m repro loadgen --host 127.0.0.1 --port 8080 --path /index.html \
            --clients 32 --duration 5

``experiment``
    Regenerate one of the paper's figures as a text table (optionally a
    ``BENCH_<fig>.json`` payload)::

        python -m repro experiment fig9
        python -m repro experiment fig11 --quick --json results/

``validate-bench``
    Check ``BENCH_*.json`` payloads against the result schema (the check
    CI runs on every archived benchmark artifact)::

        python -m repro validate-bench benchmarks/results/BENCH_*.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro._version import __version__
from repro.client.coordinator import LoadCoordinator
from repro.client.loadgen import LoadGenerator
from repro.core.config import ServerConfig
from repro.core.event_loop import available_backends
from repro.servers import ARCHITECTURES, create_server


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the Flash web server (USENIX ATC 1999).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    serve = subparsers.add_parser("serve", help="run one of the real servers")
    serve.add_argument("--root", required=True, help="document root to serve")
    serve.add_argument(
        "--architecture",
        default="amped",
        choices=sorted(ARCHITECTURES),
        help="server architecture (default: amped, i.e. Flash)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--helpers", type=int, default=4, help="AMPED helper count")
    serve.add_argument("--workers", type=int, default=32, help="MP/MT worker count")
    serve.add_argument(
        "--no-caches", action="store_true", help="disable all application-level caches"
    )
    serve.add_argument(
        "--io-backend",
        default="auto",
        choices=("auto",) + available_backends(),
        help="event-notification mechanism for the SPED/AMPED event loop "
        "(default: auto = best available on this platform)",
    )
    serve.add_argument(
        "--no-zero-copy",
        action="store_true",
        help="disable the sendfile zero-copy send path (use buffered writes)",
    )
    serve.add_argument(
        "--no-hot-cache",
        action="store_true",
        help="disable the unified hot-response cache (single-lookup fast "
        "path for repeated static GETs)",
    )
    serve.add_argument(
        "--no-fast-parse",
        action="store_true",
        help="always run the full request parser, even for plain GETs",
    )
    serve.add_argument(
        "--header-timeout", type=float, default=15.0, metavar="SECONDS",
        help="absolute budget for a complete request head; expiry answers "
        "408 and closes (0 disables; default 15)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=30.0, metavar="SECONDS",
        help="keep-alive idle budget between requests (0 disables; "
        "default 30)",
    )
    serve.add_argument(
        "--write-stall-timeout", type=float, default=30.0, metavar="SECONDS",
        help="maximum time with no response byte accepted by the peer "
        "before the connection is reaped (0 disables; default 30)",
    )
    serve.add_argument(
        "--cache-max-age", type=int, default=0, metavar="SECONDS",
        help="emit Cache-Control: max-age=N (and Expires) on static "
        "200/206 responses (0 omits the headers; default 0)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run N supervised server processes sharing the port via "
        "SO_REUSEPORT; dead shards are restarted with exponential "
        "backoff, and SIGTERM drains the whole fleet (default 1: a "
        "single unsupervised server)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=0, metavar="N",
        help="admission control: above N concurrently open connections, "
        "new arrivals are answered 503 with Retry-After and closed "
        "(0 disables; default 0)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="graceful-shutdown budget: on SIGTERM/SIGINT the server "
        "stops accepting and waits this long for in-flight responses "
        "before force-closing stragglers (default 5)",
    )
    serve.add_argument(
        "--retry-after", type=int, default=1, metavar="SECONDS",
        help="Retry-After value advertised on 503 shed responses "
        "(default 1)",
    )
    serve.add_argument(
        "--sse-path", default=None, metavar="PATH",
        help="serve the built-in Server-Sent Events endpoint at this "
        "request path, shadowing any docroot file of that name "
        "(default: no endpoint)",
    )
    serve.add_argument(
        "--sse-heartbeat", type=float, default=0.0, metavar="SECONDS",
        help="publish a heartbeat tick event to every SSE subscriber at "
        "this interval (0 disables; default 0)",
    )
    serve.add_argument(
        "--sse-queue-limit", type=int, default=64, metavar="N",
        help="bounded per-subscriber SSE event queue depth (default 64)",
    )
    serve.add_argument(
        "--sse-policy", default="drop", choices=("drop", "disconnect"),
        help="what a full subscriber queue does with the next event: "
        "drop the oldest queued event, or disconnect the slow "
        "subscriber after its backlog flushes (default drop)",
    )
    serve.add_argument(
        "--cgi-stream-depth", type=int, default=8, metavar="N",
        help="bounded chunk queue between a streaming CGI producer and "
        "the connection; a stalled client fills it and blocks the "
        "producer (default 8)",
    )

    loadgen = subparsers.add_parser("loadgen", help="drive a server with simulated clients")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--path", action="append", default=None,
                         help="request path (repeatable; default /)")
    loadgen.add_argument("--clients", type=int, default=16)
    loadgen.add_argument("--duration", type=float, default=5.0)
    loadgen.add_argument("--no-keep-alive", action="store_true")
    loadgen.add_argument("--think-time", type=float, default=0.0,
                         help="per-client pause between requests (emulates WAN clients)")
    loadgen.add_argument("--range-fraction", type=float, default=0.0,
                         help="fraction of requests issued as single-range GETs "
                         "(deterministically interleaved; 0 disables)")
    loadgen.add_argument("--range-bytes", default="0-1023",
                         help="byte range the ranged requests ask for "
                         "(Range: bytes=<spec>; default 0-1023)")
    loadgen.add_argument("--conditional-fraction", type=float, default=0.0,
                         help="fraction of requests issued as If-None-Match "
                         "revalidations replaying captured ETags "
                         "(deterministically interleaved; 0 disables)")
    loadgen.add_argument("--slow-writers", type=int, default=0,
                         help="misbehaving clients dribbling an incomplete "
                         "request head (slowloris), attached alongside the "
                         "real clients")
    loadgen.add_argument("--slow-readers", type=int, default=0,
                         help="misbehaving clients that request a response "
                         "and then drain it at the dribble rate, stalling "
                         "the server's send")
    loadgen.add_argument("--sse-clients", type=int, default=0, metavar="N",
                         dest="sse_clients",
                         help="mostly-idle Server-Sent Events subscribers "
                         "attached alongside the real clients; each "
                         "subscribes once, validates the chunked event "
                         "framing, and reports events received")
    loadgen.add_argument("--sse-path", default="/sse", metavar="PATH",
                         help="endpoint the SSE subscribers request "
                         "(default /sse)")
    loadgen.add_argument("--chunked-fraction", type=float, default=0.0,
                         help="fraction of requests issued against the "
                         "streaming endpoint and completed by parsing "
                         "Transfer-Encoding: chunked framing "
                         "(deterministically interleaved; 0 disables)")
    loadgen.add_argument("--chunked-path", default="/cgi-bin/stream",
                         metavar="PATH",
                         help="path the chunked-mix requests hit "
                         "(default /cgi-bin/stream)")
    loadgen.add_argument("--connection-flood", type=int, default=0,
                         metavar="N", dest="connection_flood",
                         help="connection-flood clients that open and hold "
                         "connections without sending, driving the server "
                         "into its admission limit (each refloods one "
                         "dribble interval after being shed)")
    loadgen.add_argument("--retry-backoff", type=float, default=0.05,
                         metavar="SECONDS",
                         help="closed-loop pause before a well-behaved "
                         "client retries a request the server shed with "
                         "503 (default 0.05)")
    loadgen.add_argument("--retry-resets", action="store_true",
                         dest="retry_resets",
                         help="chaos mode: retry (instead of failing) a "
                         "closed-loop request whose connection was reset "
                         "mid-exchange, e.g. because the serving shard "
                         "was killed")
    loadgen.add_argument("--dribble-bytes", type=int, default=1,
                         help="bytes a misbehaving client moves per dribble "
                         "(default 1)")
    loadgen.add_argument("--dribble-interval", type=float, default=0.5,
                         help="seconds between a misbehaving client's "
                         "dribbles (default 0.5)")
    loadgen.add_argument("--workers", type=int, default=1,
                         help="load-generator worker processes; above 1 the "
                         "run is coordinated across spawned processes and "
                         "the printed numbers are the exact merge "
                         "(default 1)")
    loadgen.add_argument("--pin-cpus", action="store_true",
                         help="pin each worker process to one allowed CPU "
                         "(best effort, Linux sched_setaffinity)")
    loadgen.add_argument("--arrival-rate", type=float, default=None,
                         metavar="REQ_PER_S",
                         help="open-loop mode: offer requests on a seeded "
                         "Poisson schedule at this total rate instead of "
                         "as fast as the server answers (closed loop)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="base seed for the open-loop schedule; worker "
                         "seeds derive from (seed, worker index) so one "
                         "seed reproduces the whole cluster (default 0)")
    loadgen.add_argument("--json", metavar="FILE", default=None,
                         help="also write the full machine-readable result "
                         "(merged + per-worker counters, latency summary) "
                         "as JSON ('-' for stdout)")

    experiment = subparsers.add_parser("experiment", help="regenerate a paper figure")
    experiment.add_argument(
        "figure",
        choices=["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"],
        help="which figure to regenerate",
    )
    experiment.add_argument("--quick", action="store_true", help="coarser, faster settings")
    experiment.add_argument("--json", metavar="DIR", default=None,
                            help="also write the schema-valid BENCH_<fig>.json "
                            "payload into this directory")

    validate = subparsers.add_parser(
        "validate-bench",
        help="validate BENCH_*.json payloads against the result schema",
    )
    validate.add_argument("files", nargs="+", metavar="FILE",
                          help="BENCH json files to check")

    return parser


def _format_summary(stats) -> str:
    """The shutdown summary line for ``serve``.

    Split out of :func:`cmd_serve` so a unit test can pin the stats field
    names it reads — the timeout counters in particular must not drift
    from the names the servers increment.
    """
    return (
        f"served {stats.requests} requests "
        f"({stats.responses_ok} ok, {stats.responses_error} errors, "
        f"{stats.not_modified_responses} not-modified, "
        f"{stats.precondition_failed} precondition-failed, "
        f"{stats.range_responses} partial "
        f"({stats.range_multipart_responses} multipart), "
        f"{stats.range_unsatisfiable} range-unsatisfiable); "
        f"hot hits: {stats.hot_hits}; "
        f"timeouts: {stats.timeouts_header} header, "
        f"{stats.timeouts_idle} idle, "
        f"{stats.timeouts_write_stall} write-stall; "
        f"overload: {stats.connections_shed} shed (503), "
        f"{stats.fd_exhaustion_events} fd-exhaustion, "
        f"{stats.accept_pauses} accept-pauses, "
        f"{stats.drain_forced_closes} drain-force-closed; "
        f"streaming: {stats.streamed_responses} streamed "
        f"({stats.chunked_responses} chunked), "
        f"{stats.sse_connections} sse-subscribers, "
        f"{stats.backpressure_pauses} backpressure-pauses, "
        f"{stats.sse_dropped_events} sse-dropped"
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a real server (or a supervised shard fleet) in the foreground.

    Both stop paths — SIGTERM from a process manager and Ctrl-C at a
    terminal — trigger the same graceful drain: stop accepting, finish
    in-flight responses under ``--drain-timeout``, print the shutdown
    summary, exit 0.
    """
    import contextlib
    import signal

    from repro.core.server import DRAIN_SIGNALS

    config = ServerConfig(
        document_root=args.root,
        host=args.host,
        port=args.port,
        num_helpers=args.helpers,
        num_workers=args.workers,
        io_backend=args.io_backend,
        zero_copy=not args.no_zero_copy,
        hot_cache=not args.no_hot_cache,
        fast_parse=not args.no_fast_parse,
        header_timeout=args.header_timeout,
        idle_timeout=args.idle_timeout,
        write_stall_timeout=args.write_stall_timeout,
        cache_max_age=args.cache_max_age,
        max_connections=args.max_connections,
        drain_timeout=args.drain_timeout,
        retry_after=args.retry_after,
        sse_path=args.sse_path or None,
        sse_heartbeat=args.sse_heartbeat,
        sse_queue_limit=args.sse_queue_limit,
        sse_policy=args.sse_policy,
        cgi_stream_depth=args.cgi_stream_depth,
    )
    if args.no_caches:
        config = config.without_caches()

    @contextlib.contextmanager
    def _drain_handlers(handler):
        # signal.signal returns the handler it replaced; restore it so the
        # caller's handlers survive an in-process cmd_serve (tests embed
        # the CLI — a leaked handler would swallow later SIGTERMs).
        saved = [(sig, signal.signal(sig, handler)) for sig in DRAIN_SIGNALS]
        try:
            yield
        finally:
            for sig, previous in saved:
                if previous is not None:  # None: installed outside Python
                    signal.signal(sig, previous)

    if args.shards > 1:
        # Imported lazily: the single-server path must not require
        # SO_REUSEPORT support.
        from repro.core.supervisor import ShardSupervisor

        supervisor = ShardSupervisor(
            config, architecture=args.architecture, shards=args.shards
        )
        # Handlers go in before the banner: a SIGTERM racing the startup
        # message must drain, not kill.  run_forever re-installs the same
        # behaviour on the main thread.
        with _drain_handlers(lambda *_: supervisor.request_drain()):
            host, port = supervisor.address
            print(
                f"{args.architecture} fleet: {args.shards} shards sharing "
                f"http://{host}:{port}/ via SO_REUSEPORT, serving "
                f"{config.document_root}"
            )
            print("press Ctrl-C (or send SIGTERM) to drain and stop")
            try:
                code = supervisor.run_forever(install_signals=True)
            except KeyboardInterrupt:
                # A second Ctrl-C during the drain lands here: stop hard.
                supervisor.stop()
                code = 0
        print(
            f"\nfleet stopped: {supervisor.shard_deaths} shard deaths, "
            f"{supervisor.restarts} restarts"
        )
        print(_format_summary(supervisor.stats))
        return code

    server = create_server(args.architecture, config)
    drain_started = False

    def _trigger_drain(_signum=None, _frame=None) -> None:
        # Runs in a signal handler: a flag store and request_drain take no
        # lock the interrupted wait could hold.
        nonlocal drain_started
        if drain_started:
            return
        drain_started = True
        print(
            f"\ndraining: waiting up to {config.drain_timeout:.1f}s "
            "for in-flight responses"
        )
        server.request_drain()

    # Handlers go in before the banner: a SIGTERM racing the startup
    # message must drain, not kill.
    with _drain_handlers(_trigger_drain), contextlib.closing(server):
        server.bind()
        host, port = server.address
        print(f"{args.architecture} server serving {config.document_root} on http://{host}:{port}/")
        if hasattr(server, "loop"):
            send_path = "zero-copy (sendfile)" if config.zero_copy else "buffered"
            hot = "on" if config.hot_cache else "off"
            fast = "on" if config.fast_parse else "off"
            print(
                f"io backend: {server.loop.backend_name}; send path: {send_path}; "
                f"hot cache: {hot}; fast parse: {fast}"
            )
        print("press Ctrl-C (or send SIGTERM) to drain and stop")
        server.run_forever()
        print(_format_summary(server.stats))
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Run the load generator (single- or multi-process) and print its summary."""
    paths = args.path or ["/"]
    options = dict(
        num_clients=args.clients,
        duration=args.duration,
        keep_alive=not args.no_keep_alive,
        range_fraction=args.range_fraction,
        range_spec=args.range_bytes,
        conditional_fraction=args.conditional_fraction,
        slow_writers=args.slow_writers,
        slow_readers=args.slow_readers,
        flood_connections=args.connection_flood,
        sse_clients=args.sse_clients,
        sse_path=args.sse_path,
        chunked_fraction=args.chunked_fraction,
        chunked_path=args.chunked_path,
        retry_backoff=args.retry_backoff,
        retry_resets=args.retry_resets,
        dribble_bytes=args.dribble_bytes,
        dribble_interval=args.dribble_interval,
        arrival_rate=args.arrival_rate,
        seed=args.seed,
    )
    address = (args.host, args.port)
    if args.workers > 1 and args.think_time:
        print("loadgen: --think-time is a single-process knob; drop it or use "
              "--workers 1", file=sys.stderr)
        return 2
    try:
        if args.workers > 1:
            runner = LoadCoordinator(
                address, paths, workers=args.workers, pin_cpus=args.pin_cpus, **options
            )
        else:
            runner = LoadGenerator(address, paths, think_time=args.think_time, **options)
    except ValueError as error:
        print(f"loadgen: {error}", file=sys.stderr)
        return 2
    outcome = runner.run()
    payload = outcome.to_dict()
    result = outcome.merged if args.workers > 1 else outcome
    if args.workers > 1:
        print(f"workers:            {args.workers}"
              f"{' (pinned)' if args.pin_cpus else ''}")
    print(f"clients:            {args.clients * args.workers}")
    print(f"duration:           {result.elapsed:.2f} s")
    print(f"requests completed: {result.requests_completed}")
    print(f"connection rate:    {result.request_rate:,.1f} requests/s")
    print(f"output bandwidth:   {result.bandwidth_mbps:.2f} Mb/s")
    print(f"not modified:       {result.not_modified}")
    print(f"errors:             {result.errors}")
    summary = result.latency.summary_ms()
    if summary["count"]:
        print(f"latency p50/p90/p99/p999: {summary['p50_ms']:.2f}/"
              f"{summary['p90_ms']:.2f}/{summary['p99_ms']:.2f}/"
              f"{summary['p999_ms']:.2f} ms")
        print(f"latency mean/max:   {summary['mean_ms']:.2f}/"
              f"{summary['max_ms']:.2f} ms")
    if args.arrival_rate is not None:
        print(f"offered rate:       {args.arrival_rate:,.1f} requests/s "
              "(open loop)")
        print(f"dispatched:         {result.dispatched}")
        print(f"max lateness:       {result.lateness_max * 1e3:.2f} ms")
        print(f"max backlog:        {result.max_backlog}")
    if args.slow_writers or args.slow_readers:
        print(f"slow clients:       {args.slow_writers} writers, "
              f"{args.slow_readers} readers"
              f"{' per worker' if args.workers > 1 else ''}")
        print(f"reaped:             {result.reaped}")
        print(f"rejected with 408:  {result.rejected_408}")
    if args.connection_flood or result.rejected_503 or result.retries:
        if args.connection_flood:
            print(f"flood clients:      {args.connection_flood}"
                  f"{' per worker' if args.workers > 1 else ''}")
        print(f"rejected with 503:  {result.rejected_503}")
        print(f"retries:            {result.retries}")
    if args.retry_resets or result.connection_resets:
        print(f"connection resets:  {result.connection_resets}")
    if args.chunked_fraction:
        print(f"chunked responses:  {result.chunked_responses}")
    if args.sse_clients:
        print(f"sse subscribers:    {args.sse_clients}"
              f"{' per worker' if args.workers > 1 else ''}")
        print(f"sse events:         {result.sse_events}")
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    return 0 if result.errors == 0 else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate one figure and print its table."""
    # Imported lazily: the experiment drivers pull in the simulation layer,
    # which the serve/loadgen paths do not need.
    from repro.experiments import (
        DatasetSweepExperiment,
        OptimizationBreakdownExperiment,
        SingleFileExperiment,
        TraceReplayExperiment,
        WANClientsExperiment,
    )

    duration = 1.0 if args.quick else 2.5
    trace_duration = 2.0 if args.quick else 4.0
    factories = {
        "fig6": lambda: (SingleFileExperiment("solaris", duration=duration, warmup=0.4), "bandwidth_mbps"),
        "fig7": lambda: (SingleFileExperiment("freebsd", duration=duration, warmup=0.4), "bandwidth_mbps"),
        "fig8": lambda: (TraceReplayExperiment("solaris", duration=trace_duration, warmup=1.0), "bandwidth_mbps"),
        "fig9": lambda: (DatasetSweepExperiment("freebsd", duration=trace_duration, warmup=1.0), "bandwidth_mbps"),
        "fig10": lambda: (DatasetSweepExperiment("solaris", duration=trace_duration, warmup=1.0), "bandwidth_mbps"),
        "fig11": lambda: (OptimizationBreakdownExperiment("freebsd", duration=duration, warmup=0.4), "request_rate"),
        "fig12": lambda: (WANClientsExperiment("solaris", duration=trace_duration, warmup=1.0), "bandwidth_mbps"),
    }
    experiment, metric = factories[args.figure]()
    result = experiment.run()
    print(result.to_table(metric=metric))
    if args.json:
        path = result.write_json(args.json)
        print(f"wrote {path}")
    return 0


def cmd_validate_bench(args: argparse.Namespace) -> int:
    """Validate BENCH json files against the result schema."""
    from repro.experiments.results import validate_bench_payload

    failures = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            validate_bench_payload(payload)
        except (OSError, ValueError) as exc:
            # json.JSONDecodeError is a ValueError, so malformed JSON and
            # schema violations report uniformly.
            print(f"{path}: FAIL: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"{path}: ok ({len(payload['rows'])} rows, "
              f"schema v{payload['schema_version']})")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
        "experiment": cmd_experiment,
        "validate-bench": cmd_validate_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
