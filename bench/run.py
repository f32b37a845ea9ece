#!/usr/bin/env python3
"""The repo's one benchmark.  See bench/README.md.

    python3 bench/run.py                      # all four workloads, timed runs
    python3 bench/run.py --workload hot_small --seed 7
    python3 bench/run.py --traced             # per-layer runs (spans on)
    python3 bench/run.py --aa                 # two sets back to back, compared

Every metric is printed as ``workload name unit value`` and the same is
written to ``bench/out/result.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Exit code: 0 every response verified; 1 a response failed verification, or
``--aa`` found an invalid run or a difference beyond a bound; 2 the run
could not be made.  A run that does not measure the server (generator-bound,
late, or a growing backlog) prints ``# INVALID`` lines and is marked
``"valid": false`` in result.json; its exit code is still 0, because on a
shared host a neighbour can cause it and the driver wants its number anyway.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(REPO, "src", "repro")):
    sys.stderr.write("bench/run.py: no src/repro beside bench/ -- nothing to measure\n")
    sys.exit(2)
# ``python3 bench/run.py`` puts bench/ itself first on the path; the package
# is imported as ``bench`` from the repo root, the program from src/.
sys.path[0:1] = [REPO, os.path.join(REPO, "src")]

from repro.core.config import ServerConfig  # noqa: E402

from bench import layers, live, procs, spans, workloads  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
END_TO_END = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in CONTRACT["per_layer"]}

RESULT_FILE = os.path.join(live.OUT, "result.json")
TRACE_FILE = os.path.join(live.OUT, "trace.jsonl")

#: Requests of a workload replayed in-process for the span attribution.
REPLAY_REQUESTS = 2000
REPLAY_ROUNDS = 3


def header() -> str:
    return (
        f"# bench: nproc={os.cpu_count()} cpus={sorted(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} kernel={platform.release()} link=loopback"
    )


def show(workload: str, metrics: dict) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload} {name} {unit} {value:.6g} n={samples}")


# -- the two kinds of run ---------------------------------------------------------


def timed_run(workload: workloads.Workload, seed: int, seconds: float) -> dict:
    result = live.run_live(workload, seed, seconds)
    show(workload.name, result.metrics)
    report_live(workload, result)
    return summary(result)


def summary(result: live.LiveResult) -> dict:
    return {
        "metrics": result.metrics, "attempted": result.attempted, "failed": result.failed,
        "errors": result.errors, "valid": not result.invalid, "invalid": result.invalid,
    }


def report_live(workload: workloads.Workload, result: live.LiveResult) -> None:
    shares = ", ".join(
        f"{status}: {count}/{result.timed_requests}"
        for status, count in sorted(result.statuses.items())
    )
    print(f"{workload.name} # timed responses by status: {shares}")
    if result.failed:
        print(f"{workload.name} # FAILED {result.failed}/{result.attempted}: {result.errors}")
    for reason in result.invalid:
        print(f"{workload.name} # INVALID: {reason}")


def traced_run(workload: workloads.Workload, seed: int, seconds: float) -> dict:
    """The per-layer run: a short live run for the server's counters and the
    generator's own figures, the in-process replay with spans on and off,
    the layer probes, and the three other builds on ``hot_small``."""
    result = live.run_live(workload, seed, seconds / 2.0, launches=2)
    metrics = dict(result.metrics)

    # In-process replay of the workload's first requests, spans off and on.
    table = workloads.request_table(result.files, workload.shapes, result.etags)
    order = workloads.sequence(workload, seed)
    raws = [table[order[i % len(order)]].raw for i in range(REPLAY_REQUESTS)]
    config = ServerConfig(document_root=live.docroot(workload.name))
    plain, traced = [], []
    for _ in range(REPLAY_ROUNDS):
        plain.append(layers.replay_workload(config, raws, spans.NullTracer()))
        tracer = spans.Tracer()
        traced.append(layers.replay_workload(config, raws, tracer))
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio", REPLAY_ROUNDS)
    feeds = spans.durations_us(tracer.spans, "http.request.feed")
    fast = spans.durations_us(tracer.spans, "http.request.feed", "fast")
    metrics["http.request.fast_probe_share"] = (len(fast) / len(feeds), "ratio", len(feeds))
    by_layer = spans.self_time_by_layer(tracer.spans)
    for name, (microseconds, calls) in by_layer.items():
        print(f"{workload.name} # self {name} {microseconds:.2f} us/req {calls:.2f} calls/req")

    # Layer probes on the fixed probe docroot.
    probe_root = live.docroot("_probe")
    small = layers.generate_probe_docroot(probe_root, seed)
    metrics.update(layers.probe_layers(probe_root, small, tracer))
    metrics.update(layers.probe_connection(probe_root, small, tracer))

    for architecture in ("sped", "mt", "mp"):
        rate, samples = live.closed_loop_rps(architecture, seed, seconds / 8.0)
        metrics[f"servers.{architecture}.hot_small_rps"] = (rate, "req/s", samples)

    spans.write_jsonl(tracer.spans, TRACE_FILE, workload.name)
    show(workload.name, metrics)
    report_live(workload, result)
    return {
        **summary(result), "metrics": metrics,
        "self_us_per_request": {name: value for name, (value, _) in by_layer.items()},
    }


# -- output ------------------------------------------------------------------------


def final_line(results: dict, declared: dict, prefix: bool) -> dict:
    metrics = {}
    for workload, result in results.items():
        for name in declared:
            value, unit, _ = result["metrics"][name]
            metrics[f"{workload}.{name}" if prefix else name] = {"value": value, "unit": unit}
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }


def run_set(names, seed: int, seconds: float, trace: bool) -> dict:
    runner = traced_run if trace else timed_run
    return {name: runner(workloads.BY_NAME[name], seed, seconds) for name in names}


def compare(first: dict, second: dict) -> bool:
    """Print both sets side by side; True when both are valid and every
    difference is within the metric's bound."""
    within = all(result["valid"] for result in (*first.values(), *second.values()))
    print("# A/A: workload metric first second relative_difference bound")
    for workload in first:
        for name, declared in END_TO_END.items():
            a = first[workload]["metrics"][name][0]
            b = second[workload]["metrics"][name][0]
            difference = abs(b - a) / a if a else float("inf")
            verdict = "ok" if difference <= declared["bound"] else "EXCEEDS"
            within = within and verdict == "ok"
            print(f"{workload} {name} {a:.6g} {b:.6g} {difference:.4f} "
                  f"{declared['bound']} {verdict}")
    return within


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]),
                        help="measured seconds per run: half closed, half open")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer run (spans on) in place of the timed run")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--aa", action="store_true",
                        help="two timed sets back to back; fail if they differ beyond the bounds")
    args = parser.parse_args(argv)
    if args.aa and args.trace:
        parser.error("--aa compares timed runs; it cannot be combined with --trace 1")
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    declared = PER_LAYER if args.trace else END_TO_END

    procs.steady_interpreter()
    procs.pin_to_one_cpu()
    print(header())
    os.makedirs(live.OUT, exist_ok=True)
    if args.trace and os.path.exists(TRACE_FILE):
        os.remove(TRACE_FILE)
    report = {"header": header(), "seed": args.seed, "seconds": args.seconds}
    try:
        results = report["workloads"] = run_set(names, args.seed, args.seconds, bool(args.trace))
        agreed = True
        if args.aa:
            report["second_set"] = run_set(names, args.seed, args.seconds, False)
            agreed = compare(results, report["second_set"])
    except procs.BenchError as exc:
        sys.stderr.write(f"bench/run.py: {exc}\n")
        return 2
    with open(RESULT_FILE, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    last = final_line(results, declared, prefix=args.workload is None)
    print(json.dumps(last))
    return 0 if last["correct"] and agreed else 1


if __name__ == "__main__":
    sys.exit(main())
