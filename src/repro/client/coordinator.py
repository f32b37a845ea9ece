"""Multi-process load-generation coordinator.

One :class:`~repro.client.loadgen.LoadGenerator` is a single event loop on
a single core — enough to saturate one server process on small responses,
but not to measure a shard fleet or an io_uring hot loop without the
client becoming the bottleneck.  :class:`LoadCoordinator` scales the
client side the same way the servers scale: ``workers`` separate
*processes* (spawned, so no state leaks from the coordinating process —
which may be running the server under test in a thread), each driving its
own ``LoadGenerator``, optionally pinned to a CPU, each keeping its own
counters and latency histogram.

The parent merges the per-worker results **exactly**: counters are integer
sums, latency reservoirs are fixed-layout histograms whose merge is a
lossless element-wise add (see :mod:`repro.client.latency`), and the
merged mean is computed from integer-nanosecond totals so it is
independent of merge order.  ``merged == sum(per_worker)`` is therefore an
identity the test suite asserts field by field, not an approximation.

Open-loop runs give each worker ``arrival_rate / workers`` of the total
offered load on its own derived seed
(:func:`~repro.client.latency.derive_worker_seed`), so one ``--seed``
reproduces the whole cluster's schedule for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.client.latency import LatencyHistogram, derive_worker_seed
from repro.client.loadgen import LoadGenerator, LoadResult, add_counters

__all__ = ["LoadCoordinator", "ClusterResult", "WorkerSpec", "merge_results"]

#: Grace period added to the expected run duration before the parent
#: declares a worker hung (spawn + import + connect overhead).
_WORKER_GRACE = 60.0


@dataclass
class WorkerSpec:
    """Picklable description of one worker process's load share."""

    worker_index: int
    address: tuple[str, int]
    paths: Union[str, Sequence[str]]
    #: The worker's :class:`LoadGenerator` keywords: the coordinator's,
    #: with ``max_requests``, ``arrival_rate`` and ``seed`` replaced by this
    #: worker's share.
    options: dict
    cpu: Optional[int]


def _run_worker(spec: WorkerSpec, queue) -> None:
    """Worker-process entry point: pin, generate load, report back."""
    if spec.cpu is not None and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {spec.cpu})
        except OSError:
            pass  # affinity is an optimization, never a failure
    result = LoadGenerator(spec.address, spec.paths, **spec.options).run()
    queue.put((spec.worker_index, result))


def merge_results(results: Sequence[LoadResult]) -> LoadResult:
    """Exact merge of per-worker results into one cluster-wide result.

    Integer counters add; histograms merge losslessly; ``elapsed`` is the
    slowest worker's wall clock (the workers ran concurrently, so rates
    are total work over the window that covered all of it).
    """
    merged = LoadResult()
    merged.latency = LatencyHistogram.merged(r.latency for r in results)
    add_counters(merged, results)
    for result in results:
        merged.dispatched += result.dispatched
        merged.lateness_sum += result.lateness_sum
        merged.lateness_max = max(merged.lateness_max, result.lateness_max)
        merged.max_backlog = max(merged.max_backlog, result.max_backlog)
        merged.elapsed = max(merged.elapsed, result.elapsed)
        merged.per_client.extend(result.per_client)
    return merged


@dataclass
class ClusterResult:
    """Outcome of one multi-process run: the exact merge plus the shards."""

    merged: LoadResult
    per_worker: list[LoadResult] = field(default_factory=list)
    workers: int = 0
    seed: int = 0
    worker_seeds: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Machine-readable summary (the ``loadgen --json`` payload)."""
        return {
            "workers": self.workers,
            "seed": self.seed,
            "worker_seeds": list(self.worker_seeds),
            "merged": self.merged.to_dict(),
            "per_worker": [result.to_dict() for result in self.per_worker],
        }


class LoadCoordinator:
    """Spawn ``workers`` load-generator processes and merge their results.

    Every keyword besides the two below is a
    :class:`~repro.client.loadgen.LoadGenerator` keyword, forwarded to each
    worker unchanged and validated by the generator itself.
    ``num_clients``, ``slow_writers`` / ``slow_readers``,
    ``flood_connections`` and ``sse_clients`` are therefore *per worker*;
    ``arrival_rate`` and ``max_requests`` are cluster totals split evenly
    across workers, and worker ``i`` runs on
    ``derive_worker_seed(seed, i)``.  ``think_time`` is refused: it is a
    single-process knob.

    workers:
        Number of worker processes.
    pin_cpus:
        Pin worker ``i`` to allowed-CPU ``i % len(allowed)`` via
        ``os.sched_setaffinity`` (best effort; silently skipped where the
        platform lacks it).
    """

    def __init__(
        self,
        address: tuple[str, int],
        paths: Union[str, Sequence[str]],
        *,
        workers: int = 2,
        pin_cpus: bool = False,
        **options,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if callable(paths):
            raise TypeError(
                "multi-process load needs picklable paths: pass a string or a "
                "sequence of strings, not a callable"
            )
        if "think_time" in options:
            raise TypeError(
                "think_time is a single-process knob; drop it or run one "
                "LoadGenerator"
            )
        self.address = address
        self.paths = paths if isinstance(paths, str) else list(paths)
        self.workers = workers
        self.pin_cpus = pin_cpus
        self.options = options
        # The generator checks the options once, here in the parent, and
        # reads back the values the split needs (defaults included).
        plan = LoadGenerator(address, self.paths, **options)
        self.duration = plan.duration
        self.max_requests = plan.max_requests
        self.arrival_rate = plan.arrival_rate
        self.seed = plan.seed

    # -- planning ----------------------------------------------------------------

    def _cpu_plan(self) -> list[Optional[int]]:
        if not self.pin_cpus:
            return [None] * self.workers
        if hasattr(os, "sched_getaffinity"):
            allowed = sorted(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux fallback
            allowed = list(range(os.cpu_count() or 1))
        return [allowed[i % len(allowed)] for i in range(self.workers)]

    def _split_total(self, total: Optional[int]) -> list[Optional[int]]:
        """Split an integer cluster total across workers, exactly."""
        if total is None:
            return [None] * self.workers
        base, excess = divmod(total, self.workers)
        return [base + (1 if i < excess else 0) for i in range(self.workers)]

    def worker_specs(self) -> list[WorkerSpec]:
        """The per-worker plan (exposed for tests and ``--json`` output)."""
        cpus = self._cpu_plan()
        request_shares = self._split_total(self.max_requests)
        per_worker_rate = (
            self.arrival_rate / self.workers if self.arrival_rate is not None else None
        )
        return [
            WorkerSpec(
                worker_index=index,
                address=self.address,
                paths=self.paths,
                options={
                    **self.options,
                    "max_requests": request_shares[index],
                    "arrival_rate": per_worker_rate,
                    "seed": derive_worker_seed(self.seed, index),
                },
                cpu=cpus[index],
            )
            for index in range(self.workers)
        ]

    # -- execution ---------------------------------------------------------------

    def run(self) -> ClusterResult:
        """Run every worker to completion and return the exact merge.

        Workers are ``spawn``-ed, not forked: the coordinating process
        often hosts the server under test in a thread, and forking a
        threaded process duplicates lock state and open sockets into the
        client — exactly the cross-contamination a measurement harness
        must not have.
        """
        specs = self.worker_specs()
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        processes = [
            context.Process(target=_run_worker, args=(spec, queue), daemon=True)
            for spec in specs
        ]
        for process in processes:
            process.start()
        budget = (self.duration or 0.0) + _WORKER_GRACE
        collected: dict[int, LoadResult] = {}
        try:
            for _ in specs:
                try:
                    index, result = queue.get(timeout=budget)
                except Exception:
                    raise RuntimeError(
                        f"load worker did not report within {budget:.0f}s "
                        f"({len(collected)}/{len(specs)} reported)"
                    ) from None
                collected[index] = result
        finally:
            for process in processes:
                process.join(timeout=_WORKER_GRACE)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=5.0)
        failed = [spec.worker_index for spec in specs if spec.worker_index not in collected]
        if failed:  # pragma: no cover - guarded by the RuntimeError above
            raise RuntimeError(f"load workers {failed} produced no result")
        per_worker = [collected[spec.worker_index] for spec in specs]
        return ClusterResult(
            merged=merge_results(per_worker),
            per_worker=per_worker,
            workers=self.workers,
            seed=self.seed,
            worker_seeds=[spec.options["seed"] for spec in specs],
        )
