"""The four traffic mixes: seeded docroots, request tables, sequences, schedules.

Everything a run sends is a function of ``--seed``: file contents, the
order files are asked for, and the open-phase arrival times.  The server
receives only the generated files and requests -- no flag, environment
variable or path names the workload.

Open-phase rates are frozen here (about 35 % of the closed-loop capacity
measured on the 2-core reference host when the benchmark was defined) and
are never derived from the run, so two commits are always offered the same
load.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

GET, INM, RANGE, HEAD, CLOSE = "get", "inm", "range", "head", "close"

#: ``protocol_mix``'s exact 20-slot rotation: 8 plain GET, 5 If-None-Match,
#: 3 Range, 2 HEAD, 2 GET + ``Connection: close``.  The close slots sit ten
#: apart so reconnects are spread evenly through the run.
ROTATION = (
    GET, INM, GET, RANGE, HEAD, GET, INM, GET, INM, CLOSE,
    GET, RANGE, GET, INM, HEAD, GET, RANGE, INM, GET, CLOSE,
)

#: ``Range: bytes=0-1023`` -- the slice every RANGE slot asks for.
RANGE_BYTES = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    file_count: int
    file_size: int
    #: Open-phase arrival rate, requests per second (frozen; see module doc).
    open_rate: int
    #: How the file asked for is drawn: "zipf", "round_robin" or "uniform".
    draw: str
    #: Number of seeded draws before the sequence cycles.
    draws: int
    #: Request shapes, cycled in lockstep with the draws.
    shapes: tuple = (GET,)


#: Why each was chosen is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = (
    Workload(
        name="hot_small",
        file_count=64, file_size=4096, open_rate=5000, draw="zipf", draws=4096,
    ),
    Workload(
        name="large_body",
        file_count=8, file_size=256 * 1024, open_rate=1500, draw="round_robin", draws=8,
    ),
    Workload(
        name="miss_churn",
        file_count=8000, file_size=2048, open_rate=1500, draw="uniform", draws=32768,
    ),
    Workload(
        name="protocol_mix",
        file_count=64, file_size=4096, open_rate=3500, draw="zipf", draws=4096,
        shapes=ROTATION,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def _rng(seed: int, workload: str, purpose: str) -> random.Random:
    # A string seed is hashed with SHA-512 by ``random``: stable across
    # processes and Python builds, unlike ``hash()``.
    return random.Random(f"{seed}:{workload}:{purpose}")


@dataclass(frozen=True)
class FileSpec:
    index: int
    target: bytes
    size: int
    crc: int
    #: CRC32 of the first ``RANGE_BYTES`` bytes (what a RANGE slot returns).
    crc_range: int


def file_name(index: int) -> str:
    return f"f{index:05d}.bin"


def generate_docroot(workload: Workload, seed: int, root: str) -> list[FileSpec]:
    """Write the workload's files under ``root`` (replacing what is there)
    and return their specs with the CRCs the verifier checks against."""
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    rng = _rng(seed, workload.name, "files")
    files = []
    for index in range(workload.file_count):
        data = rng.randbytes(workload.file_size)
        with open(os.path.join(root, file_name(index)), "wb") as handle:
            handle.write(data)
        files.append(
            FileSpec(
                index=index,
                target=b"/" + file_name(index).encode("ascii"),
                size=len(data),
                crc=zlib.crc32(data),
                crc_range=zlib.crc32(data[:RANGE_BYTES]),
            )
        )
    return files


def file_draws(workload: Workload, seed: int) -> list[int]:
    """The seeded order in which files are asked for (one cycle)."""
    rng = _rng(seed, workload.name, "draws")
    count = workload.file_count
    if workload.draw == "round_robin":
        return [index % count for index in range(workload.draws)]
    if workload.draw == "uniform":
        return [rng.randrange(count) for _ in range(workload.draws)]
    if workload.draw == "zipf":
        weights = [1.0 / rank for rank in range(1, count + 1)]
        return rng.choices(range(count), weights=weights, k=workload.draws)
    raise ValueError(f"unknown draw {workload.draw!r}")


def sequence(workload: Workload, seed: int) -> list[tuple[int, str]]:
    """One full cycle of ``(file index, shape)`` pairs.  Draws and shapes
    advance in lockstep, so the cycle is their least common multiple and
    every run of 20 consecutive requests holds the rotation exactly."""
    draws = file_draws(workload, seed)
    shapes = workload.shapes
    length = math.lcm(len(draws), len(shapes))
    return [(draws[i % len(draws)], shapes[i % len(shapes)]) for i in range(length)]


def poisson_schedule(rate: float, seconds: float, seed: int, workload: str) -> list[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process of
    ``rate`` per second over ``seconds``."""
    rng = _rng(seed, workload, "arrivals")
    offsets = []
    clock = rng.expovariate(rate)
    while clock < seconds:
        offsets.append(clock)
        clock += rng.expovariate(rate)
    return offsets


class Request:
    """One request as sent, with what a correct response must look like."""

    __slots__ = (
        "raw", "shape", "file", "status", "body_len", "crc", "content_length",
        "content_range", "close", "head",
    )

    def __init__(self, spec: FileSpec, shape: str, etag: Optional[bytes] = None):
        lines = [(b"HEAD " if shape == HEAD else b"GET ") + spec.target + b" HTTP/1.1",
                 b"Host: bench"]
        self.shape = shape
        self.file = spec.index
        self.head = shape == HEAD
        self.close = shape == CLOSE
        self.status = 200
        #: Bytes of body on the wire, and the CRC32 they must have.
        self.body_len = spec.size
        self.crc = spec.crc
        #: The value the ``Content-Length`` header must carry.
        self.content_length = spec.size
        self.content_range: Optional[bytes] = None
        if shape == INM:
            if etag is None:
                raise ValueError("an If-None-Match request needs the captured ETag")
            lines.append(b"If-None-Match: " + etag)
            self.status, self.body_len, self.crc, self.content_length = 304, 0, 0, 0
        elif shape == RANGE:
            length = min(RANGE_BYTES, spec.size)
            lines.append(b"Range: bytes=0-%d" % (RANGE_BYTES - 1))
            self.status, self.body_len, self.crc = 206, length, spec.crc_range
            self.content_length = length
            self.content_range = b"bytes 0-%d/%d" % (length - 1, spec.size)
        elif shape == HEAD:
            self.body_len, self.crc = 0, 0
        elif shape == CLOSE:
            lines.append(b"Connection: close")
        elif shape != GET:
            raise ValueError(f"unknown shape {shape!r}")
        self.raw = b"\r\n".join(lines) + b"\r\n\r\n"


def request_table(
    files: Sequence[FileSpec], shapes: Sequence[str], etags: Optional[dict] = None
) -> dict:
    """``(file index, shape) -> Request`` for every file and every shape in
    ``shapes``.  INM requests need ``etags`` (file index -> ETag bytes),
    captured from the server's own 200 responses in the warm pass."""
    etags = etags or {}
    return {
        (spec.index, shape): Request(spec, shape, etags.get(spec.index))
        for spec in files
        for shape in dict.fromkeys(shapes)
    }
