"""Run the real server for the benchmark, as a subprocess of it.

Protocol on the pipes (one JSON object per line on stdout):

* at start: ``{"port": N}`` once the server is listening;
* for every ``stats`` line read from stdin: the current
  ``server.stats.snapshot()`` and ``store.cache_stats()``;
* when stdin closes: a last snapshot, then the server stops and the
  process exits.

The server gets the document root and the architecture and nothing else:
every other ``ServerConfig`` field keeps its default, so no setting can
identify a workload.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.config import ServerConfig
from repro.servers import create_server


def counters(server) -> dict:
    store = getattr(server, "store", None)
    return {
        "stats": server.stats.snapshot(),
        "caches": store.cache_stats() if store is not None else {},
    }


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--architecture", default="amped")
    args = parser.parse_args()
    server = create_server(args.architecture, ServerConfig(document_root=args.root))
    server.start()
    try:
        emit({"port": server.port})
        for line in sys.stdin:
            if line.strip() == "stats":
                emit(counters(server))
        emit(counters(server))
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
