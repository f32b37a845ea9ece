"""What ``bench/`` calls in the program must keep answering.

The regression benchmark under ``bench/`` is not edited together with
``src/``, so a change that removes or renames something it imports or calls
would only show when the benchmark runs.  This test imports the benchmark's
modules that reach into ``repro`` and runs its two in-process probes once on
a probe docroot (``hot_small``'s 64 files plus one large file).  It reads
``bench/`` and writes only under ``tmp_path``.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import launcher, layers, live, spans, verify  # noqa: E402,F401


def test_bench_probes_run_against_this_tree(tmp_path):
    root = str(tmp_path)
    small = layers.generate_probe_docroot(root, 1)
    tracer = spans.Tracer()
    metrics = layers.probe_layers(root, small, tracer)
    metrics.update(layers.probe_connection(root, small, tracer))
    for name in (
        "core.event_loop.dispatch_us",
        "core.event_loop.modify_us",
        "core.connection.request_self_us",
    ):
        value, _unit, samples = metrics[name]
        assert value > 0 and samples > 0, name
