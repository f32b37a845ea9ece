"""The repo's one benchmark (see bench/README.md and BENCHMARK.json).

Everything here measures the server from outside: the load generator, the
verifier, the estimators and the span recorder are this package's own and
import nothing from ``repro.client``.
"""
