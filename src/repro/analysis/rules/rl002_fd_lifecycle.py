"""RL002 — fd lifecycle balance: every descriptor acquired is released.

The reproduction's whole performance story rides on descriptors: cached
fds pinned by in-flight responses, listen/epoll/pipe descriptors owned by
servers and helpers.  A leaked fd is invisible until the process hits
``EMFILE`` under load — precisely the overload regime admission control
hardens — so leak discipline must be enforced where the leak is written,
not where it finally bites.

Per function, the rule tracks names bound to an acquiring call
(``os.open``, ``os.dup``, ``os.pipe``, ``socket.socket()``,
``socket.socketpair``, ``socket.create_connection``) and requires one of:

* **ownership transfer** — the name is returned, yielded, stored on an
  object/container, or passed to another call (a registry such as
  ``CachedFD(fd=...)`` now owns it);
* **release on all exits** — a matching ``os.close(fd)`` / ``obj.close()``
  inside a ``finally`` block;
* **context manager** — acquired by a ``with`` item.

A close that exists but sits on the straight-line path only (not in a
``finally``) is still a finding: any exception between acquire and close
leaks.  Separately, a ``*cache*.acquire(...)`` call (the pinned-resource
caches) must be matched by a ``.release(...)`` in the same function or an
ownership transfer of its result — the fd-cache refcount protocol.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.analysis.framework import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    dotted_name,
    iter_functions,
    name_used,
    register,
)

#: Calls whose result is a descriptor (or descriptor-bearing object) the
#: caller now owns.  Tuple-returning acquirers bind every tuple element.
ACQUIRING_CALLS = frozenset({
    "os.open",
    "os.dup",
    "os.pipe",
    "os.openpty",
    "socket.socket",
    "socket.socketpair",
    "socket.create_connection",
})


def _finally_spans(func: ast.AST) -> List[Tuple[int, int]]:
    spans = []
    for node in ast.walk(func):
        if isinstance(node, ast.Try) and node.finalbody:
            start = node.finalbody[0].lineno
            end = max(stmt.end_lineno or stmt.lineno for stmt in node.finalbody)
            spans.append((start, end))
    return spans


def _is_close_call(node: ast.Call, name: str) -> bool:
    called = dotted_name(node.func)
    if called == f"{name}.close":
        return True
    return (
        called in ("os.close", "contextlib.closing")
        and any(isinstance(arg, ast.Name) and arg.id == name for arg in node.args)
    )


def _transfers(func: ast.AST, name: str, acquire_line: int) -> bool:
    """Whether ownership of ``name`` visibly leaves the function."""
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if name_used(node.value, name):
                return True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            if name_used(node.value, name):
                return True
        elif isinstance(node, ast.Assign):
            if any(
                isinstance(target, (ast.Attribute, ast.Subscript))
                for target in node.targets
            ) and name_used(node.value, name):
                return True
        elif isinstance(node, ast.Call) and not _is_close_call(node, name):
            args = list(node.args) + [kw.value for kw in node.keywords]
            if any(name_used(arg, name) for arg in args):
                return True
    return False


@register
class FdLifecycleRule(Rule):
    id = "RL002"
    name = "fd-lifecycle-balance"
    rationale = (
        "a leaked descriptor is invisible until EMFILE under overload; every "
        "acquire must dominate a close, a registration, or a transfer"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        for func, _cls in iter_functions(module.tree):
            yield from self._check_function(module, func)

    def _check_function(self, module: ModuleInfo, func: ast.AST) -> Iterable[Finding]:
        acquisitions: List[Tuple[str, int]] = []
        cache_pins: List[Tuple[Optional[str], int, str]] = []
        with_lines = set()
        for node in ast.walk(func):
            if isinstance(node, ast.With):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        with_lines.add(item.context_expr.lineno)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                called = dotted_name(node.value.func)
                if called in ACQUIRING_CALLS and node.value.lineno not in with_lines:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            acquisitions.append((target.id, node.lineno))
                        elif isinstance(target, ast.Tuple):
                            acquisitions.extend(
                                (el.id, node.lineno)
                                for el in target.elts
                                if isinstance(el, ast.Name)
                            )
                elif called is not None and self._is_cache_acquire(called):
                    target = node.targets[0]
                    bound = target.id if isinstance(target, ast.Name) else None
                    cache_pins.append((bound, node.lineno, called))
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                called = dotted_name(node.value.func)
                if called in ACQUIRING_CALLS:
                    yield module.finding(
                        self.id, node.lineno,
                        f"result of acquiring call {called}() is discarded: the "
                        "descriptor leaks immediately",
                    )
                elif called is not None and self._is_cache_acquire(called):
                    cache_pins.append((None, node.lineno, called))

        spans = _finally_spans(func)
        for name, line in acquisitions:
            if _transfers(func, name, line):
                continue
            close_lines = [
                node.lineno
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and _is_close_call(node, name)
            ]
            if not close_lines:
                yield module.finding(
                    self.id, line,
                    f"descriptor {name!r} is acquired but never closed, "
                    "registered, or transferred on any path",
                )
            elif not any(
                start <= cl <= end for cl in close_lines for start, end in spans
            ):
                yield module.finding(
                    self.id, line,
                    f"descriptor {name!r} is closed on the straight-line path "
                    "only: an exception between acquire and close leaks it "
                    "(move the close into try/finally or transfer ownership)",
                )

        has_release = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("release", "unpin")
            for node in ast.walk(func)
        )
        for bound, line, called in cache_pins:
            if has_release:
                continue
            if bound is not None and _transfers(func, bound, line):
                continue
            yield module.finding(
                self.id, line,
                f"pinned-cache acquire {called}() has no matching .release() "
                "in this function and its result is not handed off: the pin "
                "(refcount) is never dropped",
            )

    @staticmethod
    def _is_cache_acquire(called: str) -> bool:
        if not called.endswith(".acquire"):
            return False
        receiver = called.rsplit(".", 1)[0].lower()
        return "cache" in receiver
