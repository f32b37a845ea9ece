"""Every ``ServerStats`` counter is read by at least one test.

The inverse of lint rule RL004, which checks that each counter is
incremented and documented: a counter no test names can drift to a silent
zero (or a wrong count) without anything noticing.  The int fields are read
from ``core/pipeline.py`` by AST, so a new counter joins the check as soon
as it is declared.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
PIPELINE = TESTS.parent / "src" / "repro" / "core" / "pipeline.py"


def stats_counters() -> list:
    tree = ast.parse(PIPELINE.read_text())
    (stats,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ServerStats"
    ]
    return [
        stmt.target.id
        for stmt in stats.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and isinstance(stmt.annotation, ast.Name)
        and stmt.annotation.id == "int"
    ]


def test_counters_are_read_from_pipeline():
    counters = stats_counters()
    assert "requests" in counters and "loop_callback_errors" in counters


def test_every_counter_is_named_by_a_test():
    text = "\n".join(
        path.read_text(encoding="utf-8", errors="replace")
        for path in TESTS.rglob("*.py")
        if path.resolve() != Path(__file__).resolve()
    )
    missing = [
        name for name in stats_counters() if not re.search(rf"\b{name}\b", text)
    ]
    assert missing == [], f"ServerStats counters no test names: {missing}"
