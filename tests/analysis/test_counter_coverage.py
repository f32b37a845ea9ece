"""Every ``ServerStats`` counter is asserted on by at least one test.

The inverse of lint rule RL004, which checks that each counter is
incremented and documented: a counter no test asserts on can drift to a
silent zero (or a wrong count) without anything noticing — merely naming
it (in a loop condition, a helper's list) checks nothing.  The int fields
are read from ``core/pipeline.py`` by AST, so a new counter joins the
check as soon as it is declared; a field counts as asserted on when it
appears in the expression of an ``assert`` statement under ``tests/`` —
as an attribute (``stats.requests``), a name, or a string key
(``snapshot["requests"]``).
"""

import ast
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


def asserted_names(path: Path) -> set:
    """Attribute names, names and string constants inside the expressions
    of the ``assert`` statements of one test module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8", errors="replace"))):
        if not isinstance(node, ast.Assert):
            continue
        for sub in ast.walk(node.test):
            if isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)
    return names


def test_every_counter_is_asserted_on_by_a_test():
    asserted = set()
    for path in TESTS.rglob("*.py"):
        if path.resolve() != Path(__file__).resolve():
            asserted |= asserted_names(path)
    missing = [name for name in stats_counters() if name not in asserted]
    assert missing == [], f"ServerStats counters no test asserts on: {missing}"
