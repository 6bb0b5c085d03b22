"""The README's `## Library` block runs as written, and each expression in it
evaluates to the value its comment shows."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_block_runs_and_shows_its_values():
    block = _library_block()
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            comment = lines[statement.lineno - 1].rpartition("#")[2].strip()
            shown.append((source, repr(eval(source, namespace)), comment))
        else:
            exec(source, namespace)
    assert [(source, value) for source, value, _ in shown] == [
        (source, comment) for source, _, comment in shown
    ]
    assert len(shown) == 3
