"""The library examples run and show what their comments say: the README's
Library example and the package docstring's. In each, an expression
followed by a "# " line must have that line as its repr."""

import ast
import textwrap
from pathlib import Path

import pytest

import isorbit

README = Path(__file__).resolve().parents[1] / "README.md"


def shown_lines(code: str) -> list[tuple[str, str]]:
    """Run the example a statement at a time, in a fresh namespace; for
    each expression followed by a "# " line, (its repr, that line)."""
    lines, namespace, shown = code.splitlines(), {}, []
    for node in ast.parse(code).body:
        after = lines[node.end_lineno] if node.end_lineno < len(lines) else ""
        if isinstance(node, ast.Expr) and after.startswith("# "):
            value = eval(compile(ast.Expression(node.value), "<example>", "eval"), namespace)
            shown.append((repr(value), after[2:]))
        else:
            exec(compile(ast.Module([node], []), "<example>", "exec"), namespace)
    return shown


def readme_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def docstring_example() -> str:
    doc = isorbit.__doc__
    return textwrap.dedent(doc[doc.index("Typical use::") + len("Typical use::"):])


@pytest.mark.parametrize("example", [readme_example, docstring_example])
def test_the_example_shows_what_its_comments_say(example):
    shown = shown_lines(example())
    assert len(shown) == 2
    for value, comment in shown:
        assert value == comment
