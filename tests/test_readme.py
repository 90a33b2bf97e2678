"""The README's "Library" example runs and gives the values it shows."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The ``python`` block under the README's ``## Library`` heading."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_gives_the_values_it_shows():
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        line = lines[node.end_lineno - 1]
        if isinstance(node, ast.Expr) and "  # " in line:
            shown = ast.literal_eval(line.split("  # ", 1)[1])
            expr = ast.get_source_segment(source, node)
            code = compile(ast.Expression(node.value), "README", "eval")
            value = eval(code, namespace)
            assert value == shown, expr
            checked.append(expr)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    # every value the example shows is checked
    assert len(checked) == sum("  # " in line for line in lines) == 4
