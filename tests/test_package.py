"""The package's public surface, the README's library example, and the
independence of the test-side reference routes from the solver."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import penney

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"

# Second routes the solver is checked against; none may call into it.
REFERENCE_MODULES = ("refalgebra", "refconway")


def test_every_exported_name_resolves():
    assert [name for name in penney.__all__ if not hasattr(penney, name)] == []
    assert len(set(penney.__all__)) == len(penney.__all__)


def library_example() -> str:
    """The Python block under the README's `## Library` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs_as_documented():
    code = library_example()
    namespace: dict = {}
    exec(code, namespace)
    # a line `expression  # value` whose comment parses as Python states a value
    stated = 0
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        try:
            expected = compile(comment.strip(), "README.md", "eval")
        except SyntaxError:
            continue
        assert eval(expression, namespace) == eval(expected, namespace), line
        stated += 1
    assert stated >= 2
    solution, spec = namespace["solution"], namespace["spec"]
    assert solution.pgfs[0].series(10) == namespace["game_distribution"](spec, 10)[0]


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports; `from penney import name` counts as the
    module that defines `name`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "penney":
            for alias in node.names:
                value = getattr(penney, alias.name)
                found.add(value.__name__ if inspect.ismodule(value) else value.__module__)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    return found


def test_reference_modules_do_not_import_the_solver():
    for name in REFERENCE_MODULES:
        imported = imported_modules(TESTS / f"{name}.py")
        assert not imported & {"penney.solver", "penney.cli"}, name
        # a test-side module they lean on is held to the same rule
        local = {m for m in imported if (TESTS / f"{m}.py").exists()}
        assert local <= set(REFERENCE_MODULES), name
