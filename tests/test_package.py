"""The package's public surface, and the README's library example."""

from __future__ import annotations

from pathlib import Path

import penney

README = Path(__file__).resolve().parents[1] / "README.md"


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
