"""The package's public surface, the README's library example, that every
library function is reached from a command or the README, what importing
the CLI loads, and the independence of the test-side reference routes from
the solver."""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import os
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import penney
import penney.cli
from childenv import child_env
from goldentable import GOLDEN_COMMANDS, GOLDEN_DIR
from refalgebra import as_fractions, series

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PACKAGE = Path(penney.__file__).resolve().parent

# Second routes the solver is checked against; none may call into it.
REFERENCE_MODULES = ("refalgebra", "refconway")

# What only the benchmark reaches: the chain oracle, against which it checks
# every output. It leaves src/ in the benchmark change (ROADMAP item 3).
BENCHMARK_ONLY = {
    "oracle.Automaton.absorbing",
    "oracle.Automaton.player_count",
    "oracle.Automaton.state_count",
    "oracle._transient_system",
    "oracle.absorption_probabilities",
    "oracle.build_automaton",
    "oracle.conditional_absorption_times",
    "oracle.expected_absorption_time",
    "oracle.solve_linear_system",
    "oracle.step_distribution",
}


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
    spec, pgfs = namespace["spec"], namespace["pgfs"]
    distribution = namespace["game_distribution"](spec, 10)
    assert as_fractions(distribution) == [series(pgf, 10) for pgf in pgfs]


def defined_functions() -> dict[tuple[str, int, str], str]:
    """Every function and method defined in the package, keyed by its code's
    file, first line and name, with its name in the module. Lambdas and
    comprehensions count as part of the function that holds them."""
    found = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                walk(const, f"{name}.<locals>")
            else:
                walk(const, name)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    return found


def test_every_library_function_is_reached(monkeypatch):
    """Every golden command, one of them through the console script's entry
    point, and the README's library example, run under a profiler: each
    function of the package must be entered, but for BENCHMARK_ONLY."""
    # a cached function that an earlier test ran would not be entered again
    for path in PACKAGE.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            for value in vars(importlib.import_module(f"penney.{path.stem}")).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    entered: set[types.CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    commands = sorted(GOLDEN_COMMANDS.items())
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name, argv in commands[:-1]:
            with redirect_stdout(io.StringIO()) as out:
                code = penney.cli.main(argv)
            assert code == 0, name
            assert out.getvalue().encode() == (GOLDEN_DIR / name).read_bytes(), name
        # the console script's entry point
        name, argv = commands[-1]
        monkeypatch.setattr(sys, "argv", ["penney", *argv])
        with redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exit_:
            penney.cli.run()
        assert exit_.value.code == 0, name
        assert out.getvalue().encode() == (GOLDEN_DIR / name).read_bytes(), name
        exec(library_example(), {})
    finally:
        sys.setprofile(previous)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    unreached = {name for key, name in defined_functions().items() if key not in reached}
    assert unreached == BENCHMARK_ONLY


def test_cli_import_leaves_out_costly_modules():
    """Every command's process pays for what `import penney.cli` loads:
    `dataclasses` (with `inspect`) cost about 12 ms of it. Without `site`,
    which may load `typing` itself, none of the three may be loaded."""
    probe = (
        "import sys, penney.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports; `from penney import name` counts as the
    module that defines `name`, and a relative import as `penney`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add("penney")
        elif isinstance(node, ast.Import):
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


def test_the_runtime_is_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        outside = {
            name
            for name in imported_modules(path)
            if name.partition(".")[0] not in (*sys.stdlib_module_names, "penney")
        }
        assert outside == set(), path.name
