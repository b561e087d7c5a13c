"""Planted defects that the suite must catch, and a runner that checks it does.

Each defect is one exact source edit, an old text that occurs once in a file
of the checkout and the new text that replaces it, with the ids of tests that
must fail once the edit is made. For each defect the runner copies the
checkout's `src/`, `tests/`, `pyproject.toml` and `README.md` to a temporary
directory, makes the edit there and runs only the listed tests there, in a
child pytest whose root is the copy, so that its `src` is the one imported;
the child reports where `penney` came from, and the runner checks that it
is the copy. It fails if an old text no longer occurs exactly once, or if a
listed test does not fail.

    python tests/mutants.py [NAME ...]

runs every defect, or those named, and exits 1 unless each was caught. A
change that moves or rewrites a planted line updates its defect here, and a
change that finds a new defect by hand adds it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Defect(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


SOLVER = "src/penney/solver.py"
ORACLE = "src/penney/oracle.py"
PATTERNS = "src/penney/patterns.py"

BEST = "tests/test_solver.py::TestBestResponse::"
RUNNING = "tests/test_solver.py::TestRunningBest::"
DRAWS = "tests/test_oracle.py::TestSimulate::test_planted_draws_at_every_threshold"
GOLDEN = "tests/test_cli.py::TestGoldens::test_documented_invocations_are_byte_identical"

DEFECTS = (
    # best response's walk (`solver._response_scores`)
    Defect(
        "leaf-border-override",  # a leaf's border read from its parent's row alone
        SOLVER,
        "leaf_border = border + 1 if x == hit else parent_row[x]",
        "leaf_border = parent_row[x]",
        (
            f"{BEST}test_matches_full_solves",
            f"{BEST}test_guibas_odlyzko_best_reply_shape",
            f"{GOLDEN}[best_response_verbose.txt]",
        ),
    ),
    Defect(
        "leaf-frame-self-entry",  # the leaf frame writes no alpha of its own
        SOLVER,
        "            self_entry[depth] = alpha\n",
        "            if depth < leaf_depth: self_entry[depth] = alpha\n",
        (
            f"{BEST}test_matches_full_solves",
            f"{BEST}test_long_reply_against_a_pruning_opponent",
            "tests/test_cli.py::test_best_response_keeps_no_table",
        ),
    ),
    Defect(
        "factor-symbol-weight",  # each leaf's N_new is the frame factor itself
        SOLVER,
        "new = factor * symbol_weight",
        "new = factor",
        (
            f"{BEST}test_matches_full_solves",
            f"{RUNNING}test_negative_totals_are_normalised",
            "tests/test_solver.py::TestMetamorphic::test_swapping_symbols_relabels_response_table",
        ),
    ),
    Defect(
        "bordered-step-remainder",  # the exact division by det A goes unchecked
        SOLVER,
        '            if remainder:\n'
        '                raise ArithmeticError("bordered step is not divisible by det A")\n',
        "",
        ("tests/test_solver.py::TestCramerKernel::test_response_bordered_step_checks_the_remainder",),
    ),
    Defect(
        "completion-first-column",  # w_b's column read first, not last
        SOLVER,
        "*adjugate, completion = [",
        "completion, *adjugate = [",
        (
            f"{BEST}test_against_hh",
            f"{BEST}test_table_is_ranked_and_deterministic",
            f"{GOLDEN}[best_response.json]",
        ),
    ),
    # the word text (`patterns.undelimited`)
    Defect(
        "decoder-keeps-delimiter",  # the trailing "," read as one more symbol
        PATTERNS,
        'tuple(text[1:-1].split(","))',
        'tuple(text[1:].split(","))',
        (
            "tests/test_patterns.py::test_undelimited_inverts_delimited",
            f"{BEST}test_no_opponents_every_candidate_wins",
            f"{RUNNING}test_tie_at_the_top_keeps_alphabet_order[a:1/2,b:1/3,c:1/6]",
        ),
    ),
    # the symbol weights (`SourceModel.weights`)
    Defect(
        "weights-unscaled",  # P(symbol)'s numerator, not D * P(symbol)
        PATTERNS,
        "{s: p.numerator * (common // p.denominator) for s, p in zip(labels, values)}",
        "{s: p.numerator for s, p in zip(labels, values)}",
        (
            "tests/test_patterns.py::TestSourceModel::test_weights_are_the_probabilities_over_d[ternary]",
            "tests/test_solver.py::TestSeriesKernel::test_matches_oracle_on_ternary_game",
            f"{GOLDEN}[simulate_ternary.txt]",
        ),
    ),
    # the toss kernel (`oracle._toss_blocks`)
    Defect(
        "fraction-bits-63",  # k = 63 + D.bit_length()
        ORACLE,
        "return (64 + common.bit_length() + 7) // 8 * 8",
        "return 63 + common.bit_length()",
        (
            f"{DRAWS}[a:1/2,b:1/2]",
            f"{DRAWS}[a:1/2,b:1/3,c:1/6]",
            f"{DRAWS}[a:1/259,b:129/259,c:129/259]",
        ),
    ),
    Defect(
        "fraction-bits-63-rounded",  # k rounded up to whole bytes from 63 + D.bit_length()
        ORACLE,
        "return (64 + common.bit_length() + 7) // 8 * 8",
        "return (63 + common.bit_length() + 7) // 8 * 8",
        (f"{DRAWS}[a:1/259,b:129/259,c:129/259]",),
    ),
    Defect(
        "multiplier-floor",  # M = floor(2**k / D), not the ceiling
        ORACLE,
        "multiplier = -((-1 << fraction) // common)",
        "multiplier = (1 << fraction) // common",
        (
            f"{DRAWS}[a:1/3,b:2/3]",
            f"{DRAWS}[a:1/2,b:1/3,c:1/6]",
            f"{GOLDEN}[simulate_ternary.txt]",
        ),
    ),
    Defect(
        "latin1-257-codes",  # 256 kept bounds, 257 codes, decoded one byte a toss
        ORACLE,
        'if len(bounds) >= 256 else (1, "latin-1")',
        'if len(bounds) > 256 else (1, "latin-1")',
        ("tests/test_oracle.py::test_simulate_matches_the_scalar_loop",),
    ),
)

# Run in the copy: the listed tests, then one JSON line of where `penney` was
# imported from and each test's outcome, failed if any phase failed.
CHILD = """
import json, sys
import pytest

outcomes = {}

class Outcomes:
    def pytest_runtest_logreport(self, report):
        if report.failed:
            outcomes[report.nodeid] = "failed"
        elif report.when == "call" or report.skipped:
            outcomes.setdefault(report.nodeid, report.outcome)

pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]], plugins=[Outcomes()])
import penney
with open(sys.argv[1], "w", encoding="utf-8") as out:
    json.dump({"penney": penney.__file__, "outcomes": outcomes}, out)
"""


def apply(defect: Defect, root: Path) -> None:
    """Make `defect`'s edit in the checkout at `root`; raise ValueError unless
    its old text occurs exactly once."""
    path = root / defect.path
    text = path.read_text(encoding="utf-8")
    count = text.count(defect.old)
    if count != 1:
        raise ValueError(f"{defect.path}: the old text occurs {count} times, not once")
    path.write_text(text.replace(defect.old, defect.new), encoding="utf-8")


def survivors(defect: Defect) -> list[str]:
    """The listed tests that do not fail with `defect` planted in a copy of
    the checkout."""
    if not defect.tests:
        raise ValueError("no test is listed")
    with tempfile.TemporaryDirectory(prefix="penney-mutant-") as scratch:
        copy = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        apply(defect, copy)
        report = copy / "outcomes.json"
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(report), *defect.tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=900,
        )
        if not report.exists():
            raise RuntimeError(f"the child pytest wrote no report:\n{child.stdout}{child.stderr}")
        result = json.loads(report.read_text(encoding="utf-8"))
        if not Path(result["penney"]).resolve().is_relative_to(copy.resolve()):
            raise RuntimeError(f"the child imported penney from {result['penney']}, not the copy")
        outcomes = result["outcomes"]
        return [test for test in defect.tests if outcomes.get(test) != "failed"]


def main(names: list[str]) -> int:
    chosen = [d for d in DEFECTS if not names or d.name in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown defects: {sorted(set(names) - {d.name for d in DEFECTS})}")
        return 2
    missed = 0
    for defect in chosen:
        start = time.perf_counter()
        try:
            passed = survivors(defect)
        except ValueError as exc:
            print(f"BROKEN  {defect.name}: {exc}")
            missed += 1
            continue
        elapsed = time.perf_counter() - start
        if passed:
            print(f"MISSED  {defect.name}: these did not fail: {', '.join(passed)}")
            missed += 1
        else:
            print(f"caught  {defect.name}: all {len(defect.tests)} listed tests failed, {elapsed:.1f} s")
    print(f"{len(chosen) - missed} of {len(chosen)} planted defects caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
