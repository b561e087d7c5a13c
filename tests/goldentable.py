"""The documented CLI invocations and their golden outputs in `goldens/`.

The one table of them: the CLI tests, the acceptance gate and the CI step
that runs the installed `penney` script all loop over it. Run as a script,
it prints one line per golden, its file name and then its arguments.
"""

from __future__ import annotations

from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

GOLDEN_COMMANDS = {
    "solve.json": ["solve", "--patterns", "THH,HTH,HHT", "--json"],
    "simulate.json": [
        "simulate",
        "--patterns",
        "THH,HTH,HHT",
        "--trials",
        "100000",
        "--seed",
        "0",
        "--json",
    ],
    "best_response.json": ["best-response", "--opponents", "HH", "--length", "2", "--json"],
    "best_response_verbose.txt": [
        "best-response",
        "--alphabet",
        "H:1/3,T:2/3",
        "--opponents",
        "HTHT,TTHH",
        "--length",
        "5",
        "--verbose",
    ],
    "solve_series.json": ["solve", "--patterns", "THH,HTH,HHT", "--series", "10", "--json"],
    "solve_series_ternary.txt": [
        "solve",
        "--alphabet",
        "a:1/2,b:1/3,c:1/6",
        "--patterns",
        "ab,bc,ca",
        "--series",
        "40",
    ],
    "simulate_ternary.txt": [
        "simulate",
        "--alphabet",
        "a:1/2,b:1/3,c:1/6",
        "--patterns",
        "ab,bc,ca",
        "--trials",
        "20000",
        "--seed",
        "7",
    ],
}

if __name__ == "__main__":
    for name, argv in GOLDEN_COMMANDS.items():
        print(name, *argv)
