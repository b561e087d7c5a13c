"""Environment for the `python -m penney` child processes the CLI suites start."""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's `src` first on PYTHONPATH."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
