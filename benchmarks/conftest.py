"""Shared infrastructure for the benchmark suite.

Each ``benchmarks/test_*.py`` file regenerates one table or figure of the paper:
the pytest-benchmark timings are the figure's data points for the performance
figures (Fig 2, 3, 7), and the experiment harnesses' formatted tables are written to
``benchmarks/results/<name>.txt`` so they can be inspected and copied into
EXPERIMENTS.md.  Those tables are deterministic and committed, so a run that
changes one shows in ``git diff``.  Tables of wall-clock timings change on every
run; they go to the ``timings_dir`` fixture, ``benchmarks/results/timings/``,
which is not committed.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"
TIMINGS_DIR = RESULTS_DIR / "timings"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where experiment tables are written."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def timings_dir() -> Path:
    """Directory where tables of wall-clock timings are written (gitignored)."""
    TIMINGS_DIR.mkdir(parents=True, exist_ok=True)
    return TIMINGS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Save a formatted experiment table as ``<results_dir>/<name>.txt``."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2023)
