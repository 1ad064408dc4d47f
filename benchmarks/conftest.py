"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures and prints
it so the numbers land in the pytest output (and in EXPERIMENTS.md via
``tee``).  ``REPRO_SCALE`` shrinks the stand-in circuits for quick runs:

    REPRO_SCALE=0.2 pytest benchmarks/ --benchmark-only

The committed EXPERIMENTS.md numbers use the default scale of 1.0 —
the paper's full initial literal counts.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/.

    The persisted copies are what EXPERIMENTS.md is assembled from, so a
    full benchmark run regenerates every reported number.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    scale = bench_scale()
    out = RESULTS_DIR / f"{name}@{scale:g}.txt"
    out.write_text(text + "\n")


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing.

    Table-level experiments are minutes-long and deterministic; repeated
    rounds would add nothing but wall-clock.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
