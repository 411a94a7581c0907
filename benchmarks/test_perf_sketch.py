"""Perf gate for the sort-and-merge quantile sketch fold (not tier-1).

Run explicitly with ``PYTHONPATH=src python -m pytest -m perf
benchmarks/test_perf_sketch.py``. Asserts the acceptance criteria of the
sort-and-merge ``QuantileSketch``: a ``sketch="merge"`` streamed-edges
pass over 262 columns x 40k rows in 8192-row chunks runs >= 2x faster
than the seed's stable-argsort fold, with edges, ``n_finite``, min and
max **bit-identical** (compared as ``uint64`` bit patterns, so a
signed-zero difference counts).

The tier-1 differential suite for every sketch state (signed zeros,
ties, NaN/inf, capacities, merge trees) is
``tests/test_quantile_sketch.py``.
"""

from __future__ import annotations

import pytest

import run_perf

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def record():
    return run_perf.run_sketch_benchmark()


def test_workload_is_the_streamed_iv_pass(record):
    assert record["n_cols"] == run_perf.SK_N_COLS
    assert record["chunk_rows"] == run_perf.SK_CHUNK_ROWS
    assert record["sketch"] == "merge"


def test_sketch_speedup(record):
    assert record["speedup"] >= 2.0


def test_edges_bit_identical(record):
    assert record["edges_bit_identical"] is True
