"""Differential suite: the sort-and-merge ``QuantileSketch`` against its oracle.

``QuantileSketch`` folds buffered rows with ``np.sort`` and a linear merge
of sorted runs. Its contract is that every state — summary values and
weights, compaction parity, ``n_finite`` / ``min`` / ``max`` and the edges
— is bit-identical to the implementation it replaced, which re-sorted
``summary ∥ fresh rows`` (and ``self ∥ other`` in ``merge``) with a
stable argsort. That implementation is frozen below as ``ArgsortSketch``
and driven through the same operations: chunk updates with interleaved
reads, and merge trees of per-chunk partials.

Floats are compared as ``uint64`` bit patterns: ``np.array_equal``
treats ``-0.0`` and ``+0.0`` as equal and would miss a signed-zero
mismatch, the one way an unstable sort can differ from a stable one on
finite floats.

Inputs mix signed zeros, heavy ties, NaN/±inf rows and continuous
values; capacities cover {2, 3, 5, 16, unbounded}; chunk sizes fall
below, at and above ``2 * capacity`` (the compaction trigger).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tabular.binning import QuantileSketch, merge_quantile_sketches

CAPACITIES = (2, 3, 5, 16, None)
#: Stand-in capacity for sizing chunks of unbounded sketches.
UNBOUNDED_SCALE = 16
MIXES = ("signed_zeros", "ties", "specials", "continuous")
N_BINS = (2, 10, 64)


class ArgsortSketch(QuantileSketch):
    """Oracle: the stable-argsort ``_summary`` and ``merge`` the sketch replaced.

    Frozen verbatim, including the old merge capacity rule; the merge
    trees below only combine equal capacities, where that rule and the
    current one agree.
    """

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        cap = self.capacity
        if cap is None or (other.capacity is not None and other.capacity < cap):
            cap = other.capacity if self.capacity is None else cap
        out = ArgsortSketch(capacity=cap)
        out.n_finite = self.n_finite + other.n_finite
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        sv, sw = self._summary()
        ov, ow = other._summary()
        values = np.concatenate([sv, ov])
        weights = np.concatenate([sw, ow])
        order = np.argsort(values, kind="stable")
        out._values = values[order]
        out._weights = weights[order]
        out._parity = (self._parity + other._parity) & 1
        if out.capacity is not None and out._values.size > 2 * out.capacity:
            out._compact()
        return out

    def _summary(self) -> "tuple[np.ndarray, np.ndarray]":
        if self._buffer:
            fresh = np.concatenate(self._buffer)
            values = np.concatenate([self._values, fresh])
            weights = np.concatenate(
                [self._weights, np.ones(fresh.size, dtype=np.int64)]
            )
            order = np.argsort(values, kind="stable")
            self._values = values[order]
            self._weights = weights[order]
            self._buffer = []
            self._buffer_rows = 0
        return self._values, self._weights


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_state(new: QuantileSketch, old: QuantileSketch) -> None:
    """Bit-level equality of two sketches' full observable state."""
    nv, nw = new._summary()
    ov, ow = old._summary()
    assert new.capacity == old.capacity
    assert np.array_equal(_bits(nv), _bits(ov)), "summary values differ"
    assert nw.dtype == ow.dtype == np.int64
    assert np.array_equal(nw, ow), "summary weights differ"
    assert new._parity == old._parity
    assert new.n_finite == old.n_finite
    assert np.array_equal(_bits(new.min), _bits(old.min))
    assert np.array_equal(_bits(new.max), _bits(old.max))
    for n_bins in N_BINS:
        assert np.array_equal(_bits(new.edges(n_bins)), _bits(old.edges(n_bins))), (
            f"edges({n_bins}) differ"
        )


def _column(rng: np.random.Generator, size: int, mix: str) -> np.ndarray:
    """One chunk of an adversarial column."""
    if mix == "signed_zeros":
        x = rng.choice([0.0, -0.0], size=size)
        spread = rng.random(size) < 0.25
        x[spread] = rng.normal(size=int(spread.sum()))
    elif mix == "ties":
        x = rng.integers(-3, 4, size=size).astype(np.float64)
        x[(x == 0) & (rng.random(size) < 0.5)] = -0.0
    elif mix == "specials":
        x = rng.normal(size=size)
        hit = rng.random(size) < 0.4
        x[hit] = rng.choice(
            [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0],
            size=int(hit.sum()),
        )
    else:
        x = rng.normal(size=size)
    return x


def _chunk_size(rng: np.random.Generator, capacity: "int | None", regime: str) -> int:
    """A chunk below, at or above the ``2 * capacity`` compaction trigger."""
    twice = 2 * (capacity or UNBOUNDED_SCALE)
    if regime == "below":
        return int(rng.integers(1, twice))
    if regime == "at":
        return twice
    return int(rng.integers(twice + 1, 2 * twice + 2))


def _chunks(rng, capacity, n_chunks):
    regimes = ("below", "at", "above")
    return [
        _column(
            rng,
            _chunk_size(rng, capacity, regimes[rng.integers(3)]),
            MIXES[rng.integers(len(MIXES))],
        )
        for _ in range(n_chunks)
    ]


def _run_updates(chunks, capacity, reads):
    new, old = QuantileSketch(capacity), ArgsortSketch(capacity)
    for chunk, read in zip(chunks, reads):
        new.update(chunk)
        old.update(chunk)
        if read:  # an early read folds the buffer mid-stream
            assert np.array_equal(_bits(new.edges(10)), _bits(old.edges(10)))
    return new, old


def _merge_tree(sketches, splits):
    """Merge ``sketches`` in order along a binary tree drawn from ``splits``."""
    if len(sketches) == 1:
        return sketches[0]
    cut = 1 + next(splits) % (len(sketches) - 1)
    return merge_quantile_sketches(
        _merge_tree(sketches[:cut], splits), _merge_tree(sketches[cut:], splits)
    )


@pytest.mark.parametrize("capacity", CAPACITIES, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_update_sequence_matches_argsort_oracle(capacity, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n_chunks = data.draw(st.integers(1, 6), label="n_chunks")
    reads = data.draw(st.lists(st.booleans(), min_size=n_chunks, max_size=n_chunks))
    chunks = _chunks(np.random.default_rng(seed), capacity, n_chunks)
    new, old = _run_updates(chunks, capacity, reads)
    assert_same_state(new, old)


@pytest.mark.parametrize("capacity", CAPACITIES, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_merge_tree_matches_argsort_oracle(capacity, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n_parts = data.draw(st.integers(1, 6), label="n_parts")
    splits = data.draw(
        st.lists(st.integers(0, 100), min_size=n_parts, max_size=n_parts)
    )
    rng = np.random.default_rng(seed)
    parts_new, parts_old = [], []
    for _ in range(n_parts):
        chunks = _chunks(rng, capacity, int(rng.integers(1, 4)))
        new, old = _run_updates(chunks, capacity, [False] * len(chunks))
        parts_new.append(new)
        parts_old.append(old)
    merged_new = _merge_tree(parts_new, iter(splits))
    merged_old = _merge_tree(parts_old, iter(splits))
    # Keep streaming into the merged partial: buffer + merged summary.
    tail = _column(rng, _chunk_size(rng, capacity, "above"), "specials")
    merged_new.update(tail)
    merged_old.update(tail)
    assert_same_state(merged_new, merged_old)


@pytest.mark.parametrize("capacity", CAPACITIES, ids=str)
def test_seeded_adversarial_sweep(capacity):
    """Fixed-seed sweep over every mix and size regime (no shrinking needed)."""
    rng = np.random.default_rng(20240613)
    for _ in range(150):
        n_chunks = int(rng.integers(1, 7))
        chunks = _chunks(rng, capacity, n_chunks)
        reads = list(rng.random(n_chunks) < 0.3)
        new, old = _run_updates(chunks, capacity, reads)
        assert_same_state(new, old)
        other_new, other_old = _run_updates(
            _chunks(rng, capacity, 2), capacity, [False, False]
        )
        assert_same_state(new.merge(other_new), old.merge(other_old))


def test_signed_zero_run_keeps_arrival_order():
    sk = QuantileSketch(capacity=None)
    sk.update(np.array([0.0, -0.0, 1.0, -0.0]))
    sk.update(np.array([-0.0, 0.0, -1.0]))
    values, weights = sk._summary()
    assert np.signbit(values).tolist() == [
        True, False, True, True, True, False, False,
    ]
    assert values.tolist() == [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    assert weights.tolist() == [1] * 7


def test_update_does_not_alias_the_chunk():
    chunk = np.array([3.0, 1.0, 2.0])
    sk = QuantileSketch(capacity=None).update(chunk)
    chunk[:] = 99.0
    values, _ = sk._summary()
    assert values.tolist() == [1.0, 2.0, 3.0]


def _distinct_operands(capacity_a, capacity_b):
    """Two multi-chunk sketches with no value in common (ties are operand-ordered)."""
    rng = np.random.default_rng(7)
    pool = rng.normal(size=3000)
    assert np.unique(pool).size == pool.size
    a, b = QuantileSketch(capacity_a), QuantileSketch(capacity_b)
    for lo in range(0, 1500, 300):
        a.update(pool[lo : lo + 300])
    for lo in range(1500, 3000, 250):
        b.update(pool[lo : lo + 250])
    return a, b


@pytest.mark.parametrize(
    "capacity_a, capacity_b",
    [(16, 16), (100, 100), (100, 50), (50, 100), (None, 32), (32, None), (None, None)],
)
def test_merge_is_commutative(capacity_a, capacity_b):
    a, b = _distinct_operands(capacity_a, capacity_b)
    ab, ba = a.merge(b), b.merge(a)
    finite = [c for c in (capacity_a, capacity_b) if c is not None]
    assert ab.capacity == ba.capacity == (min(finite) if finite else None)
    assert_same_state(ab, ba)
