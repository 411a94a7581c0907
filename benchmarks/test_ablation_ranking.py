"""Ablation bench — Algorithm 2's gain-ratio ranking vs. random truncation.

DESIGN.md design-choice ablation: does *sorting* the mined combinations by
information gain ratio (before taking the top γ) actually select better
pairs than randomly truncating the same mined pool? We compare the mean
information value of the features generated from each selection.
"""

from __future__ import annotations

import numpy as np

from repro.core.generation import (
    combinations_from_paths,
    fit_mining_model,
    generate_features,
    rank_combinations,
)
from repro.core.selection import information_values_safe
from repro.datasets import load_benchmark
from repro.operators import Var, evaluate_expressions
from repro.tabular.preprocess import clean_matrix
from repro.utils import check_random_state

GAMMA = 12


def _mean_iv_of_generated(ranked, train):
    base = [Var(i) for i in range(train.n_cols)]
    exprs = generate_features(
        ranked, ("add", "sub", "mul", "div"), base, train.X,
        existing_keys={e.key for e in base},
    )
    if not exprs:
        return 0.0
    block = clean_matrix(evaluate_expressions(exprs, train.X))
    return float(np.mean(information_values_safe(block, train.y, n_bins=10)))


def _run_ablation(seed: int):
    train, _, _ = load_benchmark("spambase", scale=0.12, seed=seed)
    model = fit_mining_model(
        clean_matrix(train.X), train.require_labels(),
        n_estimators=20, max_depth=4, learning_rate=0.3, random_state=seed,
    )
    combos = combinations_from_paths(model.paths(), max_size=2)
    pairs = [c for c in combos if c.size == 2]
    # (a) Algorithm 2: rank by gain ratio, take top gamma.
    ranked = rank_combinations(train.X, train.y, pairs, gamma=GAMMA)
    # (b) Ablated: random gamma-subset of the same mined pool.
    rng = check_random_state(seed + 1)
    picks = rng.choice(len(pairs), size=min(GAMMA, len(pairs)), replace=False)
    from repro.core.generation import RankedCombination

    unranked = [RankedCombination(combination=pairs[k], gain_ratio=0.0) for k in picks]
    return (
        _mean_iv_of_generated(ranked, train),
        _mean_iv_of_generated(unranked, train),
    )


def test_gain_ratio_ranking_beats_random_truncation(benchmark):
    results = benchmark.pedantic(
        lambda: [_run_ablation(seed) for seed in (0, 1, 2)],
        rounds=1,
        iterations=1,
    )
    ranked_mean = float(np.mean([r[0] for r in results]))
    random_mean = float(np.mean([r[1] for r in results]))
    assert ranked_mean >= random_mean - 0.01, (
        f"gain-ratio ranking (mean IV {ranked_mean:.4f}) should not lose to "
        f"random truncation (mean IV {random_mean:.4f})"
    )
