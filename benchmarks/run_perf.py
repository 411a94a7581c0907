"""Time the scoring and generation hot paths: scalar (pre-batching) vs batched.

Fixed synthetic workload per the batched-engine acceptance criteria: 20k
rows x 60 features, gamma = 50, beta = 10 IV bins, with a mined-realistic
pool of ~800 feature combinations (singles and pairs, 3-15 pooled split
values per feature). Measures

* the Algorithm 2 ranking stage — scalar reference: fresh
  ``searchsorted`` per (combination, feature) plus the per-cell Python
  entropy loop and duplicated ``np.unique`` passes the seed tree shipped
  with; batched: ``core.scoring.score_combinations``;
* the Algorithm 3 IV stage — scalar reference: per-column quantile
  ``Binner`` refits via ``information_value``; batched:
  ``metrics.batched.information_values_matrix``;
* the generation stage (Algorithm 1 line 6 + candidate materialization)
  — scalar reference: per-arrangement ``fit_applied`` re-evaluating each
  child tree from scratch, then ``np.column_stack`` candidate evaluation
  on the train and valid matrices; batched: the CSE engine
  (``operators.engine.EvalCache`` + vectorized operator kernels in
  ``generate_features`` + ``evaluate_forest`` reuse of generated
  columns). Base expressions are depth-3 composed trees, the iteration
  >= 1 regime where child re-evaluation dominates;
* one end-to-end ``SAFE.fit`` (engine path only — timing record, no
  scalar twin);
* the combination-mining GBM itself — scalar reference: the seed's
  depth-first tree grower (fresh flattened ``bincount`` + ``np.repeat``
  temporaries per node, raw-``X`` re-descent for every margin and
  eval-set update); fast path: histogram-subtraction level growth with
  fit-time leaf gathers and a once-per-fit binned eval set
  (``boosting.tree`` / ``boosting.gbm``). Two configurations: the
  headline stochastic workload (``subsample=0.5``, Friedman-style
  stochastic boosting with deep trees, where the subsample bugfix also
  shrinks the partitions) and a parity twin (``subsample=1.0``) whose
  *training* margins must be **bit-identical** to the seed path (eval
  margins can deviate marginally: candidate splits with exactly equal
  gain — the same train partition reached through different features —
  may resolve differently under histogram-subtraction float noise,
  which train rows cannot observe but off-train rows can).

* the selection stage (Algorithm 4 redundancy removal) — seed reference:
  faithful copy of the full-matrix greedy (complete k x k
  ``pearson_matrix``, then the IV-ordered kept-scan); fast path: the
  blocked incremental Gram kernel
  (``core.redundancy.remove_redundant_features_blocked``) on a
  50k-row x 3k-candidate pool with grouped correlation structure plus
  constant/near-constant/duplicate/NaN pathologies. Kept indices must be
  **identical**.

* the streamed quantile sketch (``sketch="merge"`` equal-frequency
  edges, the selection-stage IV-edge pass of a streamed fit) — seed
  reference: faithful copy of the seed's ``QuantileSketch`` fold, which
  re-sorted ``summary ∥ fresh rows`` with a stable argsort (timsort);
  fast path: ``tabular.binning.streamed_quantile_edges`` (``np.sort`` of
  the fresh rows merged into the sorted summary) on 262 candidate
  columns x 40k rows in 8192-row chunks. Edges, ``n_finite``, min and
  max must be **bit-identical** (compared as ``uint64`` bit patterns).

Verifies the batched results match the scalar ones (scoring to 1e-9,
generation bit-identical: same expression keys/states and byte-equal
candidate matrices; boosting parity margins byte-equal; selection kept
indices identical; sketch edges bit-identical) and writes
``BENCH_perf.json`` at the repo root.

Run: ``PYTHONPATH=src python benchmarks/run_perf.py``

A single workload can be re-timed and merged into the existing
``BENCH_perf.json`` without re-running the others:
``PYTHONPATH=src python benchmarks/run_perf.py --stage selection``
(repeatable; stages: scoring, generation, boosting, end_to_end,
selection, fit_stream, fit_recovery, sketch).

The ``fit_stream`` stage is the out-of-core acceptance run: a SAFE.fit
over a 5M-row ``.npy``-memmapped ``ChunkedDataset`` recording rows/sec
and the tracemalloc peak, gated on that peak staying at least 8x under
the bytes materializing the matrix would cost, with an exact-sketch
Ψ-parity sub-record (streaming vs in-memory, bit-identical keys) at
reduced scale.

The ``fit_recovery`` stage is the crash-safety acceptance run: it
records resume-vs-refit wall time after a failpoint kill (gate: resume
>= 3x faster) and the chunk-manifest verification overhead on a clean
fit (gate: <= 10%).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.generation import (
    Combination,
    RankedCombination,
    _arrangements,
    generate_features,
    rank_combinations,
)
from repro.core.redundancy import remove_redundant_features_blocked
from repro.core.scoring import score_combinations
from repro.metrics.batched import information_values_matrix
from repro.metrics.information import (
    _EPS,
    cells_from_split_values,
    information_value,
    pearson_matrix,
)
from repro.operators import (
    Applied,
    EvalCache,
    Var,
    evaluate_forest,
    fit_applied,
    resolve_operators,
)
from repro.tabular.binning import (
    DEFAULT_SKETCH_CAPACITY,
    QuantileSketch,
    streamed_quantile_edges,
)

N_ROWS = 20_000
N_COLS = 60
N_VALID_ROWS = 10_000
GAMMA = 50
IV_BINS = 10
N_COMBOS = 800
SEED = 0
TOL = 1e-9
GENERATION_OPERATORS = (
    # The paper's §V experiment set plus stateless transforms and one
    # stateful operator (audited per-expression fit, not batchable).
    "add", "sub", "mul", "div", "log", "sqrt", "zscore",
)
FIT_N_ROWS = 8_000
FIT_N_COLS = 30
FIT_ITERATIONS = 2
BOOST_N_ESTIMATORS = 40
BOOST_MAX_DEPTH = 7
BOOST_MAX_BINS = 32
BOOST_LEARNING_RATE = 0.1
BOOST_SUBSAMPLE = 0.5  # Friedman-style stochastic gradient boosting
BOOST_N_EVAL_ROWS = 10_000
# XGBoost-style stopping: only min_child_weight binds, so the fast path
# never accumulates a per-bin count channel.
BOOST_MIN_SAMPLES_LEAF = 0
BOOST_MIN_CHILD_WEIGHT = 1e-3
SEL_N_ROWS = 50_000
SEL_N_COLS = 3_000
SEL_N_GROUPS = 150
SEL_NOISE = 0.35  # within-group |corr| ~ 1/(1+sigma^2) ~ 0.89 > theta
SEL_THETA = 0.8
SEL_BLOCK_SIZE = 512
FS_N_ROWS = 5_000_000
FS_N_COLS = 8
FS_CHUNK_ROWS = 8_192
#: Fixed out-of-core ceiling: one eighth of the materialized matrix.
FS_PEAK_CEILING_BYTES = FS_N_ROWS * FS_N_COLS * 8 // 8
FS_PARITY_ROWS = 200_000
SK_N_ROWS = 40_000
SK_N_COLS = 262
SK_CHUNK_ROWS = 8_192
FR_N_ROWS = 100_000
FR_ITERATIONS = 4
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


# ----------------------------------------------------------------------
# Scalar references: faithful copies of the pre-batching implementations.
# ----------------------------------------------------------------------
def scalar_entropy(values: np.ndarray) -> float:
    __, counts = np.unique(values, return_counts=True)
    p = counts / values.size
    return float(-(p * np.log(np.maximum(p, _EPS))).sum())


def scalar_partition_entropy(y: np.ndarray, cells: np.ndarray) -> float:
    """The seed's per-cell Python loop, verbatim."""
    total = 0.0
    __, inverse, counts = np.unique(cells, return_inverse=True, return_counts=True)
    pos_per_cell = np.bincount(
        inverse, weights=(y == 1).astype(np.float64), minlength=counts.size
    )
    for c in range(counts.size):
        n_c = counts[c]
        p1 = pos_per_cell[c] / n_c
        p0 = 1.0 - p1
        h = 0.0
        for p in (p0, p1):
            if p > 0:
                h -= p * np.log(p)
        total += (n_c / y.size) * h
    return float(total)


def scalar_gain_ratio(y: np.ndarray, cells: np.ndarray) -> float:
    gain = max(0.0, scalar_entropy(y) - scalar_partition_entropy(y, cells))
    split_info = scalar_entropy(cells)
    if split_info <= _EPS:
        return 0.0
    return float(gain / split_info)


def scalar_rank(X: np.ndarray, y: np.ndarray, combos: list) -> np.ndarray:
    out = np.zeros(len(combos))
    for i, combo in enumerate(combos):
        cells = cells_from_split_values(
            X, list(combo.features), [np.asarray(v) for v in combo.split_values]
        )
        out[i] = scalar_gain_ratio(y, cells)
    return out


def scalar_safe_ivs(X: np.ndarray, y: np.ndarray, n_bins: int) -> np.ndarray:
    """The seed's ``information_values_safe``: guard + per-column Binner."""
    ivs = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        col = X[:, j]
        finite = col[np.isfinite(col)]
        if finite.size == 0 or np.all(finite == finite[0]):
            continue
        ivs[j] = information_value(col, y, n_bins=n_bins)
    return ivs


def scalar_generate(ranked, operator_names, base, X, existing):
    """The seed's generation loop: fit_applied re-evaluates child trees
    per arrangement, dedup re-renders the key string per expression."""
    by_arity: dict[int, list] = {}
    for op in resolve_operators(operator_names):
        by_arity.setdefault(op.arity, []).append(op)
    seen = set(existing)
    out = []
    for item in ranked:
        combo = item.combination
        for op in by_arity.get(combo.size, []):
            for arrangement in _arrangements(combo.features, op):
                children = tuple(base[f] for f in arrangement)
                expr = fit_applied(op, children, X)
                key = expr.name(None)  # seed rendered the key per lookup
                if key in seen:
                    continue
                seen.add(key)
                out.append(expr)
    return out


def scalar_evaluate(expressions, X):
    """The seed's evaluate_expressions: column_stack over k tree walks."""
    X = np.asarray(X, dtype=np.float64)
    return np.column_stack([e.evaluate(X) for e in expressions])


class SeedTree:
    """Faithful copy of the seed's depth-first regression-tree grower.

    Per popped node it rebuilds every feature histogram from the node's
    rows with one flattened ``bincount`` over ``np.repeat``-expanded
    gradient/hessian weights, and prediction re-descends raw floats
    (NaN right via comparison only — the pre-fix default-direction rule).

    ``tests/test_boosting_tree.py::_reference_grow`` is a deliberately
    independent copy of the same seed semantics (kept separate so a bug
    slipped into one oracle cannot silently propagate to the other); a
    change to the reference semantics must be mirrored there.
    """

    def __init__(self, max_depth, min_samples_leaf, min_child_weight, reg_lambda, gamma):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma

    def fit(self, codes, edges, grad, hess):
        n_rows, n_cols = codes.shape
        stride = max(len(e) for e in edges) + 2 if edges else 2
        offsets = (np.arange(n_cols, dtype=np.int64) * stride)[None, :]
        codes_offset = codes + offsets
        n_edges = np.array([len(e) for e in edges], dtype=np.int64)
        nodes = []

        def new_node(depth, idx):
            nodes.append(
                {"feature": -1, "threshold": np.nan, "left": -1, "right": -1,
                 "value": 0.0, "_depth": depth, "_idx": idx}
            )
            return len(nodes) - 1

        stack = [new_node(0, np.arange(n_rows))]
        while stack:
            node = nodes[stack.pop()]
            idx = node["_idx"]
            g_sum = float(grad[idx].sum())
            h_sum = float(hess[idx].sum())
            node["value"] = -g_sum / (h_sum + self.reg_lambda)
            if (
                node["_depth"] >= self.max_depth
                or idx.size < 2 * self.min_samples_leaf
                or h_sum < 2 * self.min_child_weight
            ):
                continue
            flat = codes_offset[idx].ravel()
            length = n_cols * stride
            g_hist = np.bincount(
                flat, weights=np.repeat(grad[idx], n_cols), minlength=length
            ).reshape(n_cols, stride)
            h_hist = np.bincount(
                flat, weights=np.repeat(hess[idx], n_cols), minlength=length
            ).reshape(n_cols, stride)
            c_hist = np.bincount(flat, minlength=length).reshape(n_cols, stride)
            gl = np.cumsum(g_hist, axis=1)[:, :-1]
            hl = np.cumsum(h_hist, axis=1)[:, :-1]
            cl = np.cumsum(c_hist, axis=1)[:, :-1]
            gr = g_sum - gl
            hr = h_sum - hl
            cr = idx.size - cl
            parent_term = g_sum * g_sum / (h_sum + self.reg_lambda)
            gains = 0.5 * (
                gl * gl / (hl + self.reg_lambda)
                + gr * gr / (hr + self.reg_lambda)
                - parent_term
            ) - self.gamma
            valid = (
                (cl >= self.min_samples_leaf)
                & (cr >= self.min_samples_leaf)
                & (hl >= self.min_child_weight)
                & (hr >= self.min_child_weight)
                & (np.arange(stride - 1)[None, :] <= n_edges[:, None])
            )
            gains = np.where(valid, gains, -np.inf)
            best_flat = int(np.argmax(gains))
            j, b = divmod(best_flat, stride - 1)
            if not np.isfinite(gains[j, b]) or gains[j, b] <= 0:
                continue
            threshold = float(edges[j][b]) if b < len(edges[j]) else np.inf
            go_left = codes[idx, j] <= b
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            if left_idx.size == 0 or right_idx.size == 0:
                continue
            node["feature"] = j
            node["threshold"] = threshold
            left_id = new_node(node["_depth"] + 1, left_idx)
            right_id = new_node(node["_depth"] + 1, right_idx)
            node["left"] = left_id
            node["right"] = right_id
            stack.append(left_id)
            stack.append(right_id)

        self.feature = np.array([n["feature"] for n in nodes], dtype=np.int64)
        self.threshold = np.array([n["threshold"] for n in nodes])
        self.left = np.array([n["left"] for n in nodes], dtype=np.int64)
        self.right = np.array([n["right"] for n in nodes], dtype=np.int64)
        self.value = np.array([n["value"] for n in nodes])
        return self

    def predict(self, X):
        node_ids = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node_ids] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            nid = node_ids[rows]
            go_left = X[rows, self.feature[nid]] <= self.threshold[nid]
            node_ids[rows] = np.where(go_left, self.left[nid], self.right[nid])
            active[rows] = self.feature[node_ids[rows]] >= 0
        return self.value[node_ids]


def seed_gbm_fit(X, y, eval_set, subsample):
    """Faithful copy of the seed boosting loop around :class:`SeedTree`.

    Row subsampling zero-weights dropped rows (the pre-fix phantom-row
    behaviour), every margin update re-descends raw ``X``, and the eval
    set is re-descended on raw floats each round.
    """
    from repro.boosting.losses import get_loss
    from repro.tabular.binning import quantile_codes_matrix

    loss = get_loss("logistic")
    rng = np.random.default_rng(SEED)
    codes, edges = quantile_codes_matrix(X, max_bins=BOOST_MAX_BINS)
    codes = np.ascontiguousarray(codes)  # the seed built C-ordered codes
    base_score = loss.base_score(y)
    margin = np.full(X.shape[0], base_score)
    X_eval, y_eval = eval_set
    eval_margin = np.full(X_eval.shape[0], base_score)
    trees = []
    n_rows = X.shape[0]
    for __ in range(BOOST_N_ESTIMATORS):
        grad, hess = loss.grad_hess(y, margin)
        if subsample < 1.0:
            keep = rng.random(n_rows) < subsample
            if not keep.any():
                keep[rng.integers(0, n_rows)] = True
            grad = np.where(keep, grad, 0.0)
            hess = np.where(keep, hess, 0.0)
        tree = SeedTree(
            max_depth=BOOST_MAX_DEPTH,
            min_samples_leaf=BOOST_MIN_SAMPLES_LEAF,
            min_child_weight=BOOST_MIN_CHILD_WEIGHT,
            reg_lambda=1.0,
            gamma=0.0,
        ).fit(codes, edges, grad, hess)
        trees.append(tree)
        margin += BOOST_LEARNING_RATE * tree.predict(X)
        eval_margin += BOOST_LEARNING_RATE * tree.predict(X_eval)
        loss.loss(y_eval, eval_margin)
    return margin, eval_margin, trees


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def build_workload() -> tuple[np.ndarray, np.ndarray, list]:
    """Deterministic shared workload (memoized: the scoring, generation
    and boosting stages all read the same matrices and never mutate
    them, so one build serves a full multi-stage run)."""
    rng = np.random.default_rng(SEED)
    X = rng.normal(size=(N_ROWS, N_COLS))
    X[:, 10] = np.round(X[:, 10] * 3)  # duplicate-heavy column
    X[rng.random(size=N_ROWS) < 0.02, 11] = np.nan  # sparse missing values
    y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] - 0.3 * X[:, 3] > 0).astype(float)
    combos = []
    for __ in range(N_COMBOS):
        k = int(rng.integers(1, 3))
        feats = tuple(sorted(rng.choice(N_COLS, size=k, replace=False).tolist()))
        split_values = tuple(
            tuple(
                sorted(
                    set(
                        np.round(
                            rng.normal(size=int(rng.integers(3, 16))), 3
                        ).tolist()
                    )
                )
            )
            for __ in feats
        )
        combos.append(Combination(features=feats, split_values=split_values))
    return X, y, combos


def build_generation_workload(combos: list) -> tuple:
    """Ranked combos + iteration-3-style base expressions + a valid matrix.

    After a few Algorithm 1 iterations the base expressions are composed
    trees (~13 operator nodes, depth 5) that share subtrees — exactly the
    regime where the seed's per-arrangement tree re-evaluation hurts.
    """
    rng = np.random.default_rng(SEED + 1)
    X_valid = rng.normal(size=(N_VALID_ROWS, N_COLS))

    def mid(i: int) -> Applied:
        # An iteration-2-style survivor over originals (6 operator nodes).
        j = (i + 1) % N_COLS
        k = (i + 7) % N_COLS
        prod = Applied("mul", (Var(i), Var(j)))
        return Applied(
            "div",
            (
                Applied("add", (prod, Applied("log", (Var(k),)))),
                Applied("sqrt", (Var(j),)),
            ),
        )

    # Iteration-3-style bases: combinations of iteration-2 survivors.
    # Each mid(i) appears in two bases, the duplicate-subtree pattern the
    # CSE cache exists for.
    base = [
        Applied("sub", (mid(i), mid((i + 13) % N_COLS))) for i in range(N_COLS)
    ]
    ranked = [
        RankedCombination(combination=c, gain_ratio=1.0 - 0.001 * i)
        for i, c in enumerate(combos[:GAMMA])
    ]
    return ranked, base, X_valid


def scalar_generation_stage(ranked, base, X, X_valid):
    """generate -> candidate pool on train -> candidate pool on valid,
    every step re-walking the expression trees from scratch."""
    existing = {e.name(None) for e in base}
    new_exprs = scalar_generate(ranked, GENERATION_OPERATORS, base, X, existing)
    candidates = list(base) + new_exprs
    X_cand = scalar_evaluate(candidates, X)
    X_valid_cand = scalar_evaluate(candidates, X_valid)
    return new_exprs, X_cand, X_valid_cand


def batched_generation_stage(ranked, base, X, X_valid):
    """Same stage on the CSE engine: columns materialized during
    generation are reused for the candidate pool; the valid-set forest
    shares subtrees through its own cache."""
    cache = EvalCache(X)
    existing = {e.key for e in base}
    new_exprs = generate_features(
        ranked, GENERATION_OPERATORS, base, X, existing, cache=cache
    )
    candidates = list(base) + new_exprs
    X_cand = evaluate_forest(candidates, cache=cache)
    X_valid_cand = evaluate_forest(candidates, X_valid)
    return new_exprs, X_cand, X_valid_cand


def build_boosting_workload() -> tuple:
    """Train/eval matrices for the GBM workload (20k x 60, deep trees).

    Reuses the scoring workload's matrix (duplicate-heavy column 10,
    sparse NaNs in column 11) plus a fresh finite eval set.
    """
    X, y, __ = build_workload()
    rng = np.random.default_rng(SEED + 3)
    X_eval = rng.normal(size=(BOOST_N_EVAL_ROWS, N_COLS))
    y_eval = (
        X_eval[:, 0] * X_eval[:, 1] + 0.5 * X_eval[:, 2] - 0.3 * X_eval[:, 3] > 0
    ).astype(float)
    return X, y, X_eval, y_eval


def fast_gbm_fit(X, y, eval_set, subsample):
    """The histogram-subtraction path: one ``GradientBoostingClassifier.fit``."""
    from repro.boosting import GradientBoostingClassifier

    model = GradientBoostingClassifier(
        n_estimators=BOOST_N_ESTIMATORS,
        max_depth=BOOST_MAX_DEPTH,
        learning_rate=BOOST_LEARNING_RATE,
        max_bins=BOOST_MAX_BINS,
        min_samples_leaf=BOOST_MIN_SAMPLES_LEAF,
        min_child_weight=BOOST_MIN_CHILD_WEIGHT,
        subsample=subsample,
        random_state=SEED,
    ).fit(X, y, eval_set=eval_set)
    return model


def run_boosting_benchmark(repeats: int = 2) -> dict:
    """Seed-path vs histogram-subtraction GBM training, both configs.

    Headline: the stochastic workload (``subsample=0.5``; the subsample
    bugfix also means the fast path trains on true sub-partitions).
    Parity: ``subsample=1.0``, where tree growth semantics are unchanged
    and final training margins must be bit-identical to the seed path.
    """
    X, y, X_eval, y_eval = build_boosting_workload()
    eval_set = (X_eval, y_eval)

    seed_s, seed_out = best_of(
        lambda: seed_gbm_fit(X, y, eval_set, BOOST_SUBSAMPLE), repeats
    )
    fast_s, fast_model = best_of(
        lambda: fast_gbm_fit(X, y, eval_set, BOOST_SUBSAMPLE), repeats
    )
    parity_seed_s, parity_seed_out = best_of(
        lambda: seed_gbm_fit(X, y, eval_set, 1.0), repeats
    )
    parity_fast_s, parity_fast_model = best_of(
        lambda: fast_gbm_fit(X, y, eval_set, 1.0), repeats
    )
    parity_margin = parity_fast_model.decision_function(X)
    bit_identical = bool(np.array_equal(parity_seed_out[0], parity_margin))
    eval_diff = float(
        np.abs(parity_seed_out[1] - parity_fast_model.decision_function(X_eval)).max()
    )
    return {
        "n_rows": N_ROWS,
        "n_cols": N_COLS,
        "n_estimators": BOOST_N_ESTIMATORS,
        "max_depth": BOOST_MAX_DEPTH,
        "max_bins": BOOST_MAX_BINS,
        "subsample": BOOST_SUBSAMPLE,
        "n_eval_rows": BOOST_N_EVAL_ROWS,
        "n_trees": len(fast_model.trees_),
        "seed_seconds": seed_s,
        "fast_seconds": fast_s,
        "speedup": seed_s / fast_s,
        "parity": {
            "subsample": 1.0,
            "seed_seconds": parity_seed_s,
            "fast_seconds": parity_fast_s,
            "speedup": parity_seed_s / parity_fast_s,
            "train_margins_bit_identical": bit_identical,
            "eval_margin_max_abs_diff": eval_diff,
        },
    }


def seed_remove_redundant(X: np.ndarray, ivs: np.ndarray, theta: float) -> np.ndarray:
    """Faithful copy of the seed's full-matrix Algorithm 4 greedy.

    Materializes the complete k x k |Pearson| matrix (O(k^2 * n) flops,
    O(k^2) memory) before the IV-ordered kept-scan — the path the blocked
    incremental kernel replaces.
    """
    corr = np.abs(pearson_matrix(X))
    order = np.lexsort((np.arange(ivs.size), -ivs))
    kept: list[int] = []
    for j in order:
        if not kept or corr[j, kept].max() <= theta:
            kept.append(int(j))
    kept.sort()
    return np.asarray(kept, dtype=np.int64)


def build_selection_workload() -> tuple[np.ndarray, np.ndarray]:
    """50k x 3k candidate pool with production-shaped redundancy.

    Candidates are noisy copies of ``SEL_N_GROUPS`` latent factors, so
    each group's highest-IV member should survive and the rest should be
    rejected against it — the regime where the greedy's kept set stays
    far smaller than the candidate pool. Pathological columns (constant,
    noise-floor constant, exact duplicates, sparse NaN) and IV ties are
    mixed in; the kept indices must match the full-matrix path on all of
    them.
    """
    rng = np.random.default_rng(SEED + 4)
    factors = rng.normal(size=(SEL_N_ROWS, SEL_N_GROUPS))
    groups = rng.integers(0, SEL_N_GROUPS, size=SEL_N_COLS)
    X = factors[:, groups]
    X += SEL_NOISE * rng.normal(size=(SEL_N_ROWS, SEL_N_COLS))
    X[:, 17] = 3.25  # exactly constant
    X[:, 23] = 1e8 + 1e-7 * rng.normal(size=SEL_N_ROWS)  # noise-floor constant
    X[:, 31] = X[:, 5]  # exact duplicate
    X[:, 37] = -2.0 * X[:, 11]  # negated scaled duplicate
    X[rng.random(SEL_N_ROWS) < 0.001, 41] = np.nan  # sparse missing values
    ivs = rng.uniform(0.05, 1.0, size=SEL_N_COLS)
    ivs[200:210] = ivs[199]  # IV ties break by column order
    ivs[41] = 0.01  # the NaN column is visited late (kept set non-empty)
    return X, ivs


def run_selection_benchmark(repeats: int = 2) -> dict:
    """Full-matrix seed greedy vs blocked incremental kernel, 50k x 3k.

    The seed side runs once (it is the expensive path being replaced);
    the blocked side takes best-of-``repeats``. Kept indices must be
    identical.
    """
    X, ivs = build_selection_workload()
    seed_s, seed_kept = best_of(
        lambda: seed_remove_redundant(X, ivs, SEL_THETA), 1
    )
    blocked_s, blocked_kept = best_of(
        lambda: remove_redundant_features_blocked(
            X, ivs, SEL_THETA, block_size=SEL_BLOCK_SIZE
        ),
        repeats,
    )
    return {
        "n_rows": SEL_N_ROWS,
        "n_candidates": SEL_N_COLS,
        "n_groups": SEL_N_GROUPS,
        "theta": SEL_THETA,
        "block_size": SEL_BLOCK_SIZE,
        "n_kept": int(blocked_kept.size),
        "seed_seconds": seed_s,
        "blocked_seconds": blocked_s,
        "speedup": seed_s / blocked_s,
        "kept_identical": bool(np.array_equal(seed_kept, blocked_kept)),
    }


def run_end_to_end_fit() -> dict:
    """One engine-path SAFE.fit, recorded for regression tracking."""
    from repro.core import SAFE, SAFEConfig
    from repro.tabular import Dataset

    rng = np.random.default_rng(SEED + 2)
    X = rng.normal(size=(FIT_N_ROWS, FIT_N_COLS))
    y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] - 0.3 * X[:, 3] > 0).astype(float)
    train = Dataset.from_arrays(X[: FIT_N_ROWS // 2], y[: FIT_N_ROWS // 2])
    valid = Dataset.from_arrays(X[FIT_N_ROWS // 2 :], y[FIT_N_ROWS // 2 :])
    cfg = SAFEConfig(n_iterations=FIT_ITERATIONS, gamma=30, random_state=0)
    t0 = time.perf_counter()
    psi = SAFE(cfg).fit(train, valid)
    seconds = time.perf_counter() - t0
    return {
        "n_rows": FIT_N_ROWS // 2,
        "n_cols": FIT_N_COLS,
        "n_iterations": FIT_ITERATIONS,
        "seconds": seconds,
        "n_output_features": psi.n_output_features,
    }


def _write_fit_stream_workload(dirpath: str, n_rows: int) -> tuple[str, str]:
    """Materialize the memmap-backed workload on disk, chunk-at-a-time.

    The generating process itself stays out-of-core (1M-row blocks into
    ``open_memmap``) so the benchmark's measured peak reflects the fit,
    not a leftover generation buffer.
    """
    import os

    xp = os.path.join(dirpath, "X.npy")
    yp = os.path.join(dirpath, "y.npy")
    X = np.lib.format.open_memmap(
        xp, mode="w+", dtype=np.float64, shape=(n_rows, FS_N_COLS)
    )
    y = np.lib.format.open_memmap(yp, mode="w+", dtype=np.float64, shape=(n_rows,))
    rng = np.random.default_rng(SEED + 6)
    for lo in range(0, n_rows, 1_000_000):
        hi = min(lo + 1_000_000, n_rows)
        block = rng.normal(size=(hi - lo, FS_N_COLS))
        X[lo:hi] = block
        y[lo:hi] = (
            block[:, 0] - 0.5 * block[:, 1] + 0.5 * rng.normal(size=hi - lo) > 0
        ).astype(np.float64)
    X.flush()
    y.flush()
    del X, y
    return xp, yp


def run_fit_stream_benchmark() -> dict:
    """Out-of-core SAFE.fit on a 5M-row memmapped ChunkedDataset.

    Records rows/sec and the tracemalloc peak of the streaming fit
    (``sketch="merge"``), the ratio of the materialized-matrix bytes to
    that peak (the gate requires >= 8x), and an exact-sketch Ψ-parity
    sub-record at ``FS_PARITY_ROWS`` where the in-memory fit is still
    cheap enough to run: both paths must keep bit-identical expression
    keys.
    """
    import tempfile
    import tracemalloc

    from repro.core import SAFE, SAFEConfig
    from repro.tabular import Dataset
    from repro.tabular.io import ChunkedDataset

    names = tuple(f"f{i}" for i in range(FS_N_COLS))
    with tempfile.TemporaryDirectory() as td:
        xp, yp = _write_fit_stream_workload(td, FS_N_ROWS)
        cfg = SAFEConfig(n_iterations=1, sketch="merge", random_state=0)
        data = ChunkedDataset(names, FS_CHUNK_ROWS, x_path=xp, y_path=yp)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            psi = SAFE(cfg).fit(data)
            stream_s = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        # Parity sub-record: exact sketch, streaming vs in-memory, on a
        # prefix slice small enough to materialize.
        parity_cfg = SAFEConfig(n_iterations=1, sketch="exact", random_state=0)
        parity_data = ChunkedDataset(
            names, FS_CHUNK_ROWS, x_path=xp, y_path=yp, stop=FS_PARITY_ROWS
        )
        stream_keys = [
            e.key for e in SAFE(parity_cfg).fit(parity_data).expressions
        ]
        mem_train = Dataset(
            X=np.asarray(np.load(xp, mmap_mode="r")[:FS_PARITY_ROWS]),
            y=np.asarray(np.load(yp, mmap_mode="r")[:FS_PARITY_ROWS]),
            names=names,
        )
        mem_keys = [e.key for e in SAFE(parity_cfg).fit(mem_train).expressions]

    matrix_bytes = FS_N_ROWS * FS_N_COLS * 8
    return {
        "n_rows": FS_N_ROWS,
        "n_cols": FS_N_COLS,
        "chunk_rows": FS_CHUNK_ROWS,
        "sketch": "merge",
        "seconds": stream_s,
        "rows_per_second": FS_N_ROWS / stream_s,
        "tracemalloc_peak_bytes": int(peak),
        "peak_ceiling_bytes": FS_PEAK_CEILING_BYTES,
        "matrix_bytes": matrix_bytes,
        "matrix_to_peak_ratio": matrix_bytes / peak,
        "n_output_features": len(psi.expressions),
        "parity": {
            "n_rows": FS_PARITY_ROWS,
            "sketch": "exact",
            "n_kept": len(stream_keys),
            "psi_identical": stream_keys == mem_keys,
        },
    }


class SeedQuantileSketch(QuantileSketch):
    """Faithful copy of the seed's ``QuantileSketch`` fold.

    ``update`` copied every finite chunk column a second time, and
    ``_summary`` re-sorted ``summary ∥ fresh rows`` with
    ``np.argsort(kind="stable")`` (timsort) — the path the sort-and-merge
    fold replaces. ``_compact`` and ``edges`` are unchanged and shared.
    """

    def update(self, chunk: np.ndarray) -> "SeedQuantileSketch":
        arr = np.asarray(chunk, dtype=np.float64).ravel()
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            return self
        self.n_finite += int(finite.size)
        self.min = min(self.min, float(finite.min()))
        self.max = max(self.max, float(finite.max()))
        self._buffer.append(finite.copy())
        self._buffer_rows += int(finite.size)
        if (
            self.capacity is not None
            and self._weights.size + self._buffer_rows > 2 * self.capacity
        ):
            self._compact()
        return self

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


def seed_streamed_quantile_edges(chunk_iter, n_cols: int, n_bins: int) -> tuple:
    """The seed's ``sketch="merge"`` pass of ``streamed_quantile_edges``."""
    sketches = [SeedQuantileSketch(DEFAULT_SKETCH_CAPACITY) for _ in range(n_cols)]
    for _rows, X_chunk, _y in chunk_iter():
        for j in range(n_cols):
            sketches[j].update(X_chunk[:, j])
    return (
        [sk.edges(n_bins) for sk in sketches],
        np.array([sk.n_finite for sk in sketches], dtype=np.int64),
        np.array([sk.min for sk in sketches]),
        np.array([sk.max for sk in sketches]),
    )


def build_sketch_workload() -> np.ndarray:
    """262 candidate-shaped columns x 40k rows (a streamed fit's IV pass).

    Mostly continuous columns, plus the shapes generated features take:
    few-valued (heavy ties), rectified (runs of +0.0 and -0.0), and
    columns with NaN/inf cells from guarded operators.
    """
    rng = np.random.default_rng(SEED + 7)
    X = rng.normal(size=(SK_N_ROWS, SK_N_COLS))
    X[:, 0::7] = np.round(X[:, 0::7] * 2.0)
    signs = rng.choice([1.0, -1.0], size=(SK_N_ROWS, 1))
    X[:, 1::7] = np.maximum(X[:, 1::7], 0.0) * signs  # half the rows +-0.0
    X[:, 2::7] = np.exp(X[:, 2::7])
    X[rng.random(size=(SK_N_ROWS, SK_N_COLS)) < 0.01] = np.nan
    X[rng.random(size=(SK_N_ROWS, SK_N_COLS)) < 0.002] = np.inf
    return X


def run_sketch_benchmark(repeats: int = 3) -> dict:
    """Seed argsort fold vs sort-and-merge fold over one streamed pass."""
    X = build_sketch_workload()

    def chunk_iter():
        for lo in range(0, SK_N_ROWS, SK_CHUNK_ROWS):
            yield None, X[lo : lo + SK_CHUNK_ROWS], None

    seed_s, seed_out = best_of(
        lambda: seed_streamed_quantile_edges(chunk_iter, SK_N_COLS, IV_BINS), repeats
    )
    fast_s, fast_out = best_of(
        lambda: streamed_quantile_edges(
            chunk_iter, SK_N_COLS, IV_BINS, sketch="merge",
            capacity=DEFAULT_SKETCH_CAPACITY,
        ),
        repeats,
    )

    def bits(a):
        return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)

    identical = (
        all(np.array_equal(bits(a), bits(b)) for a, b in zip(seed_out[0], fast_out[0]))
        and np.array_equal(seed_out[1], fast_out[1])
        and np.array_equal(bits(seed_out[2]), bits(fast_out[2]))
        and np.array_equal(bits(seed_out[3]), bits(fast_out[3]))
    )
    return {
        "n_rows": SK_N_ROWS,
        "n_cols": SK_N_COLS,
        "chunk_rows": SK_CHUNK_ROWS,
        "sketch": "merge",
        "capacity": DEFAULT_SKETCH_CAPACITY,
        "n_bins": IV_BINS,
        "seed_seconds": seed_s,
        "fast_seconds": fast_s,
        "speedup": seed_s / fast_s,
        "edges_bit_identical": bool(identical),
    }


def run_fit_recovery_benchmark() -> dict:
    """Crash-safe fit: resume-vs-refit wall time and manifest overhead.

    Three measured fits over the same ``FR_N_ROWS``-row chunked
    workload:

    1. a clean fit without a manifest — the refit cost a crash without
       checkpoints would pay;
    2. a clean fit with chunk-integrity verification on — its time over
       (1) is the manifest overhead (verification is digested once per
       chunk and cached, so a multi-iteration fit amortizes it);
    3. a fit killed by the ``pipeline.iteration`` failpoint after
       ``FR_ITERATIONS - 1`` of ``FR_ITERATIONS`` iterations have
       checkpointed, then resumed from the checkpoint directory — the
       resume replays the checkpointed plan and recomputes only the
       final iteration.

    The gate requires resume to be >= 3x faster than refit and the
    manifest overhead to stay within 10%.
    """
    import os
    import tempfile

    from repro.core import SAFE, SAFEConfig
    from repro.exceptions import InjectedFault
    from repro.runtime.failpoints import active
    from repro.tabular.io import ChunkedDataset, write_manifest

    with tempfile.TemporaryDirectory() as td:
        xp, yp = _write_fit_stream_workload(td, FR_N_ROWS)
        cfg = SAFEConfig(
            n_iterations=FR_ITERATIONS, sketch="merge", random_state=0
        )

        def data(manifest: bool) -> ChunkedDataset:
            return ChunkedDataset.from_npy(
                xp, y_path=yp, chunk_rows=FS_CHUNK_ROWS, manifest=manifest
            )

        t0 = time.perf_counter()
        psi = SAFE(cfg).fit(data(manifest=False))
        refit_s = time.perf_counter() - t0

        write_manifest(data(manifest=False))
        t0 = time.perf_counter()
        SAFE(cfg).fit(data(manifest=True))
        manifest_s = time.perf_counter() - t0

        ckpt = os.path.join(td, "ckpt")
        with active("pipeline.iteration", mode="nth", nth=FR_ITERATIONS - 1):
            try:
                SAFE(cfg).fit(data(manifest=False), checkpoint_dir=ckpt)
            except InjectedFault:
                pass
        t0 = time.perf_counter()
        resumed = SAFE(cfg)
        resumed_psi = resumed.fit(data(manifest=False), checkpoint_dir=ckpt)
        resume_s = time.perf_counter() - t0

    refit_keys = [e.key for e in psi.expressions]
    resumed_keys = [e.key for e in resumed_psi.expressions]
    return {
        "n_rows": FR_N_ROWS,
        "n_cols": FS_N_COLS,
        "chunk_rows": FS_CHUNK_ROWS,
        "n_iterations": FR_ITERATIONS,
        "refit_seconds": refit_s,
        "resume_seconds": resume_s,
        "resume_speedup": refit_s / resume_s,
        "manifest_seconds": manifest_s,
        "manifest_overhead": manifest_s / refit_s - 1.0,
        "resumed_from_iteration": resumed.runtime_report_.resumed_from_iteration,
        "psi_identical": resumed_keys == refit_keys,
        "n_output_features": len(refit_keys),
    }


def best_of(fn, repeats: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for __ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_scoring_benchmark() -> dict:
    """Ranking + IV stages, scalar vs batched (the PR 1 workloads)."""
    X, y, combos = build_workload()

    scalar_rank_s, scalar_ratios = best_of(lambda: scalar_rank(X, y, combos), 1)
    batched_rank_s, batched_ratios = best_of(
        lambda: score_combinations(X, y, combos), 3
    )
    scalar_iv_s, scalar_ivs = best_of(lambda: scalar_safe_ivs(X, y, IV_BINS), 2)
    batched_iv_s, batched_ivs = best_of(
        lambda: information_values_matrix(X, y, n_bins=IV_BINS), 3
    )
    rank_err = float(np.abs(scalar_ratios - batched_ratios).max())
    iv_err = float(np.abs(scalar_ivs - batched_ivs).max())

    # gamma only truncates the sorted output; include it so the measured
    # stage is exactly what the pipeline runs.
    ranked = rank_combinations(X, y, combos, gamma=GAMMA)
    assert len(ranked) == GAMMA

    combined = (scalar_rank_s + scalar_iv_s) / (batched_rank_s + batched_iv_s)
    return {
        "workload": {
            "n_rows": N_ROWS,
            "n_cols": N_COLS,
            "gamma": GAMMA,
            "iv_bins": IV_BINS,
            "n_combinations": N_COMBOS,
            "seed": SEED,
        },
        "ranking": {
            "scalar_seconds": scalar_rank_s,
            "batched_seconds": batched_rank_s,
            "speedup": scalar_rank_s / batched_rank_s,
            "max_abs_diff": rank_err,
        },
        "information_value": {
            "scalar_seconds": scalar_iv_s,
            "batched_seconds": batched_iv_s,
            "speedup": scalar_iv_s / batched_iv_s,
            "max_abs_diff": iv_err,
        },
        "combined_speedup": combined,
    }


def run_generation_benchmark() -> dict:
    """Generation stage, scalar vs CSE engine (the PR 3 workload)."""
    X, __, combos = build_workload()
    # Same repeat count on both sides so the best-of comparison is fair.
    ranked_gen, base_exprs, X_valid = build_generation_workload(combos)
    scalar_gen_s, scalar_gen_out = best_of(
        lambda: scalar_generation_stage(ranked_gen, base_exprs, X, X_valid), 3
    )
    batched_gen_s, batched_gen_out = best_of(
        lambda: batched_generation_stage(ranked_gen, base_exprs, X, X_valid), 3
    )
    s_exprs, s_cand, s_valid = scalar_gen_out
    b_exprs, b_cand, b_valid = batched_gen_out
    generation_identical = (
        [e.key for e in s_exprs] == [e.key for e in b_exprs]
        and [e.state for e in s_exprs] == [e.state for e in b_exprs]
        and np.array_equal(s_cand, b_cand, equal_nan=True)
        and np.array_equal(s_valid, b_valid, equal_nan=True)
    )
    return {
        "generation": {
            "n_combinations": GAMMA,
            "n_valid_rows": N_VALID_ROWS,
            "operators": list(GENERATION_OPERATORS),
            "n_generated": len(b_exprs),
            "scalar_seconds": scalar_gen_s,
            "batched_seconds": batched_gen_s,
            "speedup": scalar_gen_s / batched_gen_s,
            "bit_identical": generation_identical,
        }
    }


#: Stage name -> callable returning the top-level keys that stage owns.
STAGE_RUNNERS = {
    "scoring": run_scoring_benchmark,
    "generation": run_generation_benchmark,
    "boosting": lambda: {"boosting": run_boosting_benchmark()},
    "end_to_end": lambda: {"end_to_end_fit": run_end_to_end_fit()},
    "selection": lambda: {"selection": run_selection_benchmark()},
    "fit_stream": lambda: {"fit_stream": run_fit_stream_benchmark()},
    "fit_recovery": lambda: {"fit_recovery": run_fit_recovery_benchmark()},
    "sketch": lambda: {"sketch": run_sketch_benchmark()},
}
ALL_STAGES = tuple(STAGE_RUNNERS)


def _print_stage_summaries(report: dict) -> None:
    if "ranking" in report:
        r = report["ranking"]
        print(
            f"ranking: {r['scalar_seconds']:.3f}s -> {r['batched_seconds']:.3f}s "
            f"({r['speedup']:.1f}x)"
        )
    if "information_value" in report:
        r = report["information_value"]
        print(
            f"IV:      {r['scalar_seconds']:.3f}s -> {r['batched_seconds']:.3f}s "
            f"({r['speedup']:.1f}x)"
        )
    if "generation" in report:
        r = report["generation"]
        print(
            f"generation: {r['scalar_seconds']:.3f}s -> {r['batched_seconds']:.3f}s "
            f"({r['speedup']:.1f}x)  bit-identical: {r['bit_identical']}"
        )
    if "boosting" in report:
        r = report["boosting"]
        print(
            f"boosting: {r['seed_seconds']:.3f}s -> {r['fast_seconds']:.3f}s "
            f"({r['speedup']:.1f}x)  parity {r['parity']['speedup']:.1f}x "
            f"bit-identical: {r['parity']['train_margins_bit_identical']}"
        )
    if "selection" in report:
        r = report["selection"]
        print(
            f"selection: {r['seed_seconds']:.3f}s -> {r['blocked_seconds']:.3f}s "
            f"({r['speedup']:.1f}x)  kept {r['n_kept']}/{r['n_candidates']} "
            f"identical: {r['kept_identical']}"
        )
    if "end_to_end_fit" in report:
        print(f"end-to-end fit: {report['end_to_end_fit']['seconds']:.3f}s")
    if "fit_stream" in report:
        r = report["fit_stream"]
        print(
            f"fit_stream: {r['n_rows']:,} rows in {r['seconds']:.1f}s "
            f"({r['rows_per_second']:,.0f} rows/s)  "
            f"peak {r['tracemalloc_peak_bytes'] / 1e6:.1f}MB "
            f"({r['matrix_to_peak_ratio']:.1f}x under the matrix)  "
            f"psi identical: {r['parity']['psi_identical']}"
        )
    if "fit_recovery" in report:
        r = report["fit_recovery"]
        print(
            f"fit_recovery: refit {r['refit_seconds']:.1f}s vs resume "
            f"{r['resume_seconds']:.1f}s ({r['resume_speedup']:.1f}x)  "
            f"manifest overhead {r['manifest_overhead'] * 100:+.1f}%  "
            f"psi identical: {r['psi_identical']}"
        )
    if "sketch" in report:
        r = report["sketch"]
        print(
            f"sketch: {r['seed_seconds']:.3f}s -> {r['fast_seconds']:.3f}s "
            f"({r['speedup']:.1f}x)  edges bit-identical: {r['edges_bit_identical']}"
        )
    if "combined_speedup" in report:
        print(
            f"combined: {report['combined_speedup']:.2f}x   "
            f"equivalent: {report.get('equivalent_within_1e-9')}"
        )


def main(write_json: bool = True, stages: "list[str] | None" = None) -> dict:
    """Run the requested stages (default: all) and merge into the report.

    When a subset of stages is requested and ``BENCH_perf.json`` exists,
    the untouched stages' records are carried over from it, so one
    workload can be re-timed without re-running the others.
    """
    requested = list(stages) if stages else list(ALL_STAGES)
    unknown = set(requested) - set(ALL_STAGES)
    if unknown:
        raise ValueError(f"unknown benchmark stage(s): {sorted(unknown)}")
    report: dict = {}
    if write_json and RESULT_PATH.exists() and set(requested) != set(ALL_STAGES):
        report = json.loads(RESULT_PATH.read_text())
    for stage in requested:
        report.update(STAGE_RUNNERS[stage]())
    if all(k in report for k in ("ranking", "information_value", "generation")):
        report["equivalent_within_1e-9"] = (
            report["ranking"]["max_abs_diff"] <= TOL
            and report["information_value"]["max_abs_diff"] <= TOL
            and report["generation"]["bit_identical"]
        )
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if write_json:
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    _print_stage_summaries(report)
    if write_json:
        print(f"wrote {RESULT_PATH}")
    return report


#: Per-stage pass criteria applied to the merged report by ``__main__``.
STAGE_GATES = {
    "scoring": lambda r: (
        r["combined_speedup"] >= 5.0
        and r["ranking"]["max_abs_diff"] <= TOL
        and r["information_value"]["max_abs_diff"] <= TOL
    ),
    "generation": lambda r: (
        r["generation"]["speedup"] >= 4.0 and r["generation"]["bit_identical"]
    ),
    "boosting": lambda r: (
        r["boosting"]["speedup"] >= 3.0
        and r["boosting"]["parity"]["train_margins_bit_identical"]
    ),
    "selection": lambda r: (
        r["selection"]["speedup"] >= 4.0 and r["selection"]["kept_identical"]
    ),
    "end_to_end": lambda r: r["end_to_end_fit"]["n_output_features"] >= 1,
    "fit_stream": lambda r: (
        r["fit_stream"]["tracemalloc_peak_bytes"]
        < r["fit_stream"]["peak_ceiling_bytes"]
        and r["fit_stream"]["matrix_to_peak_ratio"] >= 8.0
        and r["fit_stream"]["parity"]["psi_identical"]
        and r["fit_stream"]["n_output_features"] >= 1
    ),
    "fit_recovery": lambda r: (
        r["fit_recovery"]["resume_speedup"] >= 3.0
        and r["fit_recovery"]["manifest_overhead"] <= 0.10
        and r["fit_recovery"]["psi_identical"]
    ),
    "sketch": lambda r: (
        r["sketch"]["speedup"] >= 2.0 and r["sketch"]["edges_bit_identical"]
    ),
}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--stage",
        action="append",
        choices=ALL_STAGES,
        help="re-run only this workload and merge it into BENCH_perf.json "
        "(repeatable; default: all stages)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the report without touching BENCH_perf.json",
    )
    cli = parser.parse_args()
    ran = list(cli.stage) if cli.stage else list(ALL_STAGES)
    report = main(write_json=not cli.no_write, stages=ran)
    sys.exit(0 if all(STAGE_GATES[s](report) for s in ran) else 1)
