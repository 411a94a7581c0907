"""Out-of-core SAFE fit: the Algorithm-1 stages over a chunked row stream.

:meth:`~repro.core.pipeline.SAFE.fit` holds the one iteration loop — mine
paths, rank combinations, generate, select, repeat. Handed a
:class:`~repro.tabular.ChunkedDataset`, it drives :class:`StreamStages`,
whose rows never co-exist in memory. Each stage consumes the stream
through the mergeable sufficient-statistics kernels the in-memory entry
points are one-chunk callers of:

* the mining and ranking GBMs stream through
  :func:`~repro.boosting.stream.fit_gbm_streaming`;
* combination ranking merges :func:`~repro.core.scoring.combination_count_partial`
  cells and finalizes with the shared gain-ratio arithmetic;
* the IV filter merges :func:`~repro.metrics.batched.iv_bin_counts`
  partials over sketch-derived equal-frequency edges
  (row-shardable across processes via
  :func:`repro.parallel.parallel_stream_iv_counts`);
* redundancy removal merges moment and centered-Gram panels from
  :mod:`repro.core.redundancy` and runs the same greedy scan.

Feature columns are re-derived per chunk: expressions evaluate against a
fresh per-chunk :class:`~repro.operators.engine.EvalCache` and are
sanitized in place, which is exact because the streaming path only
admits *row-wise stateless* operators (``Operator.rowwise`` and not
``Operator.is_stateful``) — output row ``i`` depends only on input row
``i``, so chunked evaluation is bit-identical to full-matrix evaluation.

Parity with the in-memory fit: every count-valued statistic merges in
exact integer arithmetic, so with ``sketch="exact"`` (bit-identical
quantile edges) the selected Ψ reproduces the in-memory fit's on
fixed-seed workloads; float accumulations (GBM leaf values, Gram
panels) re-associate and match to ≤1e-9 relative, so gain ties at the
last ulp are the one place tree structure can legitimately differ. With
``sketch="merge"`` edges are approximate within one sample rank and Ψ
may differ accordingly.

Unsupported (rejected with ``ConfigurationError``): validation sets and
operators that are stateful or not row-wise. The in-memory fit only
schema-checks a validation set, since no internal GBM early-stops.
"""

from __future__ import annotations

import numpy as np

from ..boosting.gbm import GradientBoostingClassifier
from ..boosting.stream import fit_gbm_streaming
from ..boosting.tree import GAIN_TIE_RTOL
from ..exceptions import ConfigurationError, DataError
from ..metrics.batched import iv_from_counts
from ..metrics.information import entropy_from_counts
from ..operators.base import resolve_operators
from ..operators.engine import EvalCache, evaluate_forest
from ..operators.expressions import Applied, Expression
from ..runtime.checkpoint import StatsCheckpointStore
from ..runtime.failpoints import failpoint
from ..runtime.report import QuarantineRecord, RuntimeReport
from ..tabular.binning import DEFAULT_SKETCH_CAPACITY, streamed_quantile_edges
from ..tabular.io import ChunkedDataset
from ..tabular.preprocess import clean_matrix
from ..utils import as_label_vector
from .generation import plan_features, rank_from_scores
from .pipeline import FitStages
from .redundancy import (
    centered_gram_partial,
    column_moments_partial,
    correlations_from_gram,
    greedy_decorrelate,
    merge_column_moments,
    merge_grams,
)
from .scoring import (
    _DENSE_CELL_FACTOR,
    _DENSE_CELL_FLOOR,
    combination_count_partial,
    gain_ratio_from_combination_counts,
    merge_combination_counts,
)
from .selection import SelectionReport


def forest_chunks(data: ChunkedDataset, expressions: "list[Expression]"):
    """Restartable stream of sanitized feature chunks for a forest.

    Returns a zero-argument callable (the convention every streaming
    kernel consumes) yielding ``(rows, block, y_chunk)`` where ``block``
    is the chunk's ``(len(rows), len(expressions))`` evaluated forest,
    cleaned in place — exactly the rows of the matrix the in-memory
    pipeline would pass to the same stage. The per-chunk
    :class:`EvalCache` shares subtree columns within the chunk and dies
    with it, keeping memory at O(chunk).
    """

    def iterate():
        for rows, X_chunk, y_chunk in data.iter_chunks():
            cache = EvalCache(np.asarray(X_chunk, dtype=np.float64))
            block = clean_matrix(
                evaluate_forest(expressions, cache=cache), copy=False
            )
            yield rows, block, y_chunk

    return iterate


def _check_streamable_config(cfg) -> None:
    """Reject configurations the v1 streaming fit cannot honour exactly."""
    blocked = [
        op.name
        for op in resolve_operators(cfg.operators)
        if op.is_stateful or not op.rowwise
    ]
    if blocked:
        raise ConfigurationError(
            "streaming fit supports row-wise stateless operators only; "
            f"not streamable: {blocked}"
        )


def _count_positives(data: ChunkedDataset) -> int:
    """One validation pass over the labels; returns the positive count."""
    n_pos = 0
    for rows, _, y_chunk in data.iter_chunks():
        if y_chunk is None:
            raise DataError("streaming fit needs labeled chunks")
        n_pos += int(as_label_vector(y_chunk, len(rows)).sum())
    return n_pos


def _rank_combinations_streamed(
    chunks, combos, gamma: int, n_rows: int, n_pos: int, stats=None
):
    """Algorithm 2 over the stream: merged count cells, shared finalize."""
    kept = [c for c in combos if c.features]
    if not kept:
        return []
    dense_limit = 2 * max(_DENSE_CELL_FACTOR * n_rows, _DENSE_CELL_FLOOR)

    def compute_partials():
        partials = None
        for _, block, y_chunk in chunks():
            part = combination_count_partial(block, y_chunk, kept, dense_limit)
            partials = (
                part
                if partials is None
                else merge_combination_counts(partials, part)
            )
        return partials

    if stats is None:
        partials = compute_partials()
    else:
        partials = stats.run("rank-combos", compute_partials)
    base = entropy_from_counts(np.array([n_rows - n_pos, n_pos]))
    ratios = gain_ratio_from_combination_counts(partials, n_rows, base)
    return rank_from_scores(kept, ratios, gamma)


def _generate_streamed(
    plan,
    data: ChunkedDataset,
    quarantine: "list[QuarantineRecord] | None",
    stats=None,
) -> list[Expression]:
    """Generation passes 2/3 over the stream (all operators stateless).

    In strict mode the expressions exist as soon as the plan does — no
    column needs materializing to construct a stateless ``Applied`` — so
    only the per-expression failpoints fire. In quarantine mode one
    stats pass evaluates every planned expression chunk-at-a-time,
    recording raises and OR-accumulating column finiteness; the
    screening decisions (a raise, or no finite value anywhere in the
    column) match the in-memory `_generate_with_quarantine` exactly.
    """
    if quarantine is None:
        for _ in plan:
            failpoint("generation.operator")
        return [Applied(op.name, children, None) for op, children in plan]

    exprs = [Applied(op.name, children, None) for op, children in plan]

    def compute_screen():
        reasons: "list[str | None]" = [None] * len(plan)
        any_finite = np.zeros(len(plan), dtype=bool)
        first_chunk = True
        for _, X_chunk, _ in data.iter_chunks():
            cache = EvalCache(np.asarray(X_chunk, dtype=np.float64))
            for i, expr in enumerate(exprs):
                if reasons[i] is not None:
                    continue
                try:
                    if first_chunk:
                        failpoint("generation.operator")
                    column = cache.column(expr)
                except Exception as exc:
                    reasons[i] = repr(exc)
                    continue
                if not any_finite[i] and np.isfinite(column).any():
                    any_finite[i] = True
            first_chunk = False
        return {"reasons": reasons, "any_finite": any_finite}

    if stats is None:
        screen = compute_screen()
    else:
        screen = stats.run("generate-screen", compute_screen)
    reasons = screen["reasons"]
    any_finite = screen["any_finite"]

    out: list[Expression] = []
    for i, (op, children) in enumerate(plan):
        key = op.format(*(c.key for c in children))
        if reasons[i] is not None:
            quarantine.append(
                QuarantineRecord(key=key, operator=op.name, reason=reasons[i])
            )
        elif not any_finite[i]:
            quarantine.append(
                QuarantineRecord(
                    key=key,
                    operator=op.name,
                    reason="column is entirely non-finite",
                )
            )
        else:
            out.append(exprs[i])
    return out


def _select_streamed(
    data: ChunkedDataset,
    candidates: "list[Expression]",
    n_rows: int,
    n_pos: int,
    cfg,
    max_output: "int | None",
    stats=None,
) -> SelectionReport:
    """The three selection stages over the stream; same report shape."""
    failpoint("selection.select")
    n_neg = n_rows - n_pos
    chunks_cand = forest_chunks(data, candidates)

    # -- Algorithm 3: IV filter ------------------------------------------
    # Equal-frequency edges come from the sketch pass (exact mode is
    # bit-identical to the in-memory matrix kernel's sort-derived edges);
    # the side stats reproduce its scorability mask.
    def compute_edges():
        return streamed_quantile_edges(
            chunks_cand,
            len(candidates),
            cfg.iv_bins,
            sketch=cfg.sketch,
            capacity=DEFAULT_SKETCH_CAPACITY,
        )

    if stats is None:
        edges_state = compute_edges()
    else:
        edges_state = stats.run("sel-edges", compute_edges)
    edges_per_col, n_finite, col_min, col_max = edges_state
    with np.errstate(invalid="ignore"):
        scorable = (n_finite > 0) & (col_min < col_max)
    n_edges = np.array([e.size for e in edges_per_col], dtype=np.int64)
    stride = int(n_edges.max()) + 2
    from ..parallel import parallel_stream_iv_counts

    def compute_counts():
        # The shard reducer owns retries and merged-prefix checkpoints;
        # with n_jobs=1 it runs the single shard serially in-process.
        return parallel_stream_iv_counts(
            data,
            candidates,
            edges_per_col,
            scorable,
            stride,
            n_jobs=cfg.n_jobs,
            stats=None if stats is None else stats.scoped("sel-iv"),
        )

    if stats is None:
        counts = compute_counts()
    else:
        counts = stats.run("sel-iv-counts", compute_counts)
    ivs = iv_from_counts(counts[0], counts[1], n_pos, n_neg, scorable)
    kept_iv = np.flatnonzero(ivs > cfg.iv_threshold)
    if kept_iv.size < 1:  # min_keep fallback of the in-memory filter
        kept_iv = np.argsort(-ivs)[:1]
        kept_iv.sort()

    # -- Algorithm 4: redundancy removal ---------------------------------
    exprs_iv = [candidates[i] for i in kept_iv]
    chunks_iv = forest_chunks(data, exprs_iv)

    def compute_moments():
        moments = None
        for _, F_chunk, _ in chunks_iv():
            part = column_moments_partial(F_chunk)
            moments = (
                part if moments is None else merge_column_moments(moments, part)
            )
        return moments

    if stats is None:
        moments = compute_moments()
    else:
        moments = stats.run("sel-moments", compute_moments)
    mean = moments[1] / moments[0]  # repro: ignore[div-guard] n_rows >= 1 validated at fit entry
    scale = np.maximum(moments[2], -moments[3])

    def compute_gram():
        gram = None
        for _, F_chunk, _ in chunks_iv():
            part = centered_gram_partial(F_chunk, mean)
            gram = part if gram is None else merge_grams(gram, part)
        return gram

    if stats is None:
        gram = compute_gram()
    else:
        gram = stats.run("sel-gram", compute_gram)
    corr = correlations_from_gram(gram, scale, n_rows)
    kept_local = greedy_decorrelate(corr, ivs[kept_iv], cfg.pearson_threshold)
    kept_red = kept_iv[kept_local]

    # -- Stage 3: importance ranking -------------------------------------
    exprs_red = [candidates[i] for i in kept_red]
    ranking = GradientBoostingClassifier(
        n_estimators=cfg.ranking_n_estimators,
        max_depth=cfg.ranking_max_depth,
        random_state=cfg.random_state,
        tie_rtol=GAIN_TIE_RTOL,
    )
    fit_gbm_streaming(
        ranking,
        forest_chunks(data, exprs_red),
        n_rows,
        len(exprs_red),
        sketch=cfg.sketch,
        stats=None if stats is None else stats.scoped("sel-rank-gbm"),
    )
    importance = ranking.feature_importances_
    order_local = np.lexsort((np.arange(importance.size), -importance))
    if max_output is not None:
        order_local = order_local[:max_output]
    final = kept_red[order_local]
    return SelectionReport(
        n_candidates=len(candidates),
        kept_after_iv=tuple(int(i) for i in kept_iv),
        kept_after_redundancy=tuple(int(i) for i in kept_red),
        final_order=tuple(int(i) for i in final),
        information_values=tuple(float(v) for v in ivs),
    )


class StreamStages(FitStages):
    """The Algorithm-1 stages over a :class:`ChunkedDataset`.

    Validation rejects a validation set and operators that are stateful
    or not row-wise (``ConfigurationError``), and an empty or
    single-class label stream (``DataError``). With a checkpoint
    directory, every stage's sufficient statistics persist in a
    :class:`StatsCheckpointStore` under ``stats/``, scoped per iteration.
    """

    def __init__(self, train: ChunkedDataset, valid, cfg) -> None:
        if valid is not None:
            raise ConfigurationError(
                "streaming fit does not support a validation set"
            )
        _check_streamable_config(cfg)
        n_rows = train.n_rows
        if n_rows < 1:
            raise DataError("streaming fit needs at least one row")
        n_pos = _count_positives(train)
        if n_pos == 0 or n_pos == n_rows:
            raise DataError("SAFE.fit requires both classes in the training labels")
        self.train, self.cfg = train, cfg
        self.n_rows, self.n_pos = n_rows, n_pos
        self.store: "StatsCheckpointStore | None" = None

    def start(self, report: RuntimeReport, directory, fingerprint: str) -> None:
        self.report = report
        report.chunks_quarantined.extend(self.train.quarantined_chunks())
        if directory is not None:
            self.store = StatsCheckpointStore(directory / "stats", fingerprint)

    def begin(self, iteration: int, expressions: "list[Expression]") -> None:
        self.n_cols = len(expressions)
        self.chunks = forest_chunks(self.train, expressions)
        self.stats = (
            None if self.store is None else self.store.scoped(f"it{iteration:05d}")
        )

    def mine(self) -> GradientBoostingClassifier:
        cfg = self.cfg
        mining = GradientBoostingClassifier(
            n_estimators=cfg.mining_n_estimators,
            max_depth=cfg.mining_max_depth,
            learning_rate=cfg.mining_learning_rate,
            random_state=cfg.random_state,
            tie_rtol=GAIN_TIE_RTOL,
        )
        fit_gbm_streaming(
            mining,
            self.chunks,
            self.n_rows,
            self.n_cols,
            sketch=cfg.sketch,
            stats=None if self.stats is None else self.stats.scoped("mine-gbm"),
        )
        return mining

    def rank(self, combos):
        return _rank_combinations_streamed(
            self.chunks, combos, self.cfg.gamma, self.n_rows, self.n_pos,
            stats=self.stats,
        )

    def generate(self, ranked, expressions, existing_keys, quarantine):
        plan = plan_features(ranked, self.cfg.operators, expressions, existing_keys)
        return _generate_streamed(plan, self.train, quarantine, stats=self.stats)

    def select(self, candidates, max_output) -> SelectionReport:
        return _select_streamed(
            self.train, candidates, self.n_rows, self.n_pos, self.cfg,
            max_output, stats=self.stats,
        )

    def checkpointed(self) -> None:
        # The iteration's survivors are durable; its mid-iteration
        # statistics can never be needed again and must not leak into the
        # next iteration's stage keys.
        self.store.clear()

    def finish(self) -> None:
        if self.store is not None:
            self.report.stats_checkpoints_written = self.store.written
            self.report.stats_stages_resumed = list(self.store.resumed)
            self.report.stats_checkpoints_skipped = list(self.store.skipped)
