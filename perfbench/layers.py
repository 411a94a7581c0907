"""Which layer boundaries the traced run records, and the metrics they give.

Each :class:`~spans.Hook` names the module attribute a caller looks a
public function up through, so rebinding it puts a span around exactly
that call site. See README.md for the end-to-end metric each per-layer
metric should move, and on which workload.
"""

from __future__ import annotations

from spans import Hook, Recorder

_SERVE = ("serve",)

HOOKS = (
    # Algorithm 1 stages of the in-memory fit (lookups in core.pipeline
    # and core.selection).
    Hook("repro.core.pipeline", "fit_mining_model", "core.generation.fit_mining_model"),
    Hook("repro.core.pipeline", "rank_combinations", "core.generation.rank_combinations"),
    Hook("repro.core.pipeline", "generate_features", "core.generation.generate_features"),
    Hook("repro.core.pipeline", "evaluate_forest", "operators.engine.evaluate_forest"),
    Hook("repro.core.pipeline", "clean_matrix", "tabular.preprocess.clean_matrix"),
    Hook("repro.core.selection", "filter_by_information_value",
         "core.selection.filter_by_information_value"),
    Hook("repro.core.selection", "remove_redundant_features_blocked",
         "core.redundancy.remove_redundant_features_blocked"),
    Hook("repro.core.selection", "rank_by_importance", "core.selection.rank_by_importance"),
    # Boosting kernels, under both the in-memory and the streaming GBM.
    Hook("repro.boosting.gbm", "GradientBoostingClassifier.fit", "boosting.gbm"),
    Hook("repro.boosting.gbm", "quantile_codes_matrix", "boosting.quantile_codes_matrix"),
    Hook("repro.boosting.histogram", "level_histogram_partial",
         "boosting.level_histogram_partial", counter="boosting.histogram_calls"),
    Hook("repro.boosting.stream", "level_histogram_partial",
         "boosting.level_histogram_partial", counter="boosting.histogram_calls"),
    Hook("repro.boosting.tree", "level_split_search", "boosting.level_split_search"),
    Hook("repro.boosting.stream", "level_split_search", "boosting.level_split_search"),
    # The out-of-core fit (lookups in core.stream, boosting.stream and
    # repro.parallel).
    Hook("repro.core.stream", "fit_gbm_streaming", "boosting.stream.fit_gbm_streaming"),
    Hook("repro.boosting.stream", "codes_from_edges_matrix",
         "boosting.stream.codes_from_edges_matrix"),
    Hook("repro.core.stream", "streamed_quantile_edges",
         "tabular.binning.streamed_quantile_edges"),
    Hook("repro.boosting.stream", "streamed_quantile_edges",
         "tabular.binning.streamed_quantile_edges"),
    Hook("repro.parallel", "parallel_stream_iv_counts", "parallel.parallel_stream_iv_counts"),
    Hook("repro.core.stream", "combination_count_partial",
         "core.scoring.combination_count_partial"),
    Hook("repro.core.stream", "column_moments_partial",
         "core.redundancy.column_moments_partial"),
    Hook("repro.core.stream", "centered_gram_partial", "core.redundancy.centered_gram_partial"),
    Hook("repro.core.stream", "evaluate_forest", "core.stream.evaluate_forest"),
    Hook("repro.core.stream", "clean_matrix", "tabular.preprocess.clean_matrix"),
    Hook("repro.tabular.io", "ChunkedDataset.iter_chunks", "tabular.io.iter_chunks",
         counter="tabular.io.chunks_read", generator=True),
    Hook("repro.runtime.checkpoint", "CheckpointManager.save", "runtime.checkpoint.save"),
    Hook("repro.runtime.checkpoint", "StatsCheckpointStore.save", "runtime.checkpoint.save"),
    # The serving session. EvalCache.column recurses once per expression
    # node, so it is traced on the serve workload only, where it is the
    # layer under test; on the fits it would only split evaluate_forest.
    Hook("repro.serving.session", "ServingSession.serve", "serving.session",
         workloads=_SERVE),
    Hook("repro.serving.validator", "RequestValidator.admit", "serving.validator.admit",
         counter="serving.validator.admitted", classify="category", workloads=_SERVE),
    Hook("repro.operators.engine", "EvalCache.column", "operators.engine.column",
         workloads=_SERVE),
)

#: Per-layer metric -> the span whose self time it reports.
SELF_TIME = {
    "core.generation.fit_mining_model_s": "core.generation.fit_mining_model",
    "core.generation.rank_combinations_s": "core.generation.rank_combinations",
    "core.generation.generate_features_s": "core.generation.generate_features",
    "operators.engine.evaluate_forest_s": "operators.engine.evaluate_forest",
    "tabular.preprocess.clean_matrix_s": "tabular.preprocess.clean_matrix",
    "core.selection.filter_by_information_value_s":
        "core.selection.filter_by_information_value",
    "core.redundancy.remove_redundant_features_blocked_s":
        "core.redundancy.remove_redundant_features_blocked",
    "core.selection.rank_by_importance_s": "core.selection.rank_by_importance",
    "boosting.quantile_codes_matrix_s": "boosting.quantile_codes_matrix",
    "boosting.level_histogram_partial_s": "boosting.level_histogram_partial",
    "boosting.level_split_search_s": "boosting.level_split_search",
    "boosting.gbm_self_s": "boosting.gbm",
    "tabular.binning.streamed_quantile_edges_s": "tabular.binning.streamed_quantile_edges",
    "boosting.stream.fit_gbm_streaming_s": "boosting.stream.fit_gbm_streaming",
    "boosting.stream.codes_from_edges_matrix_s": "boosting.stream.codes_from_edges_matrix",
    "parallel.parallel_stream_iv_counts_s": "parallel.parallel_stream_iv_counts",
    "core.scoring.combination_count_partial_s": "core.scoring.combination_count_partial",
    "core.redundancy.column_moments_partial_s": "core.redundancy.column_moments_partial",
    "core.redundancy.centered_gram_partial_s": "core.redundancy.centered_gram_partial",
    "core.stream.evaluate_forest_s": "core.stream.evaluate_forest",
    "tabular.io.iter_chunks_s": "tabular.io.iter_chunks",
    "runtime.checkpoint.save_s": "runtime.checkpoint.save",
    "serving.validator.admit_s": "serving.validator.admit",
    "operators.engine.column_s": "operators.engine.column",
    "serving.session.self_s": "serving.session",
}

#: Per-layer metric -> the counter it reports, per operation.
COUNTS = {
    "boosting.histogram_calls": "boosting.histogram_calls",
    "parallel.shard_retries": "parallel.shard_retries",
    "tabular.io.chunks_read": "tabular.io.chunks_read",
}

#: Per-layer metric -> (numerator counters, denominator counters).
RATIOS = {
    "core.selection.iv_keep_ratio": (
        ("selection.kept_after_iv",), ("selection.candidates",)),
    "core.redundancy.keep_ratio": (
        ("selection.kept_after_redundancy",), ("selection.kept_after_iv",)),
    "serving.validator.coerced_ratio": (
        ("serving.validator.admitted.coerced",),
        ("serving.validator.admitted.exact", "serving.validator.admitted.coerced")),
}

TRACE_METRICS = ("trace.unattributed_s", "trace.overhead_s")


def per_layer_units() -> "dict[str, str]":
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in SELF_TIME}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({name: "s" for name in TRACE_METRICS})
    return units


def per_layer_metrics(recorder: Recorder, overhead_s: float) -> "dict[str, float]":
    """Per-layer values per traced operation (0 where a layer never ran)."""
    n_ops = max(len(recorder.operations), 1)
    own = recorder.self_times()
    counters = recorder.counters
    out: "dict[str, float]" = {}
    for metric, span in SELF_TIME.items():
        out[metric] = own.get(span, 0.0) / n_ops
    for metric, counter in COUNTS.items():
        out[metric] = counters[counter] / n_ops
    for metric, (num, den) in RATIOS.items():
        total = sum(counters[c] for c in den)
        out[metric] = sum(counters[c] for c in num) / total if total else 0.0
    out["trace.unattributed_s"] = recorder.unattributed() / n_ops
    out["trace.overhead_s"] = overhead_s
    return out
