"""SAFE: the iterative generation/selection pipeline (Algorithm 1).

Each iteration:

1. train the mining GBM on the current feature set (line 3);
2. form feature combinations from same-path split features (line 4);
3. sort combinations by information gain ratio, keep top γ (line 5);
4. apply the operator set to the surviving combinations (line 6);
5. pool base + generated candidates (line 7);
6. Algorithm 3 — drop low-IV candidates (line 8);
7. Algorithm 4 — drop redundant candidates (line 9);
8. rank the rest by GBM gain and truncate to the output budget (line 10);
9. the survivors become the next iteration's base features (line 11).

The loop is written once, in :meth:`SAFE.fit`. It drives one of two
stage backends (:class:`FitStages`): :class:`InMemoryStages` over a
materialized :class:`~repro.tabular.Dataset`, or
:class:`~repro.core.stream.StreamStages` over a chunked row stream. A
new stage goes into both.

The fitted result is a :class:`FeatureTransformer` (Ψ) whose expressions
are composed over *original* columns, so chained iterations can build
higher-order features while the plan stays directly servable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DataError
from ..operators.engine import EvalCache, evaluate_forest
from ..operators.expressions import Expression, Var
from ..runtime.checkpoint import (
    CheckpointManager,
    config_fingerprint,
    schema_fingerprint,
)
from ..runtime.failpoints import failpoint
from ..runtime.report import QuarantineRecord, RuntimeReport
from ..tabular.dataset import Dataset
from ..tabular.io import ChunkedDataset
from ..tabular.preprocess import clean_matrix
from ..utils import Timer
from .config import SAFEConfig
from .generation import (
    combinations_from_paths,
    fit_mining_model,
    generate_features,
    rank_combinations,
)
from .interface import AutoFeatureEngineer
from .selection import SelectionReport, select_features
from .transform import FeatureTransformer


@dataclass(frozen=True)
class IterationTrace:
    """Diagnostics recorded for one Algorithm 1 iteration.

    ``selection`` is ``None`` on traces restored from a checkpoint (only
    the scalar counters are persisted); live iterations always carry the
    full :class:`SelectionReport`.
    """

    iteration: int
    n_paths: int
    n_combinations: int
    n_generated: int
    n_candidates: int
    selection: "SelectionReport | None"
    elapsed_seconds: float
    n_quarantined: int = 0


def _trace_scalars(trace: IterationTrace) -> dict:
    """The checkpoint-persisted (JSON-scalar) subset of one trace."""
    return {
        "iteration": trace.iteration,
        "n_paths": trace.n_paths,
        "n_combinations": trace.n_combinations,
        "n_generated": trace.n_generated,
        "n_candidates": trace.n_candidates,
        "elapsed_seconds": trace.elapsed_seconds,
        "n_quarantined": trace.n_quarantined,
    }


def _trace_from_scalars(payload: dict) -> IterationTrace:
    """Rebuild a (selection-less) trace from checkpointed scalars."""
    return IterationTrace(
        iteration=int(payload.get("iteration", 0)),
        n_paths=int(payload.get("n_paths", 0)),
        n_combinations=int(payload.get("n_combinations", 0)),
        n_generated=int(payload.get("n_generated", 0)),
        n_candidates=int(payload.get("n_candidates", 0)),
        selection=None,
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        n_quarantined=int(payload.get("n_quarantined", 0)),
    )


class FitStages:
    """An Algorithm-1 stage backend driven by :meth:`SAFE.fit`.

    The constructor validates the backend's input. Each iteration the
    loop calls ``begin(iteration, expressions)``, then ``mine()`` (the
    fitted mining GBM), ``rank(combos)``, ``generate(ranked, expressions,
    existing_keys, quarantine)`` and ``select(candidates, max_output)``
    (a :class:`SelectionReport`). The hooks below are no-ops by default.
    """

    def start(self, report: RuntimeReport, directory, fingerprint: str) -> None:
        """Called once before the loop; ``directory`` is the checkpoint
        directory, or ``None`` without checkpointing."""

    def retain(self, expressions: "list[Expression]") -> None:
        """Called with the survivors of each completed iteration."""

    def checkpointed(self) -> None:
        """Called once the iteration's survivors are durable on disk."""

    def finish(self) -> None:
        """Called once after the loop."""


class InMemoryStages(FitStages):
    """The stages over a materialized :class:`Dataset`.

    One :class:`EvalCache` over the original matrix computes every
    expression column once and reuses it across iterations (the matrix
    never changes), so each iteration's feature matrix is rebuilt from
    the cache. Stateful operators fit on full columns, and
    ``config.n_jobs`` fans ranking, generation and the IV filter out to
    worker processes.
    """

    def __init__(self, train: Dataset, valid: "Dataset | None", cfg: SAFEConfig):
        self.y = train.require_labels()
        if np.unique(self.y).size < 2:
            raise DataError("SAFE.fit requires both classes in the training labels")
        if valid is not None and valid.n_cols != train.n_cols:
            raise DataError(
                f"validation set has {valid.n_cols} columns, "
                f"training set has {train.n_cols}"
            )
        self.cfg = cfg
        self.cache = EvalCache(train.X)
        self.X_fit: "np.ndarray | None" = None

    def begin(self, iteration: int, expressions: "list[Expression]") -> None:
        # evaluate_forest fills a freshly allocated block (cached columns
        # are copied into it), so in-place sanitation is safe.
        self.X_fit = clean_matrix(
            evaluate_forest(expressions, cache=self.cache), copy=False
        )

    def mine(self):
        cfg = self.cfg
        return fit_mining_model(
            self.X_fit,
            self.y,
            n_estimators=cfg.mining_n_estimators,
            max_depth=cfg.mining_max_depth,
            learning_rate=cfg.mining_learning_rate,
            random_state=cfg.random_state,
        )

    def rank(self, combos):
        return rank_combinations(
            self.X_fit, self.y, combos, gamma=self.cfg.gamma, n_jobs=self.cfg.n_jobs
        )

    def generate(self, ranked, expressions, existing_keys, quarantine):
        return generate_features(
            ranked,
            self.cfg.operators,
            expressions,
            self.cache.X,
            existing_keys=existing_keys,
            cache=self.cache,
            n_jobs=self.cfg.n_jobs,
            quarantine=quarantine,
        )

    def select(self, candidates, max_output) -> SelectionReport:
        cfg = self.cfg
        self.X_fit = None  # the mining matrix is not needed past ranking
        X_cand = clean_matrix(
            evaluate_forest(candidates, cache=self.cache), copy=False
        )
        return select_features(
            X_cand,
            self.y,
            alpha=cfg.iv_threshold,
            iv_bins=cfg.iv_bins,
            theta=cfg.pearson_threshold,
            ranking_n_estimators=cfg.ranking_n_estimators,
            ranking_max_depth=cfg.ranking_max_depth,
            max_output=max_output,
            random_state=cfg.random_state,
            n_jobs=cfg.n_jobs,
        )

    def retain(self, expressions: "list[Expression]") -> None:
        # Bound cache memory: keep only subtrees the survivors reuse.
        self.cache.retain(expressions)


@dataclass
class SAFE(AutoFeatureEngineer):
    """Scalable Automatic Feature Engineering (the paper's method).

    >>> safe = SAFE(SAFEConfig(n_iterations=1))
    >>> transformer = safe.fit(train, valid)
    >>> train_new = transformer.transform(train)
    """

    config: SAFEConfig = field(default_factory=SAFEConfig)
    name: str = "SAFE"

    #: Per-iteration diagnostics populated by :meth:`fit`.
    traces_: list = field(default_factory=list, repr=False)
    #: Fault/degradation bookkeeping of the last :meth:`fit` run.
    runtime_report_: RuntimeReport = field(default_factory=RuntimeReport, repr=False)

    def fit(
        self,
        train: "Dataset | ChunkedDataset",
        valid: "Dataset | None" = None,
        checkpoint_dir: "str | None" = None,
    ) -> FeatureTransformer:
        """Run Algorithm 1; see the module docstring for the stages.

        This is the one iteration loop. It drives :class:`InMemoryStages`
        for a :class:`~repro.tabular.Dataset`, or, for a
        :class:`~repro.tabular.ChunkedDataset`,
        :class:`~repro.core.stream.StreamStages`, which streams the rows
        chunk-at-a-time at O(chunk + state) memory, with ``config.sketch``
        choosing between bounded-memory approximate quantile edges and
        the bit-identical exact mode. The streamed backend accepts only
        ``valid=None`` and row-wise stateless operators.

        ``valid`` is schema-checked only: a column count that differs
        from ``train`` raises :class:`~repro.exceptions.DataError`. No
        internal GBM early-stops, so validation rows cannot change Ψ.

        ``checkpoint_dir`` enables fault tolerance across process death:
        after every completed iteration the survivor expressions and
        trace scalars are atomically persisted there, and a *restarted*
        fit pointed at the same directory resumes from the newest valid
        checkpoint whose config/schema fingerprint matches this fit —
        producing the same Ψ as an uninterrupted run (iterations are
        deterministic functions of the restored expressions, the data,
        and the seed). Corrupt or mismatched checkpoints are skipped
        (recorded on :attr:`runtime_report_`), never trusted.
        """
        cfg = self.config
        if isinstance(train, ChunkedDataset):
            from .stream import StreamStages

            stages: FitStages = StreamStages(train, valid, cfg)
        else:
            stages = InMemoryStages(train, valid, cfg)

        max_output = cfg.max_output_features
        if max_output is None:
            max_output = 2 * train.n_cols  # the paper's 2M budget

        expressions: list[Expression] = [Var(i) for i in range(train.n_cols)]
        timer = Timer()
        self.traces_ = []
        runtime_report = RuntimeReport()
        self.runtime_report_ = runtime_report
        fingerprint = config_fingerprint(cfg, train.names)
        start_iteration = 0
        manager: "CheckpointManager | None" = None
        if checkpoint_dir is not None:
            manager = CheckpointManager(checkpoint_dir)
            state, skipped = manager.latest(expected_config_hash=fingerprint)
            runtime_report.checkpoints_skipped.extend(skipped)
            if state is not None:
                # Resume: the survivors become the working feature set;
                # the backend re-derives their columns, which are
                # deterministic functions of the expressions and the data.
                expressions = list(state.expressions)
                start_iteration = state.iteration + 1
                runtime_report.resumed_from_iteration = state.iteration
                self.traces_ = [_trace_from_scalars(t) for t in state.traces]
        stages.start(
            runtime_report,
            None if manager is None else manager.directory,
            fingerprint,
        )
        for iteration in range(start_iteration, cfg.n_iterations):
            if (
                cfg.time_budget_seconds is not None
                and timer.elapsed() >= cfg.time_budget_seconds
            ):
                break
            iter_timer = Timer()
            stages.begin(iteration, expressions)

            # -- Generation (lines 3-6) ---------------------------------
            paths = stages.mine().paths()
            combos = combinations_from_paths(
                paths, max_size=cfg.max_combination_size
            )
            ranked = stages.rank(combos)
            quarantined: "list[QuarantineRecord] | None" = (
                [] if cfg.on_operator_error == "quarantine" else None
            )
            new_exprs = stages.generate(
                ranked, expressions, {e.key for e in expressions}, quarantined
            )
            if quarantined:
                runtime_report.record_quarantine(iteration, quarantined)
            if not new_exprs and iteration > 0:
                break  # nothing new to add; feature set has stabilized

            # -- Candidate pool (line 7) --------------------------------
            if cfg.keep_originals or not new_exprs:
                candidates = list(expressions) + new_exprs
            else:
                candidates = new_exprs

            # -- Selection (lines 8-10) ---------------------------------
            report = stages.select(candidates, max_output)
            chosen = list(report.final_order)
            if not chosen:
                break
            expressions = [candidates[i] for i in chosen]
            stages.retain(expressions)
            self.traces_.append(
                IterationTrace(
                    iteration=iteration,
                    n_paths=len(paths),
                    n_combinations=len(combos),
                    n_generated=len(new_exprs),
                    n_candidates=len(candidates),
                    selection=report,
                    elapsed_seconds=iter_timer.elapsed(),
                    n_quarantined=len(quarantined) if quarantined else 0,
                )
            )
            if manager is not None:
                manager.save(
                    iteration,
                    expressions,
                    fingerprint,
                    traces=[_trace_scalars(t) for t in self.traces_],
                )
                runtime_report.checkpoints_written += 1
                stages.checkpointed()
            # Chaos hook: lets tests kill the fit between iterations (after
            # the checkpoint landed) and assert a clean resume.
            failpoint("pipeline.iteration")

        stages.finish()
        return FeatureTransformer(
            expressions=tuple(expressions),
            original_names=train.names,
            metadata={
                "method": self.name,
                "n_iterations_run": len(self.traces_),
                "operators": list(cfg.operators),
                "schema_hash": schema_fingerprint(train.names),
                "config_hash": fingerprint,
            },
        )
