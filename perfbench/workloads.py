"""The benchmark's three workloads: fit_inmem, fit_stream and serve.

Each workload builds its inputs from the workload seed during set-up,
so the program only ever sees generated data. A workload's training
table is fixed, like a benchmark dataset; the seed shuffles its rows
(for ``fit_stream`` within each chunk), and draws the holdout rows and
the serving traffic. Fresh training rows per seed made SAFE select a
different plan per seed, and with it a different amount of work in the
fit and in every request: on five seeds the median single-row latency
spread by 57% (interquartile range over median) and the streamed plan's
AUC by 5%, wider than any usable regression bound. Why each workload
exists:

* ``fit_inmem`` — ``SAFE.fit`` with a validation set and the default
  ``SAFEConfig`` (paper operators, gamma=50, ``n_jobs=1``), 2
  iterations, on a 40-column task (40k train, 20k validation rows).
  This is Algorithm 1 as most users run it: the boosting kernels, the
  IV filter and generation do the work, and ``EvalCache`` reuse across
  iterations is exercised. It stays serial because the in-memory pool
  wrappers measured slower than one process on two cores.
* ``fit_stream`` — ``SAFE.fit(ChunkedDataset)`` on a 10-column task,
  memory-mapped ``.npy`` files with a checksummed manifest,
  ``sketch="merge"``, ``n_jobs=2`` and a fresh ``checkpoint_dir``:
  the paper's scalability path. Quantile sketches, the streaming GBM,
  the shard reducer, chunk verification and stats checkpoints run;
  ``EvalCache`` reuse and the in-memory tree grower are bypassed.
* ``serve`` — a plan fitted during set-up with ``fit_inmem``'s config
  on a smaller sample, served by one ``ServingSession(deadline_ms=50)``.
  A closed loop of one caller sends named-record requests (90% in
  schema order, 10% with shuffled columns, which take the coercion
  path), then 1000-row batches go through the same session. The whole
  set-up is repeated between serving rounds, so set-up and fit times
  spread over the run; no fit layer runs while requests are served.
  Per-request overhead dominates single rows while per-row evaluation
  dominates batches.

The fit workloads also serve their own plan, one serving round after
the warm-up fit and after each timed fit, and the serve workload times
the fits inside its set-ups, so every workload reports every end-to-end
metric. Every time is corrected for the machine's speed by the probes
in ``probe.py``; the wall-clock figures go into the notes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import resource
import statistics
import tempfile
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core import SAFE, SAFEConfig
from repro.datasets.synth import SyntheticTaskSpec, build_task
from repro.metrics.auc import roc_auc_score
from repro.models.linear import LogisticRegression
from repro.serving import ServingSession
from repro.tabular import Dataset
from repro.tabular.io import ChunkedDataset, save_npy
from repro.tabular.preprocess import clean_matrix

import layers
from probe import ARRAYS, INTERPRETER, INTERVAL_S, Probe
from spans import Recorder, install

WORKLOADS = ("fit_inmem", "fit_stream", "serve")

INMEM_TASK = SyntheticTaskSpec(
    n_features=40, n_informative=30, n_interactions=6, n_redundant=6,
    heavy_tail=0.2, correlation=0.3, seed=11,
)
STREAM_TASK = SyntheticTaskSpec(
    n_features=10, n_informative=8, n_interactions=3, n_redundant=1,
    heavy_tail=0.2, correlation=0.3, seed=12,
)
INMEM_CONFIG = SAFEConfig(n_iterations=2)
STREAM_CONFIG = SAFEConfig(n_iterations=2, sketch="merge", n_jobs=2)
DEADLINE_MS = 50.0
SHUFFLED_SHARE = 0.1

#: End-to-end metric -> unit, as BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "fit_peak_mb": "MB",
    "psi_auc": "AUC",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "batch_rows_per_s": "rows/s",
    "success_rate": "ratio",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; the benchmark runs ``FULL``, its tests ``TOY``."""

    inmem_train: int = 40_000
    inmem_valid: int = 20_000
    holdout: int = 200_000
    stream_rows: int = 40_000
    chunk_rows: int = 8_192
    serve_train: int = 8_000
    serve_valid: int = 4_000
    #: Rows that requests are drawn from (a multiple of ``batch_rows``).
    pool: int = 5_000
    #: One serving block: this many single-row requests, then the batches.
    block_requests: int = 100
    block_batches: int = 10
    batch_rows: int = 1_000
    #: Blocks in one serving pass, and passes in one serving round. The
    #: requests of a pass are all distinct, so the p99 requests (a tenth
    #: of them) are many and one seed's draw of them weighs little.
    pass_blocks: int = 40
    round_passes: int = 1
    setup_repeats: int = 5


FULL = Scale()
TOY = Scale(
    inmem_train=800, inmem_valid=400, holdout=400, stream_rows=1_500,
    chunk_rows=256, serve_train=800, serve_valid=400, pool=200,
    block_requests=20, block_batches=2, batch_rows=100, pass_blocks=2,
    round_passes=1, setup_repeats=1,
)


@dataclass
class Result:
    """What one run measured and checked."""

    #: End-to-end metrics (measured with tracing off).
    metrics: "dict[str, float]"
    attempted: int
    failed: int
    #: Check name -> passed.
    checks: "dict[str, bool]"
    digest: str
    notes: "dict[str, object]" = field(default_factory=dict)
    #: Per-layer metrics and the spans behind them, for traced runs.
    layer_metrics: "dict[str, float] | None" = None
    recorder: "Recorder | None" = None

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def plan_digest(plan) -> str:
    """SHA-256 of the plan JSON (the determinism invariant's witness)."""
    text = json.dumps(plan.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Seed of every workload's fixed training table.
TABLE_SEED = 0


def _draw(task, n_rows: int, seed: int, stream: int) -> Dataset:
    """Fresh rows of ``task``; ``stream`` separates draws of one seed."""
    child = np.random.SeedSequence([seed, stream]).generate_state(1)[0]
    return task.sample(n_rows, seed=int(child))


def _table(task, n_rows: int, seed: int, stream: int, block: int) -> Dataset:
    """The workload's fixed training rows, shuffled by ``seed``.

    Rows move only within consecutive ``block``-row runs: the streamed
    fit's merge sketches summarize each chunk, so which rows share a
    chunk decides its plan, while the order inside a chunk does not.
    """
    data = _draw(task, n_rows, TABLE_SEED, stream)
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, 1]))
    order = np.concatenate([
        lo + rng.permutation(min(block, n_rows - lo))
        for lo in range(0, n_rows, block)
    ])
    return Dataset(X=data.X[order], names=data.names, y=data.y[order])


def _psi_auc(plan, train: Dataset, holdout: Dataset) -> "tuple[float, float]":
    """Holdout AUC of a logistic regression on Ψ(X), and on X itself."""
    def auc(transform) -> float:
        model = LogisticRegression().fit(clean_matrix(transform(train.X)), train.y)
        return roc_auc_score(
            holdout.y, model.decision_function(clean_matrix(transform(holdout.X)))
        )

    return auc(plan.transform_matrix), auc(lambda X: X)


def _peak_fit(fit):
    """Run ``fit()`` under tracemalloc; return (its result, peak MB)."""
    tracemalloc.start()
    try:
        out = fit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 1e6


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class Block(NamedTuple):
    """What one serving block measured, and its probe corrections."""

    latencies: np.ndarray
    batch_seconds: float
    batch_rows: int
    #: ``INTERPRETER`` and ``ARRAYS`` corrections from the probes on
    #: either side of the block.
    interpreter: float
    arrays: float

    @property
    def mixed(self) -> float:
        """Correction for work that is part interpreter, part arrays."""
        return math.sqrt(self.interpreter * self.arrays)


@dataclass
class Traffic:
    """A session, one pass of prepared requests, and what they measured."""

    session: ServingSession
    #: ``(named record, expected values)`` per single-row request; each
    #: run of ``block_requests`` of them is one block.
    requests: list
    #: ``(Dataset, expected values)`` per distinct batch; blocks cycle them.
    batches: list
    block_requests: int
    block_batches: int
    blocks: "list[Block]" = field(default_factory=list)
    next_batch: int = 0
    attempted: int = 0
    not_ok: int = 0
    mismatched: int = 0

    def tally(self, response, expected: np.ndarray) -> None:
        """Count a non-ok answer, or an ok one that differs from ``transform``."""
        self.attempted += 1
        if response.status != "ok":
            self.not_ok += 1
        elif response.values.tobytes() != expected.tobytes():
            self.mismatched += 1


def build_traffic(plan, pool: Dataset, seed: int, scale: Scale) -> Traffic:
    """Requests in the form ``repro serve`` sends: named records.

    Every block of ``block_requests`` single-row requests holds the same
    share of shuffled records, so blocks differ only in the state of the
    machine they ran in. Expected answers are
    ``FeatureTransformer.transform`` of the pool.
    """
    reference = plan.transform(pool).X
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    names = pool.names
    n_block = scale.block_requests
    n_shuffled = round(SHUFFLED_SHARE * n_block)
    requests = []
    for _ in range(scale.pass_blocks):
        shuffled = set(rng.choice(n_block, size=n_shuffled, replace=False).tolist())
        for j, i in enumerate(rng.integers(0, pool.n_rows, size=n_block)):
            order = rng.permutation(len(names)) if j in shuffled else range(len(names))
            values = pool.X[i]
            requests.append(({names[k]: values[k] for k in order}, reference[i]))
    batches = [
        (Dataset(X=pool.X[lo : lo + scale.batch_rows], names=names),
         reference[lo : lo + scale.batch_rows])
        for lo in range(0, pool.n_rows, scale.batch_rows)
    ]
    return Traffic(
        session=ServingSession(plan, deadline_ms=DEADLINE_MS),
        requests=requests,
        batches=batches,
        block_requests=n_block,
        block_batches=scale.block_batches,
    )


def _probes() -> "tuple[float, float]":
    return INTERPRETER(), ARRAYS()


def serve_pass(traffic: Traffic) -> None:
    """One closed-loop pass, block by block: single rows, then batches.

    Each answer is checked after its request is timed; with one caller
    the check is think time, never part of a latency. Both probes run
    between blocks, so each block is corrected by the probes on either
    side of it. The probes evict the serving path from the caches, which
    made the first request of a block a tenth of the run's slowest: so
    the request before the block is sent again, untimed, before the
    block starts.
    """
    serve_one = traffic.session.serve_one
    clock = time.perf_counter
    n_block = traffic.block_requests
    before = _probes()
    for lo in range(0, len(traffic.requests), n_block):
        payload, expected = traffic.requests[lo - 1]
        traffic.tally(serve_one(payload), expected)
        latencies = np.empty(n_block)
        for j, (payload, expected) in enumerate(traffic.requests[lo : lo + n_block]):
            t0 = clock()
            response = serve_one(payload)
            latencies[j] = clock() - t0
            traffic.tally(response, expected)
        batch_seconds, batch_rows = 0.0, 0
        for _ in range(traffic.block_batches):
            batch, expected = traffic.batches[traffic.next_batch % len(traffic.batches)]
            traffic.next_batch += 1
            t0 = clock()
            response = serve_one(batch)
            batch_seconds += clock() - t0
            batch_rows += batch.n_rows
            traffic.tally(response, expected)
        after = _probes()
        traffic.blocks.append(Block(
            latencies, batch_seconds, batch_rows,
            INTERPRETER.factor(before[0], after[0]), ARRAYS.factor(before[1], after[1]),
        ))
        before = after


def serve_round(traffic: Traffic, passes: int) -> None:
    """``passes`` serving passes in a row."""
    for _ in range(passes):
        serve_pass(traffic)


def serving_metrics(traffic: Traffic, corrected: bool = True) -> "dict[str, float]":
    """Single-row p50 and p99 and the batch rate over every block of the run.

    Each block's times are multiplied by its probe correction (by 1 with
    ``corrected=False``, which gives the wall-clock figures): the
    single-row latencies for p50 by ``INTERPRETER``'s, those for p99 and
    the batch times by the geometric mean of both probes' (see
    README.md). The percentiles are taken over every single-row latency
    of the run, and the rate over every batch.
    """
    blocks = traffic.blocks

    def pooled(correction) -> np.ndarray:
        return np.concatenate([b.latencies * correction(b) for b in blocks])

    def plain(b: Block) -> float:
        return 1.0

    typical = (lambda b: b.interpreter) if corrected else plain
    mixed = (lambda b: b.mixed) if corrected else plain
    return {
        "serve_p50_ms": float(np.percentile(pooled(typical), 50)) * 1e3,
        "serve_p99_ms": float(np.percentile(pooled(mixed), 99)) * 1e3,
        "batch_rows_per_s": sum(b.batch_rows for b in blocks)
        / sum(b.batch_seconds * mixed(b) for b in blocks),
    }


# ----------------------------------------------------------------------
# Workload bodies
# ----------------------------------------------------------------------
class _Run:
    """Shared bookkeeping of one run: checks, plan digests, the trace."""

    def __init__(self, workload: str, trace: bool) -> None:
        self.workload = workload
        self.checks: "dict[str, bool]" = {}
        self.digests: "set[str]" = set()
        self.fits = 0
        self.recorder = Recorder() if trace else None
        self.missing_hooks: "list[str]" = []

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def record_plan(self, plan) -> None:
        self.fits += 1
        self.digests.add(plan_digest(plan))

    def _traced(self, op, probe: Probe):
        # Spans must not hold probe time, so the probe runs only around
        # a traced operation, not during it.
        rec = self.recorder
        restore, self.missing_hooks = install(layers.HOOKS, rec, self.workload)
        before = probe()
        try:
            with rec.operation():
                value = op()
        finally:
            after = probe()
            restore()
        return value, rec.operations[-1][1] * probe.factor(before, after)

    def measure(self, op, settle, seconds: float, probe: Probe = ARRAYS,
                interval: "float | None" = INTERVAL_S):
        """Time ``op()`` repeatedly for up to ``seconds`` (at least once).

        An operation starts only if the previous one, with its checks,
        would still end by the deadline. ``settle(value, recorder)``
        checks each result outside the timed region. Each operation is
        corrected by ``probe``, sampled every ``interval`` seconds while
        it runs (see :meth:`probe.Probe.timed`). With tracing on,
        untraced and traced operations alternate. Returns ``(wall,
        corrected)`` seconds per untraced operation, and the median
        corrected traced minus untraced time (0 without tracing).
        """
        clock = time.perf_counter
        untraced: "list[tuple[float, float]]" = []
        traced: "list[float]" = []
        deadline = clock() + seconds
        last = 0.0
        while not untraced or clock() + last <= deadline:
            start = clock()
            value, wall, corrected = probe.timed(op, interval)
            untraced.append((wall, corrected))
            settle(value, None)
            if self.recorder is not None:
                value, corrected = self._traced(op, probe)
                traced.append(corrected)
                settle(value, self.recorder)
            last = clock() - start
        if not traced:
            return untraced, 0.0
        return untraced, statistics.median(traced) - statistics.median(
            [corrected for _, corrected in untraced]
        )


class _InMemory:
    """fit_inmem: the in-memory fit with a validation set."""

    config = INMEM_CONFIG

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed, self.scale = seed, scale

    def prepare(self) -> None:
        task = build_task(INMEM_TASK)
        n_train, n_valid = self.scale.inmem_train, self.scale.inmem_valid
        self.train = _table(task, n_train, self.seed, 0, block=n_train)
        self.valid = _table(task, n_valid, self.seed, 1, block=n_valid)
        self.holdout = _draw(task, self.scale.holdout, self.seed, 2)

    def fit(self):
        safe = SAFE(self.config)
        return safe, safe.fit(self.train, self.valid)

    def verify(self, safe, run: _Run, rec: "Recorder | None") -> None:
        """No checks beyond the shared ones."""


#: The warnings ``repro.parallel`` gives when work leaves the process pool.
_POOL_FALLBACK = "process pools are unavailable|parallel .* failed after"


@contextmanager
def shard_watch():
    """Count the shard reducer's retries and pool fall-backs in a block.

    Yields a dict that is complete when the block ends: ``retries`` is
    the number of rounds ``parallel_shard_reduce`` ran after its first
    (each backs off through ``policy_sleep`` first; the in-memory pool
    wrapper's back-offs are not counted), ``fallbacks`` the number of
    warnings of work moved from the pool to the parent process, and
    ``pool_unavailable`` whether the process has given up on pools. The
    two functions are rebound at the ``repro.parallel`` attributes its
    own code calls them through.
    """
    import repro.parallel as parallel

    seen = {"retries": 0, "fallbacks": 0, "pool_unavailable": False}
    depth = [0]
    reduce, sleep = parallel.parallel_shard_reduce, parallel.policy_sleep

    def watched_reduce(*args, **kwargs):
        depth[0] += 1
        try:
            return reduce(*args, **kwargs)
        finally:
            depth[0] -= 1

    def watched_sleep(seconds):
        if depth[0]:
            seen["retries"] += 1
        return sleep(seconds)

    parallel.parallel_shard_reduce, parallel.policy_sleep = watched_reduce, watched_sleep
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.filterwarnings("always", _POOL_FALLBACK, RuntimeWarning)
            yield seen
        seen["fallbacks"] = sum(
            1 for w in caught
            if issubclass(w.category, RuntimeWarning)
            and re.match(_POOL_FALLBACK, str(w.message))
        )
        seen["pool_unavailable"] = bool(parallel._pool_unavailable)
    finally:
        parallel.parallel_shard_reduce, parallel.policy_sleep = reduce, sleep


class _Streamed:
    """fit_stream: the out-of-core fit over manifest-checked .npy files."""

    config = STREAM_CONFIG

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.shards: "dict[str, object]" = {}

    def prepare(self) -> None:
        task = build_task(STREAM_TASK)
        self.train = _table(
            task, self.scale.stream_rows, self.seed, 0, block=self.scale.chunk_rows
        )
        self.holdout = _draw(task, self.scale.holdout, self.seed, 2)
        data_dir = self.workdir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        self.x_path, self.y_path = data_dir / "X.npy", data_dir / "y.npy"
        save_npy(self.train, self.x_path, self.y_path, manifest=True)

    def fit(self):
        data = ChunkedDataset.from_npy(
            self.x_path, self.y_path, chunk_rows=self.scale.chunk_rows,
            manifest=True,
        )
        checkpoints = tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir)
        safe = SAFE(self.config)
        with shard_watch() as self.shards:
            plan = safe.fit(data, checkpoint_dir=checkpoints)
        return safe, plan

    def verify(self, safe, run: _Run, rec: "Recorder | None") -> None:
        report = safe.runtime_report_
        run.check("no_quarantined_chunks", not report.chunks_quarantined)
        run.check("stats_checkpoints_written", report.stats_checkpoints_written > 0)
        run.check("no_shard_retries", self.shards["retries"] == 0)
        run.check(
            "shards_ran_in_the_pool",
            self.shards["fallbacks"] == 0 and not self.shards["pool_unavailable"],
        )
        if rec is not None:
            rec.count("parallel.shard_retries", self.shards["retries"])


def _children_peak_mb() -> float:
    """Largest resident set of any finished child process (pool workers).

    A forked child's count includes the pages it shares with the parent.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1e3


def _timings(setups, fits, traffic: Traffic, corrected: bool) -> "dict[str, float]":
    """Set-up, fit and serving figures from ``(wall, corrected)`` seconds."""
    i = 1 if corrected else 0
    return {
        "setup_s": statistics.median([t[i] for t in setups]),
        "fit_s": statistics.median([t[i] for t in fits]),
        **serving_metrics(traffic, corrected),
    }


def _fit_workload(target, run: _Run, seconds: float) -> Result:
    setups = [ARRAYS.timed(target.prepare)[1:] for _ in range(target.scale.setup_repeats)]

    # The first fit warms the process and is the one memory is traced on
    # (tracemalloc slows a fit by about a third, so it is never timed).
    (safe, plan), peak_mb = _peak_fit(target.fit)
    run.record_plan(plan)
    target.verify(safe, run, None)
    holdout = target.holdout
    pool = Dataset(X=holdout.X[: target.scale.pool], names=holdout.names)
    traffic = build_traffic(plan, pool, target.seed, target.scale)
    serve_round(traffic, target.scale.round_passes)

    def settle(fitted, rec) -> None:
        safe, plan = fitted
        run.record_plan(plan)
        target.verify(safe, run, rec)
        if rec is None:
            # A serving round follows the warm-up fit and every untraced
            # fit, so serving samples spread over the run like the fits.
            serve_round(traffic, target.scale.round_passes)
            return
        for trace in safe.traces_:
            report = trace.selection
            rec.count("selection.candidates", report.n_candidates)
            rec.count("selection.kept_after_iv", len(report.kept_after_iv))
            rec.count(
                "selection.kept_after_redundancy", len(report.kept_after_redundancy)
            )

    fits, overhead = run.measure(target.fit, settle, seconds)
    psi_auc, orig_auc = _psi_auc(plan, target.train, holdout)
    metrics = {
        **_timings(setups, fits, traffic, corrected=True),
        "fit_peak_mb": peak_mb,
        "psi_auc": psi_auc,
    }
    notes = {"wall_clock": _timings(setups, fits, traffic, corrected=False),
             "fit_times_s": fits, "orig_auc": orig_auc,
             "n_features": plan.n_output_features}
    if target.config.n_jobs > 1:
        notes["children_peak_rss_mb"] = _children_peak_mb()
    return _finish(run, metrics, traffic, overhead, notes)


def _serve_workload(seed: int, scale: Scale, run: _Run, seconds: float) -> Result:
    setups, fits = [], []

    def draw():
        task = build_task(INMEM_TASK)
        train = _table(task, scale.serve_train, seed, 0, block=scale.serve_train)
        valid = _table(task, scale.serve_valid, seed, 1, block=scale.serve_valid)
        return train, valid, _draw(task, scale.holdout, seed, 2), _draw(task, scale.pool, seed, 3)

    def set_up():
        """Draw the data, fit the plan, build the session and requests."""
        (train, valid, holdout, pool), *drawn = ARRAYS.timed(draw)
        plan, *fitted = ARRAYS.timed(lambda: SAFE(INMEM_CONFIG).fit(train, valid))
        traffic, *built = ARRAYS.timed(lambda: build_traffic(plan, pool, seed, scale))
        setups.append(tuple(map(sum, zip(drawn, fitted, built))))
        fits.append(tuple(fitted))
        run.record_plan(plan)
        return train, valid, holdout, plan, traffic

    train, valid, holdout, plan, traffic = set_up()
    peak_plan, peak_mb = _peak_fit(lambda: SAFE(INMEM_CONFIG).fit(train, valid))
    run.record_plan(peak_plan)
    psi_auc, orig_auc = _psi_auc(plan, train, holdout)
    # One untimed pass warms the session before anything is measured.
    serve_pass(traffic)
    traffic.blocks.clear()

    def settle(value, rec) -> None:
        # The whole set-up is repeated after every untraced serving
        # round, so set-up and fit times spread over the run like the
        # serving blocks; the session built first keeps serving.
        if rec is None:
            set_up()

    # Serving blocks carry their own probes; one sampled from a signal
    # handler would land inside a request's latency.
    _, overhead = run.measure(
        lambda: serve_round(traffic, scale.round_passes), settle, seconds,
        probe=INTERPRETER, interval=None,
    )
    while len(setups) < scale.setup_repeats:
        set_up()
    metrics = {
        **_timings(setups, fits, traffic, corrected=True),
        "fit_peak_mb": peak_mb,
        "psi_auc": psi_auc,
    }
    notes = {"wall_clock": _timings(setups, fits, traffic, corrected=False),
             "fit_times_s": fits, "orig_auc": orig_auc,
             "n_features": plan.n_output_features}
    return _finish(run, metrics, traffic, overhead, notes)


def _finish(run: _Run, metrics, traffic: Traffic, overhead: float, notes) -> Result:
    run.check("plan_digest_stable", len(run.digests) == 1)
    run.check("serve_matches_transform", traffic.mismatched == 0)
    attempted = run.fits + traffic.attempted
    # A fit that raises aborts the run, so failures here are responses
    # that were not ``ok`` (a missed deadline, an open breaker).
    failed = traffic.not_ok
    metrics["success_rate"] = (attempted - failed) / attempted
    notes["serving_blocks"] = len(traffic.blocks)
    layer_metrics = None
    if run.recorder is not None:
        layer_metrics = layers.per_layer_metrics(run.recorder, overhead)
        notes["hooks_missing"] = run.missing_hooks
    return Result(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        checks=run.checks,
        digest=min(run.digests),
        notes=notes,
        layer_metrics=layer_metrics,
        recorder=run.recorder,
    )


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    scale: Scale = FULL,
) -> Result:
    """Set up, measure and check one workload; see the module docstring."""
    run = _Run(workload, trace)
    if workload == "fit_inmem":
        return _fit_workload(_InMemory(seed, scale), run, seconds)
    if workload == "fit_stream":
        return _fit_workload(_Streamed(seed, scale, workdir), run, seconds)
    if workload == "serve":
        return _serve_workload(seed, scale, run, seconds)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
