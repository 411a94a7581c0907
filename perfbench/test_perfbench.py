"""Tests of the benchmark itself: smoke runs, span arithmetic, metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import layers
import probe
import workloads
from spans import Hook, Recorder, install

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    """A clock that reads the times it is given."""

    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One toy-size traced run of every workload, shared by the tests."""
    return {
        name: workloads.run_workload(
            name, seed=3, seconds=0.0, trace=True,
            workdir=tmp_path_factory.mktemp(name), scale=workloads.TOY,
        )
        for name in workloads.WORKLOADS
    }


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    # op [0, 10]: a [1, 7] holds b [2, 3] and c [4, 6]; d [8, 9].
    rec = Recorder(clock=FakeClock(0, 1, 2, 3, 4, 6, 7, 8, 9, 10))
    b = rec.wrap("b", lambda: None)
    c = rec.wrap("c", lambda: None)
    a = rec.wrap("a", lambda: (b(), c()))
    d = rec.wrap("d", lambda: None)
    with rec.operation():
        a()
        d()
    assert rec.self_times() == {"b": 1.0, "c": 2.0, "a": 3.0, "d": 1.0}
    assert rec.unattributed() == 10.0 - 6.0 - 1.0
    assert list(rec.parent) == [-1, 0, 0, -1]
    assert list(rec.run) == [0, 0, 0, 0]


def test_recursive_spans_of_one_name_count_each_level_once():
    # op [0, 10]: column [1, 6] holds column [2, 5].
    rec = Recorder(clock=FakeClock(0, 1, 2, 5, 6, 10))

    def column(depth):
        return traced_column(depth - 1) if depth else None

    traced_column = rec.wrap("column", column)
    with rec.operation():
        traced_column(1)
    assert rec.self_times() == {"column": 5.0}
    assert rec.unattributed() == 10.0 - 5.0


def test_wrapped_generator_times_each_next_and_counts_items():
    def numbers():
        yield 1
        yield 2

    rec = Recorder()
    wrapped = rec.wrap_generator("read", numbers, counter="items")
    with rec.operation():
        assert list(wrapped()) == [1, 2]
    # Two items plus the final, empty, next().
    assert len(rec.start) == 3
    assert rec.counters["items"] == 2


def test_install_restores_every_original():
    import repro.boosting.gbm as gbm
    import repro.core.pipeline as pipeline

    before = (pipeline.fit_mining_model, vars(gbm.GradientBoostingClassifier)["fit"])
    restore, missing = install(layers.HOOKS, Recorder(), "fit_inmem")
    assert missing == []
    assert pipeline.fit_mining_model is not before[0]
    restore()
    after = (pipeline.fit_mining_model, vars(gbm.GradientBoostingClassifier)["fit"])
    assert after == before


def test_missing_hook_target_is_reported_not_fatal():
    hooks = (Hook("repro.core.pipeline", "no_such_function", "x"),)
    restore, missing = install(hooks, Recorder(), "fit_inmem")
    restore()
    assert missing == ["repro.core.pipeline:no_such_function"]


@pytest.mark.parametrize(
    "workload, gbm_span",
    [("fit_inmem", "boosting.gbm"), ("fit_stream", "boosting.stream.fit_gbm_streaming")],
)
def test_boosting_kernels_nest_under_their_gbm(traced, workload, gbm_span):
    rec = traced[workload].recorder
    a = rec.arrays()
    names = [rec.names[i] for i in a["name_id"]]

    def ancestors(i):
        while a["parent"][i] >= 0:
            i = a["parent"][i]
            yield names[i]

    kernels = [
        i for i, name in enumerate(names)
        if name in ("boosting.level_histogram_partial", "boosting.level_split_search")
    ]
    assert kernels
    assert all(gbm_span in set(ancestors(i)) for i in kernels)
    own = rec.self_times()
    assert own[gbm_span] >= 0.0
    # Self times partition the top-level spans' time.
    top = a["parent"] < 0
    covered = float((a["end"][top] - a["start"][top]).sum())
    assert math.isclose(sum(own.values()), covered, rel_tol=1e-9)


# ----------------------------------------------------------------------
# Shard watch and serving figures
# ----------------------------------------------------------------------
def test_shard_watch_counts_only_retry_rounds_of_the_shard_reducer():
    import warnings

    import repro.parallel as parallel
    from repro.exceptions import InjectedFault
    from repro.runtime.retry import RetryPolicy

    failed = []

    def flaky(payload):
        if payload == 1 and not failed:
            failed.append(payload)
            raise InjectedFault("lost shard")
        return payload

    previous = parallel._retry_policy
    parallel.set_retry_policy(RetryPolicy(base_delay=1e-4, jitter=0.0))
    originals = (parallel.parallel_shard_reduce, parallel.policy_sleep)
    try:
        with workloads.shard_watch() as seen:
            parallel.policy_sleep(0.0)
            total = parallel.parallel_shard_reduce(
                flaky, [0, 1, 2], [(0, 1), (1, 2), (2, 3)], lambda a, b: a + b,
                n_jobs=1, label="test",
            )
            warnings.warn("divide by zero encountered", RuntimeWarning)
            warnings.warn("parallel test failed after 3 attempt(s) (x); falling "
                          "back to serial in-process execution", RuntimeWarning)
    finally:
        parallel.set_retry_policy(previous)
    assert total == 3
    assert seen["retries"] == 1
    assert seen["fallbacks"] == 1
    assert (parallel.parallel_shard_reduce, parallel.policy_sleep) == originals


def test_serving_figures_pool_every_block_corrected_by_its_probe():
    lat = np.array([1.0] * 98 + [3.0, 3.0]) * 1e-3
    # The same block twice, the second in a state where everything, the
    # probes too, ran twice as slow.
    blocks = [
        workloads.Block(lat, 1.0, 4_000, interpreter=1.0, arrays=1.0),
        workloads.Block(lat * 2, 2.0, 4_000, interpreter=0.5, arrays=0.5),
    ]
    traffic = workloads.Traffic(
        session=None, requests=[], batches=[], block_requests=100,
        block_batches=4, blocks=blocks,
    )
    figures = workloads.serving_metrics(traffic)
    assert figures["serve_p50_ms"] == pytest.approx(1.0)
    assert figures["serve_p99_ms"] == pytest.approx(3.0)
    assert figures["batch_rows_per_s"] == pytest.approx(4_000.0)
    wall = workloads.serving_metrics(traffic, corrected=False)
    assert wall["serve_p50_ms"] == pytest.approx(2.0)
    assert wall["batch_rows_per_s"] == pytest.approx(8_000 / 3)


def test_tail_and_batches_are_corrected_by_both_probes():
    lat = np.array([1.0] * 98 + [3.0, 3.0]) * 1e-3
    block = workloads.Block(lat, 1.0, 4_000, interpreter=0.5, arrays=0.8)
    traffic = workloads.Traffic(
        session=None, requests=[], batches=[], block_requests=100,
        block_batches=4, blocks=[block],
    )
    figures = workloads.serving_metrics(traffic)
    assert figures["serve_p50_ms"] == pytest.approx(0.5)
    assert figures["serve_p99_ms"] == pytest.approx(3.0 * math.sqrt(0.4))
    assert figures["batch_rows_per_s"] == pytest.approx(4_000 / math.sqrt(0.4))


def test_probe_correction_divides_out_the_machine_speed():
    ref = 0.01
    slow = probe.Probe(loop=lambda: time.sleep(2 * ref), reference_s=ref)
    assert slow.factor(ref, ref) == pytest.approx(1.0)
    assert slow.factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    # Half the time in a state three times slower: each half at its rate.
    assert slow.factor(ref, 3 * ref) == pytest.approx((1 + 1 / 3) / 2)
    value, wall, corrected = slow.timed(lambda: "done", interval=None)
    assert value == "done"
    assert corrected == pytest.approx(wall / 2, rel=0.2)


def test_timed_samples_the_probe_during_the_operation():
    calls = []
    slow = probe.Probe(loop=lambda: (calls.append(1), time.sleep(0.01)), reference_s=0.005)

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    _, wall, corrected = slow.timed(busy, interval=0.05)
    during = len(calls) - 2
    assert during >= 3
    # The handler's sleeps are taken out of the operation's wall time.
    assert wall == pytest.approx(0.3 - during * 0.01, abs=0.01)
    assert corrected == pytest.approx(wall / 2, rel=0.2)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


@pytest.mark.parametrize("which", [probe.INTERPRETER, probe.ARRAYS])
def test_probe_is_a_few_milliseconds(which):
    assert 1e-4 < min(which() for _ in range(5)) < 0.1


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_is_correct_and_reports_every_metric(traced, workload):
    result = traced[workload]
    assert result.correct, result.checks
    assert result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == set(workloads.END_TO_END_UNITS)
    assert all(v > 0 and math.isfinite(v) for v in result.metrics.values())
    assert set(result.layer_metrics) == set(layers.per_layer_units())
    assert all(math.isfinite(v) for v in result.layer_metrics.values())
    assert result.notes["hooks_missing"] == []


def test_each_workload_runs_its_own_layers(traced):
    inmem = traced["fit_inmem"].layer_metrics
    stream = traced["fit_stream"].layer_metrics
    serve = traced["serve"].layer_metrics
    assert inmem["core.selection.filter_by_information_value_s"] > 0
    assert 0 < inmem["core.selection.iv_keep_ratio"] <= 1
    assert inmem["boosting.histogram_calls"] > 0
    assert inmem["tabular.io.chunks_read"] == 0
    assert stream["tabular.io.chunks_read"] > 0
    assert stream["tabular.binning.streamed_quantile_edges_s"] > 0
    assert stream["runtime.checkpoint.save_s"] > 0
    assert stream["boosting.histogram_calls"] > 0
    assert serve["serving.validator.admit_s"] > 0
    assert 0 < serve["serving.validator.coerced_ratio"] < 1
    assert serve["boosting.histogram_calls"] == 0
    assert serve["boosting.level_histogram_partial_s"] == 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert {n: m["unit"] for n, m in end_to_end.items()} == workloads.END_TO_END_UNITS
    assert {n: m["unit"] for n, m in per_layer.items()} == layers.per_layer_units()
    names = list(end_to_end) + list(per_layer) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry["unit"]
        assert entry["better"] in ("lower", "higher")
    bounds = {n: m["bound"] for n, m in end_to_end.items()}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert end_to_end["setup_s"]["unit"] == "s"
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == ["perfbench"]
