"""Tests for the full SAFE pipeline (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SAFE, SAFEConfig
from repro.exceptions import DataError
from repro.metrics import roc_auc_score
from repro.models import LogisticRegression
from repro.tabular import Dataset


class TestFit:
    def test_finds_planted_interaction(self, interaction_data):
        safe = SAFE(SAFEConfig(gamma=30))
        psi = safe.fit(interaction_data)
        keys = set(psi.feature_keys)
        assert "(x0 * x1)" in keys or "(x1 * x0)" in keys

    def test_improves_linear_model(self, interaction_data):
        train = interaction_data.take_rows(np.arange(800))
        test = interaction_data.take_rows(np.arange(800, 1200))
        psi = SAFE(SAFEConfig(gamma=30)).fit(train)
        base = LogisticRegression().fit(train.X, train.y)
        auc_orig = roc_auc_score(test.y, base.predict_proba(test.X)[:, 1])
        tr2, te2 = psi.transform(train), psi.transform(test)
        enriched = LogisticRegression().fit(tr2.X, tr2.require_labels())
        auc_safe = roc_auc_score(te2.y, enriched.predict_proba(te2.X)[:, 1])
        assert auc_safe > auc_orig + 0.1

    def test_output_budget_is_2m_by_default(self, interaction_data):
        psi = SAFE(SAFEConfig(gamma=30)).fit(interaction_data)
        assert psi.n_output_features <= 2 * interaction_data.n_cols

    def test_explicit_output_budget(self, interaction_data):
        psi = SAFE(SAFEConfig(gamma=30, max_output_features=5)).fit(interaction_data)
        assert psi.n_output_features <= 5

    def test_requires_labels(self, interaction_data):
        with pytest.raises(DataError):
            SAFE().fit(interaction_data.without_labels())

    def test_requires_both_classes(self, rng):
        data = Dataset.from_arrays(rng.normal(size=(50, 3)), np.ones(50))
        with pytest.raises(DataError):
            SAFE().fit(data)

    def test_deterministic_given_seed(self, interaction_data):
        a = SAFE(SAFEConfig(gamma=20, random_state=5)).fit(interaction_data)
        b = SAFE(SAFEConfig(gamma=20, random_state=5)).fit(interaction_data)
        assert a.feature_keys == b.feature_keys

    def test_validation_set_is_schema_checked_only(self, interaction_data):
        # No internal GBM early-stops, so validation rows cannot change Ψ;
        # only a column count that differs from train is an error.
        train = interaction_data.take_rows(np.arange(800))
        valid = interaction_data.take_rows(np.arange(800, 1000))
        cfg = SAFEConfig(gamma=20, n_iterations=2)
        with_valid, without = SAFE(cfg), SAFE(cfg)
        psi_valid = with_valid.fit(train, valid)
        psi = without.fit(train)
        assert psi_valid.to_dict() == psi.to_dict()
        assert [t.selection for t in with_valid.traces_] == [
            t.selection for t in without.traces_
        ]
        narrow = Dataset(X=valid.X[:, 1:], y=valid.y, names=valid.names[1:])
        with pytest.raises(DataError):
            SAFE(cfg).fit(train, narrow)


class TestTraces:
    def test_trace_recorded_per_iteration(self, interaction_data):
        safe = SAFE(SAFEConfig(gamma=20, n_iterations=2))
        safe.fit(interaction_data)
        assert 1 <= len(safe.traces_) <= 2
        t = safe.traces_[0]
        assert t.n_paths > 0
        assert t.n_combinations > 0
        assert t.n_candidates >= t.n_generated
        assert t.elapsed_seconds > 0

    def test_time_budget_limits_iterations(self, interaction_data):
        safe = SAFE(SAFEConfig(gamma=20, n_iterations=50, time_budget_seconds=1e-9))
        psi = safe.fit(interaction_data)
        # Budget exhausted before the first iteration: identity transform.
        assert len(safe.traces_) == 0
        assert psi.n_output_features == interaction_data.n_cols


class TestIterations:
    def test_second_iteration_composes_features(self, rng):
        # Target needs a depth-2 expression: (x0*x1) + (x2*x3).
        X = rng.normal(size=(3000, 6))
        target = X[:, 0] * X[:, 1] + X[:, 2] * X[:, 3]
        y = (target + 0.2 * rng.normal(size=3000) > 0).astype(float)
        data = Dataset.from_arrays(X, y)
        safe = SAFE(SAFEConfig(gamma=30, n_iterations=2))
        psi = safe.fit(data)
        assert any(e.depth() >= 2 for e in psi.expressions)

    def test_metadata_reports_iterations(self, interaction_data):
        safe = SAFE(SAFEConfig(gamma=20, n_iterations=3))
        psi = safe.fit(interaction_data)
        assert psi.metadata["n_iterations_run"] == len(safe.traces_)
        assert psi.metadata["method"] == "SAFE"
        assert psi.metadata["operators"] == ["add", "sub", "mul", "div"]


class TestTransformerOutput:
    def test_transform_roundtrip(self, interaction_data):
        psi = SAFE(SAFEConfig(gamma=20)).fit(interaction_data)
        out = psi.transform(interaction_data)
        assert out.n_rows == interaction_data.n_rows
        assert out.n_cols == psi.n_output_features
        assert out.y is not None

    def test_single_row_inference(self, interaction_data):
        psi = SAFE(SAFEConfig(gamma=20)).fit(interaction_data)
        row = psi.transform_matrix(interaction_data.X[0])
        assert row.shape == (psi.n_output_features,)

    def test_serialization_roundtrip(self, interaction_data, tmp_path):
        from repro.core import FeatureTransformer

        psi = SAFE(SAFEConfig(gamma=20)).fit(interaction_data)
        path = tmp_path / "plan.json"
        psi.save(path)
        back = FeatureTransformer.load(path)
        assert back.feature_keys == psi.feature_keys
        assert np.allclose(
            back.transform_matrix(interaction_data.X),
            psi.transform_matrix(interaction_data.X),
        )

    def test_keep_originals_false_still_works(self, interaction_data):
        cfg = SAFEConfig(gamma=20, keep_originals=False)
        psi = SAFE(cfg).fit(interaction_data)
        assert psi.n_output_features >= 1
