"""Tests for the comparison methods (ORIG, RAND, IMP, TFC, FCTree)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    FCTree,
    ImportantGenerator,
    OriginalFeatures,
    RandomGenerator,
    TFC,
)
from repro.core import SAFEConfig
from repro.exceptions import ConfigurationError, DataError
from repro.metrics import roc_auc_score
from repro.models import LogisticRegression
from repro.operators import Var


class TestOriginalFeatures:
    def test_identity_transform(self, interaction_data):
        psi = OriginalFeatures().fit(interaction_data)
        out = psi.transform(interaction_data)
        assert np.allclose(out.X, interaction_data.X)
        assert psi.n_output_features == interaction_data.n_cols
        assert all(isinstance(e, Var) for e in psi.expressions)

    def test_name(self):
        assert OriginalFeatures().name == "ORIG"


class TestRandomGenerator:
    def test_generates_and_selects(self, interaction_data):
        psi = RandomGenerator(SAFEConfig(gamma=20)).fit(interaction_data)
        assert 1 <= psi.n_output_features <= 2 * interaction_data.n_cols
        assert psi.metadata["method"] == "RAND"
        assert psi.metadata["n_generated"] > 0

    def test_deterministic_with_seed(self, interaction_data):
        a = RandomGenerator(SAFEConfig(gamma=10, random_state=3)).fit(interaction_data)
        b = RandomGenerator(SAFEConfig(gamma=10, random_state=3)).fit(interaction_data)
        assert a.feature_keys == b.feature_keys

    def test_different_seeds_differ(self, interaction_data):
        a = RandomGenerator(SAFEConfig(gamma=5, random_state=1)).fit(interaction_data)
        b = RandomGenerator(SAFEConfig(gamma=5, random_state=2)).fit(interaction_data)
        # With only 5 of 28 pairs sampled, different seeds should pick
        # different pairs (astronomically unlikely to collide entirely).
        assert a.feature_keys != b.feature_keys

    def test_gamma_larger_than_pool_takes_all(self, rng):
        from repro.tabular import Dataset

        X = rng.normal(size=(300, 3))
        y = (X[:, 0] > 0).astype(float)
        data = Dataset.from_arrays(X, y)
        psi = RandomGenerator(SAFEConfig(gamma=1000)).fit(data)
        assert psi.n_output_features >= 1


class TestImportantGenerator:
    def test_pool_restricted_to_split_features(self, rng):
        from repro.tabular import Dataset

        # Only columns 0 and 1 are informative; 2..7 are noise, so the
        # mining model should rarely split on them.
        X = rng.normal(size=(3000, 8))
        y = ((X[:, 0] + X[:, 1]) > 0).astype(float)
        data = Dataset.from_arrays(X, y)
        gen = ImportantGenerator(SAFEConfig(gamma=50, random_state=0))
        pool = gen._feature_pool(data)
        assert 0 in pool and 1 in pool

    def test_fit_produces_transformer(self, interaction_data):
        psi = ImportantGenerator(SAFEConfig(gamma=20)).fit(interaction_data)
        assert psi.metadata["method"] == "IMP"
        assert psi.n_output_features >= 1


class TestTFC:
    def test_exhaustive_generation_count(self, rng):
        from repro.tabular import Dataset

        X = rng.normal(size=(400, 4))
        y = (X[:, 0] > 0).astype(float)
        data = Dataset.from_arrays(X, y)
        tfc = TFC()
        tfc.fit(data)
        # C(4,2)=6 pairs × (add + mul + 2*sub + 2*div) = 36 candidates.
        assert tfc.n_generated_ == 36

    def test_output_capped_at_2m(self, interaction_data):
        psi = TFC().fit(interaction_data)
        assert psi.n_output_features <= 2 * interaction_data.n_cols

    def test_max_candidates_guard(self, rng):
        from repro.tabular import Dataset

        X = rng.normal(size=(200, 10))
        y = (X[:, 0] > 0).astype(float)
        tfc = TFC(max_candidates=12)
        tfc.fit(Dataset.from_arrays(X, y))
        assert tfc.n_generated_ <= 12 + 6  # guard checked per pair

    def test_improves_on_interaction(self, interaction_data):
        train = interaction_data.take_rows(np.arange(800))
        test = interaction_data.take_rows(np.arange(800, 1200))
        psi = TFC().fit(train)
        tr2, te2 = psi.transform(train), psi.transform(test)
        base = LogisticRegression().fit(train.X, train.y)
        enriched = LogisticRegression().fit(tr2.X, tr2.y)
        auc_orig = roc_auc_score(test.y, base.predict_proba(test.X)[:, 1])
        auc_tfc = roc_auc_score(te2.y, enriched.predict_proba(te2.X)[:, 1])
        assert auc_tfc > auc_orig


class TestFCTree:
    def test_constructs_features(self, interaction_data):
        fct = FCTree(ne=8, max_depth=5, random_state=0)
        psi = fct.fit(interaction_data)
        assert psi.metadata["n_constructed"] == len(fct.constructed_)
        assert psi.n_output_features <= 2 * interaction_data.n_cols

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FCTree(ne=0)
        with pytest.raises(ConfigurationError):
            FCTree(max_depth=0)

    def test_needs_binary_operator(self):
        with pytest.raises(ConfigurationError):
            FCTree(operators=("log",)).fit(_dummy())

    def test_deterministic_with_seed(self, interaction_data):
        a = FCTree(ne=5, random_state=9).fit(interaction_data)
        b = FCTree(ne=5, random_state=9).fit(interaction_data)
        assert a.feature_keys == b.feature_keys

    def test_improves_on_interaction(self, interaction_data):
        train = interaction_data.take_rows(np.arange(800))
        test = interaction_data.take_rows(np.arange(800, 1200))
        psi = FCTree(ne=10, random_state=0).fit(train)
        tr2, te2 = psi.transform(train), psi.transform(test)
        base = LogisticRegression().fit(train.X, train.y)
        enriched = LogisticRegression().fit(tr2.X, tr2.y)
        auc_orig = roc_auc_score(test.y, base.predict_proba(test.X)[:, 1])
        auc_fct = roc_auc_score(te2.y, enriched.predict_proba(te2.X)[:, 1])
        assert auc_fct > auc_orig


def _dummy():
    from repro.tabular import Dataset

    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 2))
    return Dataset.from_arrays(X, (X[:, 0] > 0).astype(float))
