"""Tests for repro.utils: RNG management and math helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils import (
    RngFactory,
    as_generator,
    emd_heterogeneity,
    label_histogram,
    pairwise_sq_euclidean,
    softmax,
)


class TestRng:
    def test_as_generator_int(self):
        g = as_generator(42)
        assert isinstance(g, np.random.Generator)

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_as_generator_none(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_factory_named_streams_reproducible(self):
        f1, f2 = RngFactory(3), RngFactory(3)
        assert f1.make("x", 5).random() == f2.make("x", 5).random()

    def test_factory_names_independent(self):
        f = RngFactory(3)
        assert f.make("a").random() != f.make("b").random()

    def test_factory_indices_independent(self):
        f = RngFactory(3)
        assert f.make("a", 0).random() != f.make("a", 1).random()

    def test_factory_seed_matters(self):
        assert RngFactory(0).make("x").random() != RngFactory(1).make("x").random()

    def test_make_many(self):
        f = RngFactory(0)
        gens = f.make_many("client", 3)
        assert len(gens) == 3
        assert gens[1].random() == f.make("client", 1).random()


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(5, 7))
        p = softmax(z, axis=1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_shift_invariant(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 100), atol=1e-12)

    def test_extreme_values_stable(self):
        z = np.array([[1e4, 0.0], [-1e4, 0.0]])
        p = softmax(z, axis=1)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0], [1.0, 0.0], atol=1e-12)


class TestPairwise:
    def test_matches_naive(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        d = pairwise_sq_euclidean(x)
        for i in range(6):
            for j in range(6):
                expected = ((x[i] - x[j]) ** 2).sum()
                assert d[i, j] == pytest.approx(expected, abs=1e-9)

    def test_cross_distances(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        y = np.random.default_rng(2).normal(size=(5, 3))
        d = pairwise_sq_euclidean(x, y)
        assert d.shape == (4, 5)
        assert d[2, 3] == pytest.approx(((x[2] - y[3]) ** 2).sum(), abs=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pairwise_sq_euclidean(np.zeros(3))
        with pytest.raises(ValueError):
            pairwise_sq_euclidean(np.zeros((2, 3)), np.zeros((2, 4)))

    @given(
        x=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(1, 4)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_nonneg_symmetric_zero_diag(self, x):
        d = pairwise_sq_euclidean(x)
        assert (d >= 0).all()
        np.testing.assert_allclose(d, d.T, atol=1e-8)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)


class TestHistograms:
    def test_label_histogram(self):
        h = label_histogram(np.array([0, 0, 1, 2]), 4)
        np.testing.assert_allclose(h, [0.5, 0.25, 0.25, 0.0])

    def test_empty_labels(self):
        h = label_histogram(np.array([], dtype=int), 3)
        np.testing.assert_allclose(h, 0.0)

    def test_emd_iid_is_zero(self):
        h = np.tile([0.25, 0.25, 0.25, 0.25], (5, 1))
        assert emd_heterogeneity(h) == 0.0

    def test_emd_disjoint_is_two(self):
        h = np.eye(2)
        assert emd_heterogeneity(h) == pytest.approx(1.0)  # mean L1 to the average

    def test_emd_validation(self):
        with pytest.raises(ValueError):
            emd_heterogeneity(np.zeros(3))

    def test_emd_orders_regimes(self):
        rng = np.random.default_rng(0)
        mild = rng.dirichlet(np.full(5, 50.0), size=10)
        severe = rng.dirichlet(np.full(5, 0.1), size=10)
        assert emd_heterogeneity(severe) > emd_heterogeneity(mild)
