"""Tests for synthetic data generation, partitioners, and federated containers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DATASET_SPECS,
    build_federated_dataset,
    dirichlet_partition,
    grouped_label_partition,
    iid_partition,
    label_skew_partition,
    make_dataset,
    make_partition,
    make_prototypes,
    quantity_skew_partition,
    sample_class_images,
    smooth_field,
)
from repro.utils.maths import label_histogram


class TestSynthetic:
    def test_smooth_field_shape_and_smoothness(self):
        rng = np.random.default_rng(0)
        f = smooth_field(rng, (3, 16, 16), coarse=3)
        assert f.shape == (3, 16, 16)
        # Smooth: adjacent-pixel diffs much smaller than white noise's.
        d = np.abs(np.diff(f, axis=2)).mean()
        white = np.abs(np.diff(rng.normal(size=(3, 16, 16)), axis=2)).mean()
        assert d < white / 2

    def test_prototypes_are_normalized(self):
        protos = make_prototypes(5, (3, 8, 8), rng=0, class_sep=2.0)
        energy = np.sqrt((protos**2).mean(axis=(1, 2, 3)))
        np.testing.assert_allclose(energy, 2.0, rtol=1e-4)

    def test_sample_labels_out_of_range(self):
        protos = make_prototypes(3, (1, 8, 8), rng=0)
        with pytest.raises(ValueError):
            sample_class_images(protos, np.array([0, 3]), rng=0)

    @pytest.mark.parametrize("arg", ["noise", "lowfreq_noise"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_invalid_noise_scale_raises(self, arg, value):
        with pytest.raises(ValueError, match=f"^{arg} must be"):
            make_dataset("cifar10", n_samples=100, size=8, **{arg: value})

    def test_zero_noise_scales_leave_the_prototypes(self):
        protos = make_prototypes(3, (2, 8, 8), rng=0)
        labels = np.array([2, 0, 1, 2])
        x = sample_class_images(protos, labels, rng=0, noise=0.0, lowfreq_noise=0.0)
        np.testing.assert_array_equal(x, protos[labels])

    @pytest.mark.parametrize(
        "labels", [np.array([0.7, 1.2]), np.array([0.0, 1.0]), np.array([True, False])]
    )
    def test_non_integer_labels_raise(self, labels):
        protos = make_prototypes(3, (1, 8, 8), rng=0)
        with pytest.raises(ValueError, match="labels must be integers"):
            sample_class_images(protos, labels, rng=0)

    def test_samples_cluster_around_prototypes(self):
        protos = make_prototypes(2, (1, 8, 8), rng=0, class_sep=5.0)
        labels = np.array([0] * 50 + [1] * 50)
        x = sample_class_images(protos, labels, rng=1, noise=0.3, lowfreq_noise=0.1)
        mean0 = x[:50].mean(axis=0)
        mean1 = x[50:].mean(axis=0)
        assert np.linalg.norm(mean0 - protos[0]) < np.linalg.norm(mean0 - protos[1])
        assert np.linalg.norm(mean1 - protos[1]) < np.linalg.norm(mean1 - protos[0])


class TestDatasetRegistry:
    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    def test_make_dataset_spec_conformance(self, name):
        ds = make_dataset(name, seed=0, n_samples=300)
        spec = DATASET_SPECS[name]
        assert ds.num_classes == spec.num_classes
        assert ds.input_shape == (spec.channels, spec.size, spec.size)
        assert len(ds) == 300
        # standardized
        assert abs(float(ds.x.mean())) < 1e-3
        assert abs(float(ds.x.std()) - 1.0) < 1e-3

    def test_balanced_label_marginal(self):
        ds = make_dataset("cifar10", seed=0, n_samples=1000)
        hist = label_histogram(ds.y, 10)
        np.testing.assert_allclose(hist, 0.1, atol=1e-3)

    def test_reproducible(self):
        a = make_dataset("fmnist", seed=7, n_samples=200)
        b = make_dataset("fmnist", seed=7, n_samples=200)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        a = make_dataset("fmnist", seed=7, n_samples=200)
        b = make_dataset("fmnist", seed=8, n_samples=200)
        assert not np.array_equal(a.x, b.x)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            make_dataset("imagenet")

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            make_dataset("cifar100", n_samples=50)

    def test_subset(self):
        ds = make_dataset("svhn", seed=0, n_samples=100)
        sub = ds.subset(np.arange(10))
        assert len(sub) == 10
        np.testing.assert_array_equal(sub.y, ds.y[:10])


class TestPartitioners:
    @pytest.fixture
    def labels(self):
        return np.random.default_rng(0).integers(0, 10, size=1000)

    def test_iid_covers_everything(self, labels):
        p = iid_partition(labels, 10, rng=0)
        p.validate_disjoint(labels.size)
        assert p.sizes().sum() == labels.size
        assert p.sizes().min() >= 90

    def test_iid_is_roughly_balanced_in_labels(self, labels):
        p = iid_partition(labels, 5, rng=0)
        for ix in p.client_indices:
            hist = label_histogram(labels[ix], 10)
            assert hist.max() < 0.25  # near-uniform

    def test_label_skew_respects_label_sets(self, labels):
        p = label_skew_partition(labels, 10, frac_labels=0.2, rng=0)
        p.validate_disjoint(labels.size)
        assert p.client_label_sets is not None
        for ix, label_set in zip(p.client_indices, p.client_label_sets):
            observed = set(int(v) for v in np.unique(labels[ix]))
            assert observed <= label_set

    def test_label_skew_all_samples_assigned(self, labels):
        p = label_skew_partition(labels, 10, frac_labels=0.3, rng=1)
        assert p.sizes().sum() == labels.size

    def test_label_skew_set_size(self, labels):
        p = label_skew_partition(labels, 10, frac_labels=0.2, rng=0)
        # 20% of 10 classes = 2 labels per client (orphan repair may add one)
        for s in p.client_label_sets:
            assert 2 <= len(s) <= 3

    def test_label_skew_invalid_frac(self, labels):
        with pytest.raises(ValueError):
            label_skew_partition(labels, 10, frac_labels=0.0)

    def test_dirichlet_skew_increases_with_small_alpha(self, labels):
        skewed = dirichlet_partition(labels, 10, alpha=0.1, rng=0)
        mild = dirichlet_partition(labels, 10, alpha=100.0, rng=0)

        def het(p):
            hists = np.stack([label_histogram(labels[ix], 10) for ix in p.client_indices])
            return np.abs(hists - hists.mean(0)).sum(1).mean()

        assert het(skewed) > 2 * het(mild)

    def test_dirichlet_min_samples(self, labels):
        p = dirichlet_partition(labels, 20, alpha=0.05, rng=0, min_samples=3)
        assert p.sizes().min() >= 3

    def test_quantity_skew_unequal_sizes(self, labels):
        p = quantity_skew_partition(labels, 10, alpha=0.3, rng=0)
        sizes = p.sizes()
        assert sizes.sum() == labels.size
        assert sizes.max() > 2 * max(sizes.min(), 1)

    def test_make_partition_dispatch(self, labels):
        p = make_partition("label_skew", labels, 5, rng=0, frac_labels=0.5)
        assert p.scheme == "label_skew"
        with pytest.raises(KeyError):
            make_partition("bogus", labels, 5)

    def test_too_many_clients(self):
        with pytest.raises(ValueError):
            iid_partition(np.zeros(5, dtype=int), 10)

    @given(
        n=st.integers(100, 400),
        clients=st.integers(2, 12),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_partitions_are_exact_covers(self, n, clients, seed):
        """Any partitioner output is a disjoint cover of the sample set."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 7, size=n)
        for scheme, kwargs in [
            ("iid", {}),
            ("label_skew", {"frac_labels": 0.4}),
            ("dirichlet", {"alpha": 0.5}),
            ("quantity_skew", {"alpha": 1.0}),
        ]:
            p = make_partition(scheme, labels, clients, rng=seed, **kwargs)
            p.validate_disjoint(n)
            assert p.sizes().sum() == n


class TestFederatedDataset:
    def _fed(self, scheme="label_skew", **kw):
        ds = make_dataset("cifar10", seed=0, n_samples=600)
        params = {"frac_labels": 0.2} if scheme == "label_skew" else {}
        params.update(kw)
        return build_federated_dataset(ds, scheme, num_clients=10, rng=0, **params)

    def test_every_client_has_train_and_test(self):
        fed = self._fed()
        for c in fed:
            assert c.n_train >= 1
            assert c.n_test >= 1

    def test_heterogeneity_ordering(self):
        skewed = self._fed()
        ds = make_dataset("cifar10", seed=0, n_samples=600)
        iid = build_federated_dataset(ds, "iid", num_clients=10, rng=0)
        assert skewed.heterogeneity() > 3 * iid.heterogeneity()

    def test_ground_truth_groups_from_label_sets(self):
        fed = self._fed()
        groups = fed.ground_truth_groups()
        assert groups is not None
        assert groups.shape == (10,)

    def test_split_newcomers(self):
        fed = self._fed()
        base, new = fed.split_newcomers(3)
        assert len(base) == 7
        assert len(new) == 3
        assert new[0].client_id == 7

    def test_split_newcomers_validation(self):
        fed = self._fed()
        with pytest.raises(ValueError):
            fed.split_newcomers(0)
        with pytest.raises(ValueError):
            fed.split_newcomers(10)

    def test_grouped_partition_fig1_setting(self):
        ds = make_dataset("cifar10", seed=0, n_samples=600)
        fed = grouped_label_partition(
            ds, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], clients_per_group=5, rng=0
        )
        assert len(fed) == 10
        groups = fed.ground_truth_groups()
        np.testing.assert_array_equal(groups, [0] * 5 + [1] * 5)
        for i, c in enumerate(fed):
            observed = set(int(v) for v in np.unique(c.train_y))
            expected = {0, 1, 2, 3, 4} if i < 5 else {5, 6, 7, 8, 9}
            assert observed <= expected

    def test_grouped_partition_rejects_overlap(self):
        ds = make_dataset("cifar10", seed=0, n_samples=300)
        with pytest.raises(ValueError):
            grouped_label_partition(ds, [[0, 1], [1, 2]], clients_per_group=2)

    def test_test_fraction_validation(self):
        ds = make_dataset("cifar10", seed=0, n_samples=300)
        with pytest.raises(ValueError):
            build_federated_dataset(ds, "iid", 5, test_fraction=1.5)
