"""Failure-injection and degenerate-input robustness tests.

Federated systems meet ugly inputs: clients with almost no data, clusters
that receive no updates for many rounds, identical clients (zero weight
distance), single-class shards.  The engine must handle all of these
without crashing or corrupting state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FedAvg,
    FedClust,
    FLConfig,
    IFCA,
    build_federated_dataset,
    make_dataset,
    mlp,
)
from repro.clustering import agglomerative, proximity_matrix
from repro.data import ClientData, FederatedDataset
from repro.data.partition import label_skew_partition
from repro.fl.server import ClientUpdate


def tiny_model_fn(num_classes, input_shape):
    return lambda rng: mlp(num_classes, input_shape, hidden=8, rng=rng)


def make_manual_fed(client_sizes, num_classes=3, shape=(1, 4, 4), seed=0):
    """Hand-built federation with explicit per-client sample counts."""
    rng = np.random.default_rng(seed)
    clients = []
    for cid, n in enumerate(client_sizes):
        x = rng.normal(size=(n, *shape)).astype(np.float32)
        y = rng.integers(0, num_classes, size=n)
        n_test = max(1, n // 5)
        clients.append(
            ClientData(cid, x[n_test:], y[n_test:], x[:n_test], y[:n_test])
        )
    return FederatedDataset(clients, num_classes, shape)


class TestDegenerateClients:
    def test_two_sample_clients_survive_training(self):
        fed = make_manual_fed([2, 2, 2, 2])
        cfg = FLConfig(rounds=2, sample_rate=1.0, local_epochs=1, batch_size=10, lr=0.05)
        h = FedAvg(fed, tiny_model_fn(3, (1, 4, 4)), cfg, seed=0).run()
        assert len(h) == 2

    def test_wildly_unbalanced_clients(self):
        fed = make_manual_fed([2, 200, 2, 200])
        cfg = FLConfig(rounds=2, sample_rate=1.0, local_epochs=1, batch_size=16, lr=0.05)
        algo = FedAvg(fed, tiny_model_fn(3, (1, 4, 4)), cfg, seed=0)
        h = algo.run()
        assert np.isfinite(h.accuracies).all()

    def test_single_class_clients(self):
        """Clients whose local data is one class only (extreme skew)."""
        rng = np.random.default_rng(0)
        clients = []
        for cid in range(4):
            x = rng.normal(size=(20, 1, 4, 4)).astype(np.float32)
            y = np.full(20, cid % 3, dtype=np.int64)
            clients.append(ClientData(cid, x[4:], y[4:], x[:4], y[:4]))
        fed = FederatedDataset(clients, 3, (1, 4, 4))
        cfg = FLConfig(rounds=2, sample_rate=1.0, local_epochs=1, lr=0.05).with_extra(lam="auto")
        h = FedClust(fed, tiny_model_fn(3, (1, 4, 4)), cfg, seed=0).run()
        assert len(h) == 2

    def test_single_client_federation(self):
        fed = make_manual_fed([30])
        cfg = FLConfig(rounds=2, sample_rate=1.0, local_epochs=1, lr=0.05)
        h = FedAvg(fed, tiny_model_fn(3, (1, 4, 4)), cfg, seed=0).run()
        assert len(h) == 2


class TestClusterEdgeCases:
    def test_cluster_without_updates_keeps_params(self):
        """A cluster whose members are never sampled must keep its model."""
        fed = make_manual_fed([20, 20, 20, 20])
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05).with_extra(lam=0.0)
        algo = FedClust(fed, tiny_model_fn(3, (1, 4, 4)), cfg, seed=0)
        algo.setup()
        before = [p.copy() for p in algo.cluster_params]
        # aggregate with updates only for cluster of client 0
        gid0 = algo.cluster_of[0]
        update = ClientUpdate(
            client_id=0, params=before[gid0] + 1.0, n_samples=10, steps=1, loss=0.5
        )
        algo.aggregate(1, [update])
        for gid in range(algo.num_clusters):
            if gid == gid0:
                assert not np.allclose(algo.cluster_params[gid], before[gid])
            else:
                np.testing.assert_array_equal(algo.cluster_params[gid], before[gid])

    def test_identical_clients_form_one_cluster(self):
        """Zero weight distances must merge everyone, not crash on ties."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 1, 4, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=40)
        clients = [ClientData(c, x[8:], y[8:], x[:8], y[:8]) for c in range(5)]
        fed = FederatedDataset(clients, 3, (1, 4, 4))
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05).with_extra(lam=1e-6)
        algo = FedClust(fed, tiny_model_fn(3, (1, 4, 4)), cfg, seed=0)
        algo.setup()
        # identical data + identical θ0 + same rng per client index differs...
        # distances are tiny but may not be exactly 0; λ=1e-6 may keep them
        # apart.  The hard guarantee: clustering is valid and covers clients.
        assert algo.cluster_of.shape == (5,)
        assert algo.num_clusters >= 1

    def test_hc_on_all_zero_distances(self):
        d = np.zeros((6, 6))
        dend = agglomerative(d, "average")
        labels = dend.cut(0.5)
        assert labels.max() == 0  # everything merges at height 0

    def test_ifca_empty_cluster_tolerated(self):
        """IFCA clusters that win no clients simply keep their model."""
        fed = make_manual_fed([20, 20, 20, 20])
        cfg = FLConfig(rounds=2, sample_rate=1.0, local_epochs=1, lr=0.05).with_extra(
            num_clusters=8  # more clusters than clients
        )
        algo = IFCA(fed, tiny_model_fn(3, (1, 4, 4)), cfg, seed=0)
        h = algo.run()
        assert len(h) == 2

    def test_ifca_diverged_cluster_captures_no_client(self):
        """A cluster model holding a NaN scores NaN for every client; the
        argmin ranks it last instead of sending everyone to it."""
        from test_registry import TestGoldenEquivalence as G

        fed = G._fed()
        cfg = FLConfig(
            rounds=2, sample_rate=0.6, local_epochs=1, batch_size=10, lr=0.05,
            eval_every=1,
        ).with_extra(num_clusters=3)
        algo = IFCA(
            fed,
            lambda rng: mlp(fed.num_classes, fed.input_shape, hidden=16, rng=rng),
            cfg, seed=0,
        )
        algo.run()
        before = algo._best_clusters(range(6))
        assert before == [0, 0, 1, 0, 1, 0]
        algo.cluster_params[2] = np.full_like(algo.cluster_params[2], np.nan)
        assert algo._best_clusters(range(6)) == before
        # every model diverged: ties among non-finite losses go to index 0
        algo.cluster_params = [
            np.full_like(p, np.nan) for p in algo.cluster_params
        ]
        assert algo._best_clusters(range(6)) == [0] * 6


class TestPartitionRepair:
    def test_min_samples_repair_steals_from_largest(self):
        labels = np.concatenate([np.zeros(96, dtype=int), np.ones(4, dtype=int)])
        p = label_skew_partition(labels, 4, frac_labels=0.5, rng=0, min_samples=5)
        assert p.sizes().min() >= 5
        assert p.sizes().sum() == 100

    def test_impossible_min_samples(self):
        labels = np.zeros(4, dtype=int)
        with pytest.raises(ValueError):
            label_skew_partition(labels, 4, frac_labels=1.0, rng=0, min_samples=50)

    def test_pool_covers_all_classes_when_possible(self):
        labels = np.random.default_rng(0).integers(0, 10, size=500)
        p = label_skew_partition(labels, 20, frac_labels=0.2, rng=0, num_label_sets=5)
        covered = set()
        for s in p.client_label_sets:
            covered |= set(s)
        assert covered == set(range(10))
        # exactly 5 distinct sets
        assert len(set(p.client_label_sets)) == 5

    def test_pool_smaller_than_coverage_keeps_identity(self):
        labels = np.random.default_rng(0).integers(0, 10, size=500)
        p = label_skew_partition(labels, 12, frac_labels=0.2, rng=0, num_label_sets=3)
        assert len(set(p.client_label_sets)) <= 3

    def test_pool_validation(self):
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ValueError):
            label_skew_partition(labels, 2, frac_labels=0.5, num_label_sets=0)


class TestNumericalRobustness:
    def test_training_on_constant_images(self):
        """All-zero images: gradients flow only into biases; no NaNs."""
        clients = [
            ClientData(
                0,
                np.zeros((20, 1, 4, 4), dtype=np.float32),
                np.random.default_rng(0).integers(0, 3, 20),
                np.zeros((5, 1, 4, 4), dtype=np.float32),
                np.random.default_rng(1).integers(0, 3, 5),
            )
        ]
        fed = FederatedDataset(clients, 3, (1, 4, 4))
        cfg = FLConfig(rounds=2, sample_rate=1.0, local_epochs=1, lr=0.1)
        algo = FedAvg(fed, tiny_model_fn(3, (1, 4, 4)), cfg, seed=0)
        h = algo.run()
        assert np.isfinite(h.losses).all()

    def test_proximity_on_huge_weights(self):
        v = np.full((4, 10), 1e8)
        v[0] += 1.0
        d = proximity_matrix(v)
        assert np.isfinite(d).all()

    def test_large_lr_produces_finite_history(self):
        ds = make_dataset("cifar10", seed=0, n_samples=200, size=8)
        fed = build_federated_dataset(ds, "iid", 4, rng=0)
        cfg = FLConfig(rounds=2, sample_rate=1.0, local_epochs=1, lr=5.0)
        h = FedAvg(fed, tiny_model_fn(10, fed.input_shape), cfg, seed=0).run()
        assert len(h) == 2  # may diverge, must not crash
