"""Integration tests: every algorithm end-to-end on a small federation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FedAvg,
    FedClust,
    FLConfig,
    IFCA,
    Local,
    PACFL,
    build_algorithm,
    build_federated_dataset,
    make_dataset,
    mlp,
)
from repro.algorithms import CFL, FedNova, FedProx, LGFedAvg, PerFedAvg
from repro.clustering import adjusted_rand_index
from repro.data import grouped_label_partition
from repro.fl import registry


def make_fed(num_clients=8, n_samples=400, seed=0, scheme="label_skew", **kw):
    ds = make_dataset("cifar10", seed=seed, n_samples=n_samples, size=8)
    params = {"frac_labels": 0.2} if scheme == "label_skew" else {}
    params.update(kw)
    return build_federated_dataset(ds, scheme, num_clients=num_clients, rng=seed, **params)


def model_fn_for(fed):
    return lambda rng: mlp(fed.num_classes, fed.input_shape, hidden=24, rng=rng)


SMALL_CFG = FLConfig(
    rounds=3, sample_rate=0.5, local_epochs=1, batch_size=10, lr=0.05, eval_every=1
)


@pytest.fixture(scope="module")
def fed():
    return make_fed()


class TestAllAlgorithmsRun:
    @pytest.mark.parametrize("name", sorted(registry.classes("algorithm")))
    def test_runs_and_records_history(self, fed, name):
        cfg = SMALL_CFG.with_extra(lam=2.0, num_clusters=2, angle_threshold=20.0)
        algo = build_algorithm(name, fed, model_fn_for(fed), cfg, seed=0)
        history = algo.run()
        assert len(history) == cfg.rounds
        assert history.algorithm == name
        accs = history.accuracies
        assert ((0.0 <= accs) & (accs <= 1.0)).all()
        assert np.isfinite(history.losses).all()

    @pytest.mark.parametrize("name", ["fedavg", "fedclust", "local"])
    def test_bitwise_deterministic(self, fed, name):
        cfg = SMALL_CFG.with_extra(lam=2.0)
        h1 = build_algorithm(name, fed, model_fn_for(fed), cfg, seed=7).run()
        h2 = build_algorithm(name, fed, model_fn_for(fed), cfg, seed=7).run()
        np.testing.assert_array_equal(h1.accuracies, h2.accuracies)
        np.testing.assert_array_equal(h1.cumulative_mb, h2.cumulative_mb)

    def test_seed_changes_trajectory(self, fed):
        h1 = FedAvg(fed, model_fn_for(fed), SMALL_CFG, seed=0).run()
        h2 = FedAvg(fed, model_fn_for(fed), SMALL_CFG, seed=1).run()
        assert not np.array_equal(h1.accuracies, h2.accuracies)

    def test_run_twice_rejected(self, fed):
        algo = FedAvg(fed, model_fn_for(fed), SMALL_CFG, seed=0)
        algo.run()
        with pytest.raises(RuntimeError):
            algo.run()

    def test_unknown_algorithm(self, fed):
        with pytest.raises(KeyError, match="available"):
            build_algorithm("fedsgd", fed, model_fn_for(fed), SMALL_CFG)


class TestCommunicationAccounting:
    def test_local_costs_nothing(self, fed):
        algo = Local(fed, model_fn_for(fed), SMALL_CFG, seed=0)
        algo.run()
        assert algo.comm.total_bytes == 0

    def test_fedavg_cost_matches_model_size(self, fed):
        algo = FedAvg(fed, model_fn_for(fed), SMALL_CFG, seed=0)
        algo.run()
        # 4 clients/round * 3 rounds * (up + down) * model_bytes
        expected = 4 * 3 * 2 * algo.model_bytes
        assert algo.comm.total_bytes == expected

    def test_ifca_downloads_k_models(self, fed):
        cfg = SMALL_CFG.with_extra(num_clusters=3)
        algo = IFCA(fed, model_fn_for(fed), cfg, seed=0)
        algo.run()
        expected_down = 4 * 3 * 3 * algo.model_bytes
        assert algo.comm.total_down == expected_down

    def test_lg_transmits_less_than_fedavg(self, fed):
        lg = LGFedAvg(fed, model_fn_for(fed), SMALL_CFG.with_extra(num_local_layers=1), seed=0)
        fa = FedAvg(fed, model_fn_for(fed), SMALL_CFG, seed=0)
        lg.run()
        fa.run()
        assert lg.comm.total_bytes < fa.comm.total_bytes

    def test_fedclust_round0_uploads_partial_only(self, fed):
        cfg = SMALL_CFG.with_extra(lam=2.0)
        algo = FedClust(fed, model_fn_for(fed), cfg, seed=0)
        algo.run()
        up0, down0 = algo.comm.round_bytes(0)
        assert up0 == fed.num_clients * algo.partial_bytes
        assert down0 == fed.num_clients * algo.model_bytes
        assert algo.partial_bytes < algo.model_bytes


class TestGlobalBaselines:
    def test_fedprox_sets_default_mu(self, fed):
        algo = FedProx(fed, model_fn_for(fed), SMALL_CFG, seed=0)
        assert algo.config.extra["prox_mu"] > 0

    def test_fednova_aggregation_normalizes(self, fed):
        """FedNova with equal steps must equal FedAvg's aggregate direction."""
        algo = FedNova(fed, model_fn_for(fed), SMALL_CFG, seed=0)
        algo.setup()
        from repro.fl.server import ClientUpdate

        g = algo.global_params.copy()
        updates = [
            ClientUpdate(client_id=0, params=g + 1.0, n_samples=10, steps=5, loss=1.0),
            ClientUpdate(client_id=1, params=g - 1.0, n_samples=10, steps=5, loss=1.0),
        ]
        algo.aggregate(1, updates)
        np.testing.assert_allclose(algo.global_params, g, atol=1e-12)

    def test_fednova_unequal_steps_differ_from_fedavg(self, fed):
        from repro.fl.server import ClientUpdate

        nova = FedNova(fed, model_fn_for(fed), SMALL_CFG, seed=0)
        nova.setup()
        g = nova.global_params.copy()
        updates = [
            ClientUpdate(client_id=0, params=g + 2.0, n_samples=10, steps=10, loss=1.0),
            ClientUpdate(client_id=1, params=g - 1.0, n_samples=10, steps=1, loss=1.0),
        ]
        nova.aggregate(1, updates)
        fedavg_result = g + (2.0 - 1.0) / 2
        assert not np.allclose(nova.global_params, fedavg_result)


class TestClusteredMethods:
    def test_fedclust_recovers_ground_truth_groups(self):
        """Two disjoint label groups must be recovered by round-0 clustering."""
        ds = make_dataset("cifar10", seed=0, n_samples=600, size=8)
        fed = grouped_label_partition(ds, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], 5, rng=0)
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=2, lr=0.1).with_extra(lam=None)
        # pick lambda from the dendrogram: cut into exactly 2 clusters
        algo = FedClust(fed, model_fn_for(fed), cfg.with_extra(lam=1e9), seed=0)
        algo.setup()
        labels = algo.dendrogram.cut_k(2)
        truth = fed.ground_truth_groups()
        assert adjusted_rand_index(truth, labels) == pytest.approx(1.0)

    def test_fedclust_lambda_extremes(self, fed):
        cfg = SMALL_CFG.with_extra(lam=0.0)
        algo = FedClust(fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        assert algo.num_clusters == fed.num_clients  # pure personalization
        cfg2 = SMALL_CFG.with_extra(lam=1e9)
        algo2 = FedClust(fed, model_fn_for(fed), cfg2, seed=0)
        algo2.setup()
        assert algo2.num_clusters == 1  # pure globalization

    def test_fedclust_invalid_lambda(self, fed):
        with pytest.raises(ValueError):
            FedClust(fed, model_fn_for(fed), SMALL_CFG.with_extra(lam=-1.0), seed=0)

    def test_fedclust_newcomer_assignment_validation(self, fed):
        algo = FedClust(fed, model_fn_for(fed), SMALL_CFG.with_extra(lam=2.0), seed=0)
        with pytest.raises(RuntimeError):
            algo.assign_newcomer(np.zeros(3))
        algo.setup()
        with pytest.raises(ValueError):
            algo.assign_newcomer(np.zeros(3))

    def test_pacfl_forms_clusters_before_federation(self, fed):
        cfg = SMALL_CFG.with_extra(angle_threshold=30.0, p=2)
        algo = PACFL(fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        assert algo.num_clusters >= 1
        assert algo.cluster_of.shape == (fed.num_clients,)
        up0, _ = algo.comm.round_bytes(0)
        assert up0 > 0  # singular vectors were transmitted

    def test_cfl_starts_with_one_cluster(self, fed):
        algo = CFL(fed, model_fn_for(fed), SMALL_CFG, seed=0)
        algo.setup()
        assert algo.num_clusters == 1

    def test_cfl_splits_on_synthetic_stationary_updates(self, fed):
        """Force the stationarity gates open and verify a bipartition."""
        from repro.fl.server import ClientUpdate

        cfg = SMALL_CFG.with_extra(eps1=10.0, eps2=0.0, min_cluster_size=2)
        algo = CFL(fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        g = algo.cluster_params[0]
        updates = []
        for cid in range(8):
            direction = np.ones_like(g) if cid < 4 else -np.ones_like(g)
            updates.append(
                ClientUpdate(
                    client_id=cid, params=g + direction, n_samples=10, steps=1, loss=1.0
                )
            )
        algo.aggregate(1, updates)
        assert algo.num_clusters == 2
        groups = algo.cluster_of
        assert len(set(groups[:4])) == 1
        assert len(set(groups[4:])) == 1
        assert groups[0] != groups[7]

    def test_ifca_eval_assignment_uses_train_loss(self, fed):
        cfg = SMALL_CFG.with_extra(num_clusters=2)
        algo = IFCA(fed, model_fn_for(fed), cfg, seed=0)
        algo.run()
        assert set(np.unique(algo.cluster_of)) <= {0, 1}


class TestPersonalizedBaselines:
    def test_perfedavg_personalizes_at_eval(self, fed):
        cfg = SMALL_CFG.with_extra(alpha=0.01, personalize_epochs=1)
        algo = PerFedAvg(fed, model_fn_for(fed), cfg, seed=0)
        h = algo.run()
        assert len(h) == cfg.rounds

    def test_lg_local_layers_stay_personal(self, fed):
        cfg = SMALL_CFG.with_extra(num_local_layers=1)
        algo = LGFedAvg(fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        p0 = algo.client_params[0].copy()
        p1 = algo.client_params[1].copy()
        # personal (local-layer) segments differ across clients at init
        local_slice = slice(0, algo._global_slice.start)
        assert not np.allclose(p0[local_slice], p1[local_slice])

    def test_lg_validation(self, fed):
        with pytest.raises(ValueError):
            LGFedAvg(fed, model_fn_for(fed), SMALL_CFG.with_extra(num_local_layers=99), seed=0)
