"""Simulated network: profiles, stragglers, deadlines, history plumbing.

Network draws are keyed off the run's root seed on the main thread, so a
profile changes *which clients report and when* — never differently across
execution backends — and everything it does is recorded: simulated round
seconds, per-span byte counts, and the ids a deadline cut.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.fl import registry
from repro.fl.comm import CommTracker
from repro.fl.config import FLConfig
from repro.fl.network import (
    HeterogeneousNetwork,
    IdealNetwork,
    StragglerNetwork,
    make_network,
    resolve_deadline,
)
from repro.nn.models import mlp
from repro.utils.io import load_history, save_history
from repro.utils.rng import RngFactory


@pytest.fixture(scope="module")
def fed():
    ds = make_dataset("cifar10", seed=0, n_samples=240, size=8)
    return build_federated_dataset(
        ds, "label_skew", num_clients=6, frac_labels=0.2, rng=0, num_label_sets=3
    )


def model_fn_for(fed):
    def model_fn(r):
        return mlp(fed.num_classes, fed.input_shape, hidden=16, rng=r)

    return model_fn


def run_one(fed, method="fedavg", backend="serial", workers=0, extra=None, **cfg_kw):
    kw = dict(
        rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10, lr=0.05,
        eval_every=1, backend=backend, workers=workers,
    )
    kw.update(cfg_kw)
    cfg = FLConfig(**kw).with_extra(**(extra or {}))
    algo = build_algorithm(method, fed, model_fn_for(fed), cfg, seed=0)
    history = algo.run()
    return history, algo


class TestProfiles:
    def test_registry_and_factory(self):
        assert set(registry.classes("network")) == {
            "ideal", "uniform", "hetero", "stragglers", "flaky",
        }
        net = make_network(network="hetero", num_clients=4, rngs=RngFactory(0))
        assert isinstance(net, HeterogeneousNetwork)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown network profile"):
            make_network(network="5g")

    def test_auto_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETWORK", "stragglers")
        assert isinstance(make_network(network="auto"), StragglerNetwork)
        monkeypatch.delenv("REPRO_NETWORK")
        assert isinstance(make_network(network="auto"), IdealNetwork)

    def test_links_deterministic_per_seed(self):
        a = make_network(network="hetero", num_clients=8, rngs=RngFactory(3))
        b = make_network(network="hetero", num_clients=8, rngs=RngFactory(3))
        c = make_network(network="hetero", num_clients=8, rngs=RngFactory(4))
        for cid in range(8):
            assert a.link(cid).down_bps == b.link(cid).down_bps
            assert a.link(cid).compute_factor == b.link(cid).compute_factor
        assert any(a.link(i).down_bps != c.link(i).down_bps for i in range(8))

    def test_links_independent_of_query_order(self):
        a = make_network(network="hetero", num_clients=8, rngs=RngFactory(0))
        b = make_network(network="hetero", num_clients=8, rngs=RngFactory(0))
        up_a = [a.link(i).up_bps for i in range(8)]
        up_b = [b.link(i).up_bps for i in reversed(range(8))][::-1]
        assert up_a == up_b

    def test_ideal_is_free_and_always_up(self):
        net = make_network(network="ideal", num_clients=4, rngs=RngFactory(0))
        assert net.client_seconds(0, 10**9, 10**9, steps=0) == 0.0
        assert net.available_mask(1, np.arange(4)).all()

    def test_stragglers_have_slow_tail(self):
        cfg = FLConfig(rounds=1, extra={"net_straggler_frac": 0.5,
                                        "net_straggler_factor": 100.0})
        net = make_network(cfg, network="stragglers", num_clients=40,
                           rngs=RngFactory(0))
        factors = np.array([net.link(i).compute_factor for i in range(40)])
        assert (factors > 20.0).any() and (factors < 20.0).any()

    def test_flaky_availability_mask(self):
        net = make_network(network="flaky", num_clients=50, rngs=RngFactory(0))
        ids = np.arange(50)
        mask1 = net.available_mask(1, ids)
        assert mask1.sum() < 50  # some client is down at p=0.8 over 50 draws
        np.testing.assert_array_equal(mask1, net.available_mask(1, ids))
        assert not np.array_equal(mask1, net.available_mask(2, ids))

    def test_availability_validated(self):
        cfg = FLConfig(rounds=1, extra={"net_availability": 0.0})
        with pytest.raises(ValueError, match="net_availability"):
            make_network(cfg, network="hetero", num_clients=4, rngs=RngFactory(0))

    def test_client_seconds_composition(self):
        net = make_network(network="uniform", num_clients=2, rngs=RngFactory(0))
        ln = net.link(0)
        t = net.client_seconds(0, down_nbytes=2_500_000, up_nbytes=0, steps=0)
        assert t == pytest.approx(2 * ln.latency_s + 2_500_000 / ln.down_bps)


class TestDeadline:
    def test_resolve_deadline_env(self, monkeypatch):
        assert resolve_deadline(FLConfig(rounds=1)) is None
        assert resolve_deadline(FLConfig(rounds=1, deadline=3.0)) == 3.0
        monkeypatch.setenv("REPRO_DEADLINE", "1.5")
        assert resolve_deadline(FLConfig(rounds=1)) == 1.5
        monkeypatch.setenv("REPRO_DEADLINE", "soon")
        with pytest.raises(ValueError, match="REPRO_DEADLINE"):
            resolve_deadline(FLConfig(rounds=1))

    def test_deadline_cuts_stragglers_partial_cohort(self, fed):
        extra = {"net_straggler_frac": 0.5, "net_straggler_factor": 1000.0,
                 "net_step_seconds": 0.01}
        h_free, a_free = run_one(fed, network="stragglers", extra=extra)
        h_cut, a_cut = run_one(fed, network="stragglers", deadline=5.0, extra=extra)
        dropped = h_cut.deadline_dropped()
        assert dropped, "a 1000x straggler must miss a 5s deadline"
        # the cut upload never completes: strictly fewer uplink bytes
        assert a_cut.comm.total_up < a_free.comm.total_up
        # downloads happened before the cut: identical bills
        assert a_cut.comm.total_down == a_free.comm.total_down
        # the run still trains and evaluates
        assert h_cut.final_accuracy() > 0.0

    def test_all_cut_round_aggregates_empty_cohort(self, fed):
        h, a = run_one(fed, network="stragglers", deadline=1e-6)
        assert a.comm.total_up == 0
        assert len(h.deadline_dropped()) > 0
        assert len(h) == 3  # every round still evaluated and recorded
        assert h.sim_seconds == pytest.approx([1e-6] * 3)

    def test_sim_seconds_zero_on_ideal_no_deadline(self, fed):
        h, _ = run_one(fed)
        assert (h.sim_seconds == 0.0).all()
        assert h.total_sim_seconds() == 0.0

    def test_sim_seconds_positive_with_network(self, fed):
        h, _ = run_one(fed, network="uniform", deadline=10_000.0)
        assert (h.sim_seconds > 0.0).all()
        assert h.total_sim_seconds() == pytest.approx(float(h.sim_seconds.sum()))

    def test_deadline_keeps_backends_equivalent(self, fed):
        base_h, _ = run_one(fed, network="stragglers", deadline=5.0, codec="int8")
        thread_h, _ = run_one(
            fed, network="stragglers", deadline=5.0, codec="int8",
            backend="thread", workers=3,
        )
        np.testing.assert_array_equal(base_h.accuracies, thread_h.accuracies)
        np.testing.assert_array_equal(base_h.cumulative_mb, thread_h.cumulative_mb)
        assert base_h.deadline_dropped() == thread_h.deadline_dropped()
        np.testing.assert_array_equal(base_h.sim_seconds, thread_h.sim_seconds)


class TestAvailability:
    def test_flaky_drops_before_download(self, fed):
        cfg_extra = {"net_availability": 0.3}
        h_flaky, a_flaky = run_one(fed, network="flaky", extra=cfg_extra)
        _, a_ideal = run_one(fed)
        # an unavailable client costs nothing, unlike dropout (which pays
        # the download)
        assert a_flaky.comm.total_down < a_ideal.comm.total_down
        unavailable = [
            cid for r in h_flaky.records for cid in r.extras.get("unavailable", ())
        ]
        assert unavailable


class TestHistoryPlumbing:
    def test_span_bytes_sum_to_comm_totals(self, fed):
        h, a = run_one(fed, "fedclust", extra={"lam": "auto"}, eval_every=2)
        # spans cover round-0 setup traffic too, so they sum to the totals
        assert int(h.upload_bytes.sum()) == a.comm.total_up
        assert int(h.download_bytes.sum()) == a.comm.total_down

    def test_json_roundtrip_with_wire_fields(self, fed, tmp_path):
        h, _ = run_one(
            fed, network="stragglers", deadline=5.0,
            extra={"net_straggler_frac": 0.5, "net_straggler_factor": 1000.0},
        )
        path = tmp_path / "history.json"
        save_history(h, path)
        loaded = load_history(path)
        np.testing.assert_array_equal(h.upload_bytes, loaded.upload_bytes)
        np.testing.assert_array_equal(h.download_bytes, loaded.download_bytes)
        np.testing.assert_array_equal(h.sim_seconds, loaded.sim_seconds)
        assert loaded.deadline_dropped() == h.deadline_dropped()

    def test_legacy_json_loads_with_defaults(self, tmp_path):
        import json

        legacy = {
            "algorithm": "fedavg", "dataset": "d", "rounds": [1, 2],
            "accuracy": [0.1, 0.2], "train_loss": [1.0, 0.5],
            "cumulative_mb": [1.0, 2.0],
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy))
        h = load_history(path)
        assert (h.upload_bytes == 0).all()
        assert (h.sim_seconds == 0.0).all()
        assert h.deadline_dropped() == []


class TestCommTracker:
    def test_cumulative_mb_rejects_negative_rounds(self):
        tracker = CommTracker()
        with pytest.raises(ValueError, match="rounds"):
            tracker.cumulative_mb(-1)
        assert tracker.cumulative_mb(0).size == 0

    def test_reset_clears_everything(self):
        tracker = CommTracker()
        tracker.record_upload(1, 100, logical_nbytes=800)
        tracker.record_download(1, 50)
        assert tracker.total_bytes == 150
        assert tracker.total_logical_bytes == 850
        tracker.reset()
        assert tracker.total_bytes == 0
        assert tracker.total_logical_bytes == 0
        assert tracker.round_bytes(1) == (0, 0)

    def test_logical_defaults_to_wire(self):
        tracker = CommTracker()
        tracker.record_upload(0, 42)
        assert tracker.total_logical_up == 42

    def test_negative_sizes_rejected(self):
        tracker = CommTracker()
        with pytest.raises(ValueError):
            tracker.record_upload(0, -1)
        with pytest.raises(ValueError):
            tracker.record_download(0, 10, logical_nbytes=-5)
