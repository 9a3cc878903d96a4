"""Event-driven schedulers: sync extraction, semisync, buffered async.

The contract (see ``docs/architecture.md``): the ``sync`` scheduler is
the seed engine's round loop bit-for-bit (within the pinned contract under
the ``vector`` backend); ``semisync``
with ``over_select_frac=0`` keeps exactly what it keeps; ``buffered``
with ``buffer_size == cohort`` and a zero staleness discount degenerates
to it (and rejects a ``deadline``); the event fields the asynchronous
schedulers thread through ``RoundRecord.extras`` survive JSON
round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from golden import assert_vector_contract, canonical_history, params_digest

from repro.algorithms import build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.runner import build_cell, run_cell
from repro.fl import registry
from repro.fl.config import FLConfig
from repro.fl.scheduler import (
    BufferedScheduler,
    SemiSyncScheduler,
    SyncScheduler,
    make_scheduler,
    nominal_cohort,
)
from repro.nn.models import mlp
from repro.utils.io import load_history, save_history


@pytest.fixture(scope="module")
def fed():
    ds = make_dataset("cifar10", seed=0, n_samples=240, size=8)
    return build_federated_dataset(
        ds, "label_skew", num_clients=6, frac_labels=0.2, rng=0, num_label_sets=3
    )


def model_fn_for(fed):
    def model_fn(rng):
        return mlp(fed.num_classes, fed.input_shape, hidden=16, rng=rng)

    return model_fn


def run_one(fed, method: str, extra: dict | None = None, **cfg_kwargs):
    cfg = FLConfig(
        rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10, lr=0.05,
        eval_every=1, **cfg_kwargs,
    ).with_extra(**(extra or {}))
    algo = build_algorithm(method, fed, model_fn_for(fed), cfg, seed=0)
    history = algo.run()
    return history, algo


class TestSyncExtraction:
    """scheduler='sync' must be the default engine, on both backends."""

    def test_explicit_sync_equals_default(self, fed):
        base_h, base_a = run_one(fed, "fedavg")
        sync_h, sync_a = run_one(fed, "fedavg", scheduler="sync")
        np.testing.assert_array_equal(base_h.accuracies, sync_h.accuracies)
        np.testing.assert_array_equal(base_h.losses, sync_h.losses)
        np.testing.assert_array_equal(base_h.cumulative_mb, sync_h.cumulative_mb)
        np.testing.assert_array_equal(base_a.global_params, sync_a.global_params)
        assert isinstance(sync_a.scheduler, SyncScheduler)

    @pytest.mark.parametrize("cfg_kwargs", [
        {},
        {"dropout_rate": 0.2},
        {"codec": "topk", "network": "stragglers", "deadline": 1.0},
    ])
    def test_sync_identical_across_backends(self, fed, cfg_kwargs):
        serial, vector = (
            run_one(fed, "fedclust", extra={"lam": "auto"}, scheduler="sync",
                    backend=backend, **cfg_kwargs)
            for backend in ("serial", "vector")
        )
        assert_vector_contract(serial, vector)


class TestBufferedReducesToSync:
    """buffer_size == cohort + zero staleness discount == the sync loop."""

    def test_bitwise_equal_ideal_network(self, fed):
        cohort = nominal_cohort(fed.num_clients, 0.6)
        sync_h, sync_a = run_one(fed, "fedavg")
        buf_h, buf_a = run_one(
            fed, "fedavg", scheduler="buffered",
            buffer_size=cohort, staleness_alpha=0.0,
        )
        np.testing.assert_array_equal(sync_h.accuracies, buf_h.accuracies)
        np.testing.assert_array_equal(sync_h.losses, buf_h.losses)
        np.testing.assert_array_equal(sync_h.cumulative_mb, buf_h.cumulative_mb)
        np.testing.assert_array_equal(sync_h.upload_bytes, buf_h.upload_bytes)
        np.testing.assert_array_equal(sync_a.global_params, buf_a.global_params)
        # all-zero staleness in the recorded events
        for r in buf_h.records:
            for e in r.extras.get("events", ()):
                assert e["staleness"] == 0

    def test_bitwise_equal_with_dropout(self, fed):
        cohort = nominal_cohort(fed.num_clients, 0.6)
        sync_h, _ = run_one(fed, "fedavg", dropout_rate=0.3)
        buf_h, _ = run_one(
            fed, "fedavg", scheduler="buffered", dropout_rate=0.3,
            buffer_size=cohort, staleness_alpha=0.0,
        )
        np.testing.assert_array_equal(sync_h.accuracies, buf_h.accuracies)
        np.testing.assert_array_equal(sync_h.cumulative_mb, buf_h.cumulative_mb)

    def test_equal_under_hetero_network(self, fed):
        """Accuracy/traffic bitwise; the virtual clock agrees to 1 ulp
        (a global event clock accumulates, sync sums per-round maxima)."""
        cohort = nominal_cohort(fed.num_clients, 0.6)
        sync_h, _ = run_one(fed, "fedavg", network="hetero")
        buf_h, _ = run_one(
            fed, "fedavg", scheduler="buffered", network="hetero",
            buffer_size=cohort, staleness_alpha=0.0,
        )
        np.testing.assert_array_equal(sync_h.accuracies, buf_h.accuracies)
        np.testing.assert_array_equal(sync_h.cumulative_mb, buf_h.cumulative_mb)
        np.testing.assert_allclose(sync_h.sim_seconds, buf_h.sim_seconds,
                                   rtol=1e-12)

    def test_buffered_equivalent_across_backends(self, fed):
        serial, vector = (
            run_one(fed, "fedavg", scheduler="buffered", network="stragglers",
                    backend=backend)
            for backend in ("serial", "vector")
        )
        assert_vector_contract(serial, vector)


class TestBufferedAsync:
    def test_flushes_and_staleness_recorded(self, fed):
        h, algo = run_one(fed, "fedavg", scheduler="buffered", buffer_size=2,
                          network="stragglers")
        assert isinstance(algo.scheduler, BufferedScheduler)
        # rounds count flushes: ceil(rounds * concurrency / k) of them
        cohort = nominal_cohort(fed.num_clients, 0.6)
        assert len(h) == int(np.ceil(3 * cohort / 2))
        events = [e for r in h.records for e in r.extras.get("events", ())]
        assert events, "buffered runs must record arrival events"
        assert any(e["staleness"] > 0 for e in events), (
            "a straggler's update should arrive stale"
        )
        arrivals = [e["t"] for e in events]
        assert all(t >= 0 for t in arrivals)
        flushes = [e["flush"] for e in events]
        assert flushes == sorted(flushes)
        # virtual clock advances monotonically across records
        assert (h.sim_seconds >= 0).all()

    def test_stale_updates_are_discounted(self, fed):
        """alpha > 0 must change the aggregate vs alpha = 0 when buffers
        actually contain mixed staleness."""
        h0, a0 = run_one(fed, "fedavg", scheduler="buffered", buffer_size=2,
                         network="stragglers", staleness_alpha=0.0)
        h1, a1 = run_one(fed, "fedavg", scheduler="buffered", buffer_size=2,
                         network="stragglers", staleness_alpha=2.0)
        assert not np.array_equal(a0.global_params, a1.global_params)
        # same schedule either way: identical event stream and traffic
        np.testing.assert_array_equal(h0.cumulative_mb, h1.cumulative_mb)

    def test_staleness_discount_modes(self, fed):
        cfg = FLConfig(staleness_alpha=0.5)
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        assert algo.staleness_discount(0) == 1.0
        assert algo.staleness_discount(1) == pytest.approx(2.0 ** -0.5)
        assert algo.staleness_discount(3) == pytest.approx(4.0 ** -0.5)

    def test_refill_not_biased_to_low_ids(self):
        """Partial refills draw uniformly from the fresh cohort instead of
        truncating the sorted pool (which would starve high client ids)."""
        ds = make_dataset("cifar10", seed=1, n_samples=480, size=8)
        fed12 = build_federated_dataset(
            ds, "label_skew", num_clients=12, frac_labels=0.2, rng=1,
            num_label_sets=3,
        )
        cfg = FLConfig(
            rounds=4, sample_rate=0.5, local_epochs=1, batch_size=10,
            lr=0.05, eval_every=1, scheduler="buffered", buffer_size=2,
            network="stragglers",
        )
        algo = build_algorithm("fedavg", fed12, model_fn_for(fed12), cfg, seed=0)
        h = algo.run()
        participants = {
            e["client"] for r in h.records for e in r.extras.get("events", ())
        }
        assert max(participants) >= 8

    def test_default_merge_delegates_to_aggregate(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05,
                       staleness_alpha=1.0)
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        updates = [algo.client_update(cid, 1) for cid in (0, 1)]
        seen = {}
        original_aggregate = algo.aggregate

        def spy(round_idx, merged):
            seen["weights"] = [u.n_samples for u in merged]
            original_aggregate(round_idx, merged)

        algo.aggregate = spy
        algo.merge(1, updates, [0, 3])
        fresh, stale = seen["weights"]
        assert fresh == updates[0].n_samples
        assert stale == pytest.approx(updates[1].n_samples / 4.0)


class TestSemiSync:
    def test_cancels_tail_and_beats_sync_clock(self, fed):
        sync_h, _ = run_one(fed, "fedavg", network="stragglers")
        h, algo = run_one(fed, "fedavg", scheduler="semisync",
                          network="stragglers", over_select_frac=1.0)
        assert isinstance(algo.scheduler, SemiSyncScheduler)
        cancelled = [c for r in h.records for c in r.extras.get("cancelled", ())]
        assert cancelled, "over-selection must cancel a tail under stragglers"
        # quorum per round = the nominal cohort
        quorum = nominal_cohort(fed.num_clients, 0.6)
        for r in h.records:
            assert len(r.extras.get("events", ())) <= quorum
        assert h.total_sim_seconds() < sync_h.total_sim_seconds()

    def test_deadline_with_filled_quorum_cancels_not_drops(self, fed):
        """Once the quorum fills, the server stops waiting — later arrivals
        are cancellations, not deadline casualties, even when their trip
        would also have overrun the deadline."""
        base, _ = run_one(fed, "fedavg", scheduler="semisync",
                          network="stragglers", over_select_frac=1.0)
        deadline = float(base.sim_seconds.max()) * 1.05
        h, _ = run_one(fed, "fedavg", scheduler="semisync",
                       network="stragglers", over_select_frac=1.0,
                       deadline=deadline)
        assert h.deadline_dropped() == []
        cancelled = [c for r in h.records for c in r.extras.get("cancelled", ())]
        assert cancelled
        np.testing.assert_array_equal(base.accuracies, h.accuracies)

    def test_cancelled_uploads_cost_nothing(self, fed):
        sync_h, _ = run_one(fed, "fedavg", network="stragglers")
        h, _ = run_one(fed, "fedavg", scheduler="semisync",
                       network="stragglers", over_select_frac=1.0)
        # more downloads (over-selection) but uploads capped at the quorum
        assert int(h.download_bytes.sum()) > int(sync_h.download_bytes.sum())
        assert int(h.upload_bytes.sum()) <= int(sync_h.upload_bytes.sum())


class TestSyncIsSemiSyncWithoutOverSelection:
    """``sync`` is ``semisync`` with ``over_select_frac=0``.

    With no over-selection the quorum is the whole cohort, so semisync
    cancels nothing and keeps exactly the uploads sync keeps — the
    premise that lets both share one round loop.  Only two things may
    differ: semisync's arrival log (``extras["events"]``) and the order
    a round's deadline drops are listed in (sync lists them in
    submission order, semisync in arrival order).
    """

    #: method, fl_options, config overrides; the deadline cases cut 2-3
    #: of the 6 clients every round and aggregate the rest
    CASES = {
        "fedavg-hetero": ("fedavg", {"network": "hetero"}, {}),
        "fedavg-stragglers-deadline-dropout": (
            "fedavg", {"network": "stragglers", "deadline": 0.12},
            {"sample_rate": 1.0, "dropout_rate": 0.2},
        ),
        "fedclust-topk-stragglers-deadline": (
            "fedclust",
            {"codec": "topk", "network": "stragglers", "deadline": 0.15},
            {"sample_rate": 1.0},
        ),
        "ifca-flaky": ("ifca", {"network": "flaky"}, {}),
    }

    @staticmethod
    def _comparable(history) -> dict:
        d = canonical_history(history)
        for extras in d["extras"]:
            extras.pop("events", None)
            if "deadline_dropped" in extras:
                extras["deadline_dropped"] = sorted(extras["deadline_dropped"])
        return d

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_run(self, case):
        method, fl_options, overrides = self.CASES[case]
        sync, semi = (
            run_cell(
                "cifar10", method, "label_skew_20", SMOKE_SCALE, seed=3,
                config_overrides={"rounds": 4, **overrides},
                fl_options={**fl_options, **sched},
            )
            for sched in (
                {"scheduler": "sync"},
                {"scheduler": "semisync", "over_select_frac": 0.0},
            )
        )
        assert self._comparable(sync.history) == self._comparable(semi.history)
        assert params_digest(sync.algorithm) == params_digest(semi.algorithm)
        if "deadline" in fl_options:
            drops = [r.extras.get("deadline_dropped", [])
                     for r in sync.history.records]
            assert all(len(d) >= 2 for d in drops), drops
            assert int(sync.history.upload_bytes.sum()) > 0


class TestBufferedRejectsDeadline:
    """A deadline cuts uploads at round barriers and buffered has none, so
    every way of setting the two together fails before round 1."""

    MATCH = "deadline does not apply to scheduler 'buffered'"

    def test_config_fields(self, fed):
        with pytest.raises(ValueError, match=self.MATCH):
            run_one(fed, "fedavg", scheduler="buffered", deadline=1e9)

    def test_fl_options_with_inline_spec(self):
        algo = build_cell(
            "cifar10", "fedavg", "label_skew_20", SMOKE_SCALE,
            fl_options={"scheduler": "buffered:bs=2", "deadline": 1e9},
        )
        with pytest.raises(ValueError, match=self.MATCH):
            algo.run()
        assert algo.history.records == []

    def test_env(self, fed, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "buffered")
        monkeypatch.setenv("REPRO_DEADLINE", "1e9")
        with pytest.raises(ValueError, match=self.MATCH):
            run_one(fed, "fedavg")

    def test_sync_and_semisync_accept_it(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "1e9")
        assert isinstance(make_scheduler(scheduler="sync"), SyncScheduler)
        assert isinstance(
            make_scheduler(scheduler="semisync"), SemiSyncScheduler
        )


class TestEventRecordRoundTrip:
    @pytest.mark.parametrize("scheduler,kwargs", [
        ("buffered", {"buffer_size": 2, "network": "stragglers"}),
        ("semisync", {"network": "stragglers", "over_select_frac": 1.0}),
    ])
    def test_extras_survive_json(self, fed, tmp_path, scheduler, kwargs):
        h, _ = run_one(fed, "fedavg", scheduler=scheduler, **kwargs)
        path = tmp_path / "history.json"
        save_history(h, path)
        loaded = load_history(path)
        assert [r.extras for r in loaded.records] == [
            r.extras for r in h.records
        ]
        np.testing.assert_array_equal(h.sim_seconds, loaded.sim_seconds)
        events = [e for r in loaded.records for e in r.extras.get("events", ())]
        assert events and set(events[0]) == {"client", "t", "staleness", "flush"}

    def test_sim_seconds_to_target(self, fed):
        h, _ = run_one(fed, "fedavg", scheduler="buffered",
                       network="stragglers")
        cum = h.sim_seconds.cumsum()
        worst = float(h.accuracies.min())
        t = h.sim_seconds_to_target(worst)
        first = int(np.flatnonzero(h.accuracies >= worst)[0])
        assert t == pytest.approx(cum[first])
        assert h.sim_seconds_to_target(2.0) is None


class TestPlumbing:
    def test_registry_and_factory(self):
        assert set(registry.classes("scheduler")) == {
            "sync", "semisync", "buffered",
        }
        assert isinstance(make_scheduler(scheduler="sync"), SyncScheduler)
        s = make_scheduler(scheduler="buffered", buffer_size=4,
                           staleness_alpha=1.5)
        assert isinstance(s, BufferedScheduler)
        assert s.options["buffer_size"] == 4
        assert s.options["staleness_alpha"] == 1.5
        assert isinstance(
            make_scheduler(scheduler="semisync"), SemiSyncScheduler
        )

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler(scheduler="gossip")

    def test_auto_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "buffered")
        monkeypatch.setenv("REPRO_BUFFER_SIZE", "7")
        monkeypatch.setenv("REPRO_STALENESS_ALPHA", "0.25")
        s = make_scheduler(scheduler="auto")
        assert isinstance(s, BufferedScheduler)
        assert s.options["buffer_size"] == 7
        assert s.options["staleness_alpha"] == 0.25
        monkeypatch.setenv("REPRO_SCHEDULER", "semisync")
        monkeypatch.setenv("REPRO_OVER_SELECT_FRAC", "0.75")
        s = make_scheduler(scheduler="auto")
        assert isinstance(s, SemiSyncScheduler)
        assert s.options["over_select_frac"] == 0.75
        monkeypatch.delenv("REPRO_SCHEDULER")
        assert isinstance(make_scheduler(scheduler="auto"), SyncScheduler)

    def test_auto_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "buffered")
        monkeypatch.setenv("REPRO_BUFFER_SIZE", "many")
        with pytest.raises(ValueError, match="REPRO_BUFFER_SIZE"):
            make_scheduler(scheduler="auto")

    def test_config_validates_scheduler_fields(self):
        with pytest.raises(ValueError, match="scheduler"):
            FLConfig(scheduler="gossip")
        with pytest.raises(ValueError, match="buffer_size"):
            FLConfig(buffer_size=-1)
        with pytest.raises(ValueError, match="staleness_alpha"):
            FLConfig(staleness_alpha=-0.1)
        with pytest.raises(ValueError, match="over_select_frac"):
            FLConfig(over_select_frac=-0.5)

    def test_nominal_cohort(self):
        assert nominal_cohort(6, 0.6) == 4
        assert nominal_cohort(100, 0.1) == 10
        assert nominal_cohort(3, 0.01) == 1


class TestExtraKeyValidation:
    """Unknown net_*/sched_* knobs in FLConfig.extra are typos, not noise."""

    def test_known_keys_accepted(self):
        cfg = FLConfig().with_extra(
            net_mbps=5.0, net_straggler_frac=0.5, sched_concurrency=4,
            prox_mu=0.01, lam="auto",
        )
        assert cfg.extra["net_mbps"] == 5.0

    def test_unknown_net_key_rejected_with_listing(self):
        with pytest.raises(ValueError, match="net_mbps"):
            FLConfig(extra={"net_mpbs": 5.0})  # transposed typo

    def test_unknown_sched_key_rejected_with_listing(self):
        with pytest.raises(ValueError, match="sched_concurrency"):
            FLConfig(extra={"sched_concurency": 4})  # dropped letter

    def test_with_extra_validates_too(self):
        with pytest.raises(ValueError, match="unknown network knob"):
            FLConfig().with_extra(net_latency=0.1)

    def test_non_prefixed_keys_untouched(self):
        cfg = FLConfig(extra={"prox_mu": 0.01, "num_clusters": 3})
        assert cfg.extra["num_clusters"] == 3
