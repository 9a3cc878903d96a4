"""Dynamic client populations: churn, growth, trace, newcomer onboarding.

The contract (see ``docs/architecture.md``): ``population="static"`` (the
default) is bit-for-bit the fixed-roster engine; dynamic models emit a
deterministic, seeded event stream that every scheduler applies at round
(or dispatch-cycle) boundaries; leaves only gate selection eligibility
(state survives for returns); joins attach a held-out shard and are
assigned a cluster through the paper's Alg. 2 weight-distance rule (or
the ``random``/``coldstart`` ablations); applied events land in
``RoundRecord.extras["population"]`` and survive JSON round-trips.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.fl.config import FLConfig
from repro.fl.population import (
    ChurnPopulation,
    GrowthPopulation,
    StaticPopulation,
    TracePopulation,
    make_population,
)
from repro.fl.sampling import sample_clients
from repro.nn.models import mlp
from repro.utils.io import load_history, save_history
from repro.utils.rng import RngFactory


def fresh_fed(num_clients: int = 10, n_samples: int = 400):
    ds = make_dataset("cifar10", seed=0, n_samples=n_samples, size=8)
    return build_federated_dataset(
        ds, "label_skew", num_clients=num_clients, frac_labels=0.2, rng=0,
        num_label_sets=3,
    )


def model_fn_for(fed):
    def model_fn(rng):
        return mlp(fed.num_classes, fed.input_shape, hidden=16, rng=rng)

    return model_fn


def run_one(fed, method="fedclust", seed=0, extra=None, **cfg_kwargs):
    kwargs = dict(
        rounds=6, sample_rate=0.5, local_epochs=1, batch_size=10, lr=0.05,
        eval_every=1,
    )
    kwargs.update(cfg_kwargs)
    cfg = FLConfig(**kwargs).with_extra(**(extra or {}))
    algo = build_algorithm(method, fed, model_fn_for(fed), cfg, seed=seed)
    history = algo.run()
    return history, algo


def params_digest(algo) -> str:
    parts = [
        algo.eval_params_for_client(c) for c in range(algo.fed.num_clients)
    ]
    return hashlib.sha256(np.concatenate(parts).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# sampling: eligibility + the pinned rounding rule
# ----------------------------------------------------------------------
class TestSampling:
    def test_full_eligibility_matches_seed_sampling_bitwise(self):
        for seed in range(5):
            a = sample_clients(10, 0.4, np.random.default_rng(seed))
            b = sample_clients(
                10, 0.4, np.random.default_rng(seed),
                eligible=np.arange(10, dtype=np.int64),
            )
            np.testing.assert_array_equal(a, b)

    def test_eligible_subset_only_yields_members(self):
        eligible = np.array([1, 4, 7, 8, 9], dtype=np.int64)
        got = sample_clients(
            eligible.size, 0.6, np.random.default_rng(0), eligible=eligible
        )
        assert set(got) <= set(eligible.tolist())
        assert np.all(np.diff(got) > 0)

    def test_bankers_rounding_is_pinned(self):
        # round(0.25 * 10) = round(2.5) = 2 under half-to-even — the
        # documented, golden-pinned cohort rule (not 3)
        got = sample_clients(10, 0.25, np.random.default_rng(0))
        assert got.size == 2
        # and half-to-even rounds 3.5 down to 4? no — to the even 4
        assert sample_clients(10, 0.35, np.random.default_rng(0)).size == 4

    def test_eligible_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="eligible"):
            sample_clients(
                4, 0.5, np.random.default_rng(0),
                eligible=np.array([1, 2], dtype=np.int64),
            )


# ----------------------------------------------------------------------
# model construction + event streams
# ----------------------------------------------------------------------
class TestModels:
    def test_static_is_inert(self):
        pop = make_population(num_clients=6, rngs=RngFactory(0))
        assert isinstance(pop, StaticPopulation)
        assert not pop.dynamic

    def test_churn_event_stream_is_deterministic(self):
        def stream():
            fed = fresh_fed(6)
            cfg = FLConfig(rounds=1, population="churn:session=2,gap=1")
            pop = make_population(cfg, 6, RngFactory(0))
            algo_stub = type("A", (), {"fed": fed})()
            pop.begin(algo_stub)
            return [(e.time, e.kind, e.client) for e in pop.events_until(10.0)]

        assert stream() == stream()
        assert len(stream()) > 0

    def test_churn_alternates_leave_return_per_client(self):
        cfg = FLConfig(rounds=1, population="churn:session=2,gap=1")
        pop = make_population(cfg, 6, RngFactory(0))
        pop.begin(type("A", (), {"fed": fresh_fed(6)})())
        events = pop.events_until(50.0)
        by_client: dict[int, list[str]] = {}
        for e in events:
            by_client.setdefault(e.client, []).append(e.kind)
        for kinds in by_client.values():
            expected = ["leave", "return"] * (len(kinds) // 2 + 1)
            assert kinds == expected[: len(kinds)]

    def test_churn_frac_zero_clients_never_leave(self):
        cfg = FLConfig(rounds=1, population="churn:churn_frac=0.001")
        pop = make_population(cfg, 6, RngFactory(0))
        pop.begin(type("A", (), {"fed": fresh_fed(6)})())
        assert pop.events_until(1e6) == []

    def test_growth_detaches_default_fifth(self):
        fed = fresh_fed(10)
        cfg = FLConfig(rounds=1, population="growth")
        pop = make_population(cfg, fed.num_clients, RngFactory(0))
        pop.begin(type("A", (), {"fed": fed})())
        assert fed.num_clients == 8
        assert list(pop.initial_roster()) == list(range(8))
        joins = pop.events_until(100.0)
        assert [e.client for e in joins] == [8, 9]
        assert all(e.kind == "join" for e in joins)

    def test_trace_parses_and_validates(self):
        fed = fresh_fed(6)
        cfg = FLConfig(rounds=1, population="trace").with_extra(
            pop_trace="1:leave:0;3:return:0;2:join:5"
        )
        pop = make_population(cfg, fed.num_clients, RngFactory(0))
        assert isinstance(pop, TracePopulation)
        pop.begin(type("A", (), {"fed": fed})())
        assert fed.num_clients == 5
        kinds = [(e.time, e.kind, e.client) for e in pop.events_until(10.0)]
        assert kinds == [(1.0, "leave", 0), (2.0, "join", 5), (3.0, "return", 0)]

    def test_trace_rejects_bad_kind_and_non_tail_joins(self):
        with pytest.raises(ValueError, match="join/leave/return"):
            make_population(
                FLConfig(rounds=1, population="trace").with_extra(
                    pop_trace="1:depart:0"
                ),
                6, RngFactory(0),
            )
        with pytest.raises(ValueError, match="id tail"):
            make_population(
                FLConfig(rounds=1, population="trace").with_extra(
                    pop_trace="1:join:2"
                ),
                6, RngFactory(0),
            )
        with pytest.raises(ValueError, match="ascending id order"):
            make_population(
                FLConfig(rounds=1, population="trace").with_extra(
                    pop_trace="1:join:5;2:join:4"
                ),
                6, RngFactory(0),
            )


# ----------------------------------------------------------------------
# static equivalence: the default population is the seed engine
# ----------------------------------------------------------------------
class TestStaticEquivalence:
    @pytest.mark.parametrize("method", ["fedavg", "fedclust"])
    def test_explicit_static_matches_default_bitwise(self, method):
        h_default, a_default = run_one(fresh_fed(), method)
        h_static, a_static = run_one(
            fresh_fed(), method, population="static"
        )
        d1, d2 = h_default.as_dict(), h_static.as_dict()
        for key in ("rounds", "accuracy", "train_loss", "cumulative_mb",
                    "upload_bytes", "download_bytes", "sim_seconds", "extras"):
            assert d1[key] == d2[key], f"{key} diverged"
        assert params_digest(a_default) == params_digest(a_static)
        assert a_static._eligible is None  # population hooks short-circuited


# ----------------------------------------------------------------------
# churn through the full engine
# ----------------------------------------------------------------------
class TestChurn:
    @pytest.mark.parametrize("scheduler", ["sync", "semisync", "buffered"])
    def test_events_fire_and_record_on_every_scheduler(self, scheduler):
        h, algo = run_one(
            fresh_fed(), "fedclust", scheduler=scheduler,
            population="churn:session=3,gap=2",
        )
        events = h.population_events()
        assert events, f"{scheduler}: churn fired no events"
        assert {e["kind"] for e in events} <= {"leave", "return"}
        # every event dict is JSON-clean and time-stamped
        for e in events:
            assert isinstance(e["t"], float) and isinstance(e["client"], int)

    def test_departed_clients_are_not_selected(self):
        fed = fresh_fed()
        cfg = FLConfig(
            rounds=8, sample_rate=0.5, local_epochs=1, batch_size=10,
            lr=0.05, eval_every=1, population="trace",
        ).with_extra(pop_trace="1:leave:0;100:return:0")
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        selected: list[int] = []
        orig = algo.select_clients

        def spy(round_idx, sample_rate=None):
            out = orig(round_idx, sample_rate)
            selected.extend(int(c) for c in out)
            return out

        algo.select_clients = spy
        algo.run()
        assert 0 not in selected

    def test_return_restores_eligibility_and_state(self):
        h, algo = run_one(
            fresh_fed(), "fedclust",
            population="trace", rounds=5,
            extra={"pop_trace": "1:leave:2;2:return:2"},
        )
        kinds = [(e["kind"], e["client"]) for e in h.population_events()]
        assert ("leave", 2) in kinds and ("return", 2) in kinds
        assert 2 in algo._eligible
        # per-cluster state survived the absence
        assert algo.cluster_of[2] >= 0

    def test_leave_never_empties_the_federation(self):
        # sessions far shorter than the run, gaps far longer: every
        # client leaves once and nobody comes back
        h, algo = run_one(
            fresh_fed(6), "fedavg", rounds=8,
            population="churn:session=0.5,gap=1000",
        )
        assert len(algo._eligible) == 1
        suppressed = [
            e for e in h.population_events("leave") if e.get("suppressed")
        ]
        assert len(suppressed) == 1  # the last leave was held back

    def test_history_json_roundtrip_with_population_events(self, tmp_path):
        h, _ = run_one(
            fresh_fed(), "fedclust",
            population="churn:session=2,gap=1",
        )
        assert h.population_events()
        path = tmp_path / "hist.json"
        save_history(h, path)
        loaded = load_history(path)
        assert [dict(r.extras) for r in loaded.records] == [
            dict(r.extras) for r in h.records
        ]
        assert loaded.population_events() == h.population_events()
        json.dumps(h.as_dict())  # strictly JSON-serializable


# ----------------------------------------------------------------------
# growth: joins through the newcomer path
# ----------------------------------------------------------------------
class TestGrowth:
    def test_setup_clusters_only_the_initial_roster(self):
        fed = fresh_fed(10)
        h, algo = run_one(
            fed, "fedclust",
            population="growth:joiners=3,join_start=100,join_every=1",
        )
        # joiners never arrived: the federation stays at 7 clients and
        # the one-shot clustering never saw the held-out tail
        assert algo.fed.num_clients == 7
        assert len(algo.cluster_of) == 7
        assert algo.cluster_centroids.shape[0] == algo.num_clusters

    @pytest.mark.parametrize("scheduler", ["sync", "semisync", "buffered"])
    def test_joiners_attach_and_get_clusters(self, scheduler):
        h, algo = run_one(
            fresh_fed(10), "fedclust", scheduler=scheduler,
            population="growth:joiners=2,join_start=1,join_every=1",
        )
        joins = h.population_events("join")
        assert [e["client"] for e in joins] == [8, 9]
        assert algo.fed.num_clients == 10
        assert len(algo.cluster_of) == 10
        for e in joins:
            assert 0 <= e["cluster"] < algo.num_clusters
        # joiners are evaluated like everyone else post-join
        assert algo.per_client_accuracy().shape == (10,)

    def test_weight_assignment_matches_offline_alg2(self):
        # the live join path and the Table-6 incorporate path agree on
        # the probe → nearest-centroid rule for the same data
        from repro.core.newcomer import probe_partial_weights

        fed = fresh_fed(10)
        h, algo = run_one(
            fed, "fedclust",
            population="growth:joiners=1,join_start=1,join_every=1",
        )
        (join,) = h.population_events("join")
        partial = probe_partial_weights(
            algo, algo.fed[9],
            epochs=algo.warmup_epochs,
            rng=algo.rngs.make("population.probe", 9),
        )
        assert algo.assign_newcomer(partial) == join["cluster"]

    def test_probe_traffic_is_metered(self):
        # identical scenario with and without the θ⁰ probe (weights vs
        # random assignment): the communication bills differ by exactly
        # one model download plus one partial upload
        spec = "growth:joiners=1,join_start=1,join_every=1,assign={}"
        h_w, a_w = run_one(
            fresh_fed(10), "fedclust", rounds=3,
            population=spec.format("weights"),
        )
        h_r, a_r = run_one(
            fresh_fed(10), "fedclust", rounds=3,
            population=spec.format("random"),
        )
        assert h_w.population_events("join") and h_r.population_events("join")
        assert a_w.comm.total_down - a_r.comm.total_down == a_w.model_bytes
        assert a_w.comm.total_up - a_r.comm.total_up == a_w.partial_bytes

    def test_random_and_coldstart_ablations(self):
        for mode in ("random", "coldstart"):
            h, algo = run_one(
                fresh_fed(10), "fedclust",
                population=f"growth:joiners=2,join_start=1,join_every=1,assign={mode}",
            )
            joins = h.population_events("join")
            assert len(joins) == 2
            for e in joins:
                assert 0 <= e["cluster"] < algo.num_clusters

    def test_growth_works_for_global_model_algorithms(self):
        h, algo = run_one(
            fresh_fed(10), "fedavg",
            population="growth:joiners=2,join_start=1,join_every=1",
        )
        assert [e["client"] for e in h.population_events("join")] == [8, 9]
        assert "cluster" not in h.population_events("join")[0]
        assert algo.fed.num_clients == 10

    def test_seeded_weights_match_or_beat_random_assignment(self):
        # the acceptance scenario: weight-driven newcomer assignment vs
        # the random ablation, same seeds, same churned federation
        def final_acc(mode):
            accs = []
            for seed in (0, 1):
                h, _ = run_one(
                    fresh_fed(10), "fedclust", seed=seed, rounds=8,
                    population=(
                        "churn:session=6,gap=2,joiners=2,join_start=2,"
                        f"join_every=2,assign={mode}"
                    ),
                )
                accs.append(h.final_accuracy())
            return float(np.mean(accs))

        assert final_acc("weights") >= final_acc("random")


# ----------------------------------------------------------------------
# dataset plumbing: detach / attach and the partition tail split
# ----------------------------------------------------------------------
class TestDatasetPlumbing:
    def test_detach_then_attach_restores_roster(self):
        fed = fresh_fed(8)
        sizes = fed.partition.sizes().tolist()
        pool = fed.detach_joiners(3)
        assert fed.num_clients == 5
        assert [c.client_id for c in pool] == [5, 6, 7]
        assert fed.partition.num_clients == 5
        for client in pool:
            fed.attach(client)
        assert fed.num_clients == 8
        assert fed.partition.num_clients == 8
        assert fed.partition.sizes().tolist() == sizes

    def test_attach_rejects_non_contiguous_ids(self):
        fed = fresh_fed(8)
        pool = fed.detach_joiners(2)
        with pytest.raises(ValueError, match="contiguity"):
            fed.attach(pool[1])  # id 7 before id 6

    def test_detach_bounds(self):
        fed = fresh_fed(4)
        with pytest.raises(ValueError):
            fed.detach_joiners(0)
        with pytest.raises(ValueError):
            fed.detach_joiners(4)

    def test_partition_split_tail(self):
        fed = fresh_fed(8)
        head, tail = fed.partition.split_tail(3)
        assert head.num_clients == 5 and tail.num_clients == 3
        assert head.scheme == tail.scheme == fed.partition.scheme
        # label sets stay full-size (indexed by preserved client id)
        assert len(head.client_label_sets) == 8
        with pytest.raises(ValueError):
            fed.partition.split_tail(8)

    def test_ground_truth_groups_survive_detach(self):
        fed = fresh_fed(8)
        before = fed.ground_truth_groups()
        fed.detach_joiners(2)
        after = fed.ground_truth_groups()
        # group labels are renumbered by first appearance, but the
        # grouping of the remaining clients is unchanged
        assert after is not None and after.shape == (6,)
        for i in range(6):
            for j in range(6):
                assert (before[i] == before[j]) == (after[i] == after[j])


# ----------------------------------------------------------------------
# empty rounds: all-clients-cut must still commit a well-defined record
# ----------------------------------------------------------------------
class TestEmptyRounds:
    @pytest.mark.parametrize("scheduler", ["sync", "semisync"])
    @pytest.mark.parametrize("method", ["fedavg", "fedclust", "ifca"])
    def test_deadline_cutting_everyone_commits_records(self, scheduler, method):
        # uniform network round trips are ~0.1s+; a 1ns deadline cuts all
        h, algo = run_one(
            fresh_fed(6), method, rounds=3, scheduler=scheduler,
            network="uniform", deadline=1e-9,
        )
        assert len(h.records) == 3
        for r in h.records:
            assert r.extras.get("deadline_dropped"), "no one was cut?"
            assert np.isfinite(r.accuracy) and np.isfinite(r.train_loss)
            assert r.sim_seconds >= 0.0
        # nothing was aggregated, so the model never moved
        first = h.records[0]
        assert all(r.accuracy == first.accuracy for r in h.records)

    @pytest.mark.parametrize("method", ["fedavg", "fedclust"])
    def test_buffered_empty_flushes_commit_records(self, method):
        # near-zero availability: whole cohorts drop out, flushes empty
        h, algo = run_one(
            fresh_fed(6), method, rounds=3, scheduler="buffered",
            network="flaky", extra={"net_availability": 1e-9},
        )
        assert len(h.records) >= 1
        for r in h.records:
            assert np.isfinite(r.accuracy)

    def test_sync_empty_round_does_not_move_global_params(self):
        fed = fresh_fed(6)
        cfg = FLConfig(
            rounds=2, sample_rate=0.5, local_epochs=1, batch_size=10,
            lr=0.05, network="uniform", deadline=1e-9,
        )
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        algo.run()
        # every upload was cut, so the global model is still θ⁰
        untouched = build_algorithm(
            "fedavg", fresh_fed(6), model_fn_for(fed), cfg, seed=0
        )
        untouched.setup()
        np.testing.assert_array_equal(
            algo.global_params, untouched.global_params
        )
