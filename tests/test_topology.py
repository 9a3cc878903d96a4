"""Hierarchical aggregation topology + sparse client state (PR 9).

The contract under test (fl/topology.py, data/federated.py lazy path):

* ``TestFlatDefault`` / ``TestHierDegenerate`` — the default stays the
  seed data path, and ``hier`` with one edge is a pass-through that
  reproduces every pinned golden capture bit-for-bit.
* ``TestHierNumerics`` — a genuinely hierarchical run (k >= 2 edges)
  tracks the flat trajectory within float64 round-off, and the edge
  tier meters extra wire bytes.
* ``TestStreamingAccumulators`` — Hypothesis: the streaming accumulator
  API equals batch aggregation (bitwise for the buffering rules, within
  a documented tolerance for the O(1) running mean), including the
  two-tier mean-of-means the hier sink performs.
* ``TestEdgeAssignment`` — the client->edge map is a pure function of
  the run seed: stable across instances, seed-sensitive, full coverage.
* ``TestLazyShards`` — LRU page-out and ``drop_cache`` round-trip shard
  contents exactly (materialization is pure), and the resident set
  stays bounded by the cache cap.
* ``TestCheckpointUnderHier`` — resume at every boundary and SIGKILL
  crash-resume stay bit-for-bit under ``hier``; a tampered edge
  assignment or edge count is refused; a lazy federation's resident
  shard set rides the checkpoint and is re-warmed on resume.
* ``TestReplayWithTopology`` — telemetry replay stays exact with edge
  events in the log, and the trace carries edge_reduce spans.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import canonical_history
from repro.algorithms import build_algorithm
from repro.data import (
    LazyFederatedDataset,
    contiguous_partition,
    make_dataset,
)
from repro.fl.aggregation import make_aggregator
from repro.fl.config import FLConfig
from repro.fl.topology import FlatTopology, HierTopology, make_topology
from repro.nn.models import mlp
from repro.utils.rng import RngFactory
from test_checkpoint import DRIVER, ROUNDS, SRC, _baseline, _cell, \
    _checkpointed_cell
# bound under a non-Test name, so pytest collects the goldens once
from test_registry import TestGoldenEquivalence as Golden
from test_telemetry import _assert_replays_exactly

HIER2 = {"topology": "hier:edges=2"}


def _golden_fed():
    return Golden._fed()


def _golden_cfg(**kw):
    return FLConfig(
        rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10,
        lr=0.05, eval_every=1, **kw
    )


def _model_fn(fed):
    def model_fn(rng):
        return mlp(fed.num_classes, fed.input_shape, hidden=16, rng=rng)
    return model_fn


def _lazy_fed(num_clients=12, cache_clients=64, seed=0):
    ds = make_dataset("cifar10", seed=seed, n_samples=240, size=8)
    part = contiguous_partition(len(ds.y), num_clients)
    return LazyFederatedDataset(
        ds, part, test_fraction=0.25, seed=seed, cache_clients=cache_clients
    )


class TestFlatDefault:
    def test_default_resolution_is_flat(self):
        topo = make_topology(FLConfig(), num_clients=8, rngs=RngFactory(0))
        assert isinstance(topo, FlatTopology)
        assert topo.edges == 1

    def test_hier_requires_plain_combine_algorithm(self):
        fed = _golden_fed()
        cfg = _golden_cfg(topology="hier:edges=2")
        algo = build_algorithm("fednova", fed, _model_fn(fed), cfg, seed=0)
        with pytest.raises(RuntimeError, match="hierarchical"):
            algo.run()


class TestHierDegenerate:
    """``topo_edges=1``: a single edge IS the cloud — bitwise flat.

    Every pinned golden capture must reproduce with the topology set to
    the degenerate ``hier``, proof the new tier's pass-through really is
    the seed data path for all scheduler/codec/network combinations.
    """

    # fednova and the clustered methods reject a hierarchical tier by
    # design; the degenerate hier IS allowed there (edges=1 implies no
    # pre-reduction), so every golden case stays in scope.
    @pytest.mark.parametrize("case", sorted(Golden.CASES))
    def test_single_edge_matches_golden_capture(self, case, golden_compare):
        method, cfg_kw, extra, *rest = Golden.CASES[case]
        fed = Golden._fed(rest[0] if rest else "label_skew")
        cfg = _golden_cfg(topology="hier:edges=1", **cfg_kw).with_extra(**extra)
        algo = build_algorithm(method, fed, _model_fn(fed), cfg, seed=0)
        history = algo.run()
        assert algo.topology.edges == 1
        golden_compare("golden_registry.json", case, algo, history)


class TestHierNumerics:
    def test_multi_edge_tracks_flat_within_roundoff(self):
        """Weighted mean of weighted means == flat mean up to float64
        round-off, compounded over a few rounds."""
        runs = {}
        for name, topology in [("flat", "flat"), ("hier", "hier:edges=4")]:
            fed = _golden_fed()
            cfg = _golden_cfg(topology=topology)
            algo = build_algorithm("fedavg", fed, _model_fn(fed), cfg, seed=0)
            runs[name] = (algo, algo.run())
        flat_algo, flat_hist = runs["flat"]
        hier_algo, hier_hist = runs["hier"]
        np.testing.assert_allclose(
            hier_algo.global_params, flat_algo.global_params,
            rtol=1e-6, atol=1e-9,
        )
        # cohort selection is topology-blind: identical rosters per round
        for a, b in zip(flat_hist.records, hier_hist.records):
            assert list(a.extras.get("selected", ())) == list(
                b.extras.get("selected", ())
            )
        # train_loss is the mean over the reporting clients, not over the
        # edge means: round 1 trains the same clients from the same model
        assert hier_hist.records[0].train_loss == flat_hist.records[0].train_loss
        np.testing.assert_allclose(hier_hist.losses, flat_hist.losses, rtol=1e-6)

    def test_edge_tier_meters_extra_wire_bytes(self):
        fed = _golden_fed()
        flat = build_algorithm(
            "fedavg", fed, _model_fn(fed), _golden_cfg(), seed=0
        )
        flat_mb = flat.run().records[-1].cumulative_mb
        fed = _golden_fed()
        hier = build_algorithm(
            "fedavg", fed, _model_fn(fed),
            _golden_cfg(topology="hier:edges=4"), seed=0,
        )
        hier_mb = hier.run().records[-1].cumulative_mb
        assert hier_mb > flat_mb, (
            "the edge->cloud hop must add metered bytes on top of the "
            "client->edge uploads"
        )


class TestStreamingAccumulators:
    """The accumulator API is the memory story: edges fold members one at
    a time and the result must equal the batch rule."""

    @staticmethod
    def _members(seed, n, dim):
        rng = np.random.default_rng(seed)
        vectors = [rng.standard_normal(dim) for _ in range(n)]
        weights = list(rng.uniform(0.5, 20.0, size=n))
        return vectors, weights

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 10),
           dim=st.integers(1, 24),
           rule=st.sampled_from(["median", "trimmed"]))
    @settings(max_examples=25, deadline=None)
    def test_buffering_rules_are_bitwise_batch(self, seed, n, dim, rule):
        agg = make_aggregator(aggregator=rule)
        vectors, weights = self._members(seed, n, dim)
        acc = agg.accumulator()
        for v, w in zip(vectors, weights):
            acc.update(v, w)
        streamed, _ = acc.finalize()
        batch = agg.combine(vectors, weights)
        np.testing.assert_array_equal(streamed, batch)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 10),
           dim=st.integers(1, 24))
    @settings(max_examples=25, deadline=None)
    def test_running_mean_matches_batch_within_tolerance(self, seed, n, dim):
        agg = make_aggregator(aggregator="weighted")
        vectors, weights = self._members(seed, n, dim)
        acc = agg.accumulator()
        for v, w in zip(vectors, weights):
            acc.update(v, w)
        streamed, _ = acc.finalize()
        batch = agg.combine(vectors, weights)
        np.testing.assert_allclose(streamed, batch, rtol=1e-12, atol=1e-14)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 12),
           dim=st.integers(1, 16), edges=st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_two_tier_mean_of_means_matches_flat(self, seed, n, dim, edges):
        """Exactly the hier sink's algebra: shard members across edges,
        stream each edge, cloud-combine the summaries by edge weight."""
        agg = make_aggregator(aggregator="weighted")
        vectors, weights = self._members(seed, n, dim)
        assignment = np.random.default_rng(seed ^ 0xE).integers(edges, size=n)
        summaries, edge_weights = [], []
        for e in range(edges):
            member_ix = np.flatnonzero(assignment == e)
            if not member_ix.size:
                continue
            acc = agg.accumulator()
            for i in member_ix:
                acc.update(vectors[i], weights[i])
            params, _ = acc.finalize()
            summaries.append(params)
            edge_weights.append(sum(weights[i] for i in member_ix))
        two_tier = agg.combine(summaries, edge_weights)
        flat = agg.combine(vectors, weights)
        np.testing.assert_allclose(two_tier, flat, rtol=1e-10, atol=1e-12)


class TestEdgeAssignment:
    def test_assignment_is_pure_and_seed_keyed(self):
        a = make_topology(
            num_clients=200, rngs=RngFactory(0), topology="hier:edges=4"
        )
        b = make_topology(
            num_clients=200, rngs=RngFactory(0), topology="hier:edges=4"
        )
        other = make_topology(
            num_clients=200, rngs=RngFactory(1), topology="hier:edges=4"
        )
        ours = [a.edge_of(c) for c in range(200)]
        assert ours == [b.edge_of(c) for c in range(200)]
        assert ours != [other.edge_of(c) for c in range(200)]
        assert set(ours) == set(range(4))  # every edge gets members

    def test_state_dict_roundtrip_and_rejection(self):
        topo = make_topology(
            num_clients=64, rngs=RngFactory(0), topology="hier:edges=4"
        )
        assert isinstance(topo, HierTopology)
        sd = topo.state_dict()
        topo.load_state_dict(sd)  # self-consistent
        topo.load_state_dict({})  # pre-topology checkpoints: nothing to do
        with pytest.raises(ValueError, match="edges"):
            topo.load_state_dict({**sd, "edges": 2})
        tampered = dict(sd)
        tampered["assign_probe"] = list(sd["assign_probe"])
        tampered["assign_probe"][0] = (tampered["assign_probe"][0] + 1) % 4
        with pytest.raises(ValueError, match="assignment"):
            topo.load_state_dict(tampered)


class TestLazyShards:
    def test_lru_page_out_rematerializes_exactly(self):
        fed = _lazy_fed(num_clients=12, cache_clients=4)
        first = fed[0]
        kept = (first.train_x.copy(), first.train_y.copy(),
                first.test_x.copy(), first.test_y.copy())
        for cid in range(1, 9):  # push client 0 out of the 4-slot cache
            fed[cid]
        assert 0 not in fed.resident_ids()
        assert fed.resident_shards() <= 4
        again = fed[0]
        np.testing.assert_array_equal(again.train_x, kept[0])
        np.testing.assert_array_equal(again.train_y, kept[1])
        np.testing.assert_array_equal(again.test_x, kept[2])
        np.testing.assert_array_equal(again.test_y, kept[3])

    def test_drop_cache_roundtrip_matches_fresh_instance(self):
        fed = _lazy_fed(num_clients=6)
        before = [fed[c] for c in range(6)]
        fed.drop_cache()
        assert fed.resident_shards() == 0
        fresh = _lazy_fed(num_clients=6)
        for c in range(6):
            np.testing.assert_array_equal(fed[c].train_x, before[c].train_x)
            np.testing.assert_array_equal(fed[c].train_y, before[c].train_y)
            np.testing.assert_array_equal(fresh[c].test_x, before[c].test_x)
            np.testing.assert_array_equal(fresh[c].test_y, before[c].test_y)

    def test_resident_set_never_exceeds_cap(self):
        fed = _lazy_fed(num_clients=12, cache_clients=3)
        rng = np.random.default_rng(7)
        for cid in rng.integers(12, size=64):
            fed[int(cid)]
            assert fed.resident_shards() <= 3


class TestCheckpointUnderHier:
    def test_resume_bitwise_at_every_boundary(self, tmp_path):
        fl_options = {**HIER2, "network": "stragglers"}
        base = _baseline(fl_options=fl_options)
        algo, saved = _checkpointed_cell(tmp_path, fl_options)
        assert canonical_history(algo.run()) == base
        boundaries = sorted(saved)[:-1]
        assert boundaries
        for r in boundaries:
            resumed = _cell({"rounds": ROUNDS}, fl_options)
            history = resumed.run(resume_from=str(saved[r]))
            assert canonical_history(history) == base, (
                f"hier resume at boundary {r} diverged"
            )

    def test_sigkill_crash_resume_is_bitwise_identical(self, tmp_path):
        from repro.experiments.runner import resume_cell
        from repro.fl.checkpoint import load_checkpoint

        fl_options = {**HIER2, "scheduler": "sync"}
        ckpt_dir = tmp_path / "cks"
        spec = {
            "dataset": "cifar10", "method": "fedavg",
            "setting": "label_skew_20", "seed": 0, "kill_at": 2,
            "config_overrides": {
                "rounds": ROUNDS, "checkpoint_every": 1,
                "checkpoint_dir": str(ckpt_dir),
            },
            "fl_options": fl_options,
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(DRIVER), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"driver should die by SIGKILL, got rc={proc.returncode}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
        latest = ckpt_dir / "latest.ckpt"
        ckpt = load_checkpoint(latest)
        assert ckpt.round == 2
        assert ckpt.state["topology"]["edges"] == 2
        result = resume_cell(latest)
        assert canonical_history(result.history) == _baseline(
            fl_options=fl_options
        ), "resume after SIGKILL under hier diverged"

    def test_lazy_residency_rides_the_checkpoint(self, tmp_path):
        from repro.fl.checkpoint import load_checkpoint

        def build(seed_fed):
            cfg = FLConfig(
                rounds=3, sample_rate=0.5, local_epochs=1, batch_size=10,
                lr=0.05, eval_every=1, topology="hier:edges=2",
                checkpoint_every=1, checkpoint_dir=str(tmp_path / "cks"),
            )
            return build_algorithm(
                "fedavg", seed_fed, _model_fn(seed_fed), cfg, seed=0
            )

        fed = _lazy_fed()
        algo = build(fed)
        saved = {}
        algo.on_checkpoint = lambda r, p: saved.setdefault(
            r, (tmp_path / f"r{r}.ckpt", __import__("shutil").copy(
                p, tmp_path / f"r{r}.ckpt"))[0]
        )
        base = canonical_history(algo.run())
        ckpt = load_checkpoint(saved[2])
        residency = ckpt.state.get("residency")
        assert residency, "lazy federation saved no resident shard set"
        assert set(residency) <= set(range(fed.num_clients))

        fed2 = _lazy_fed()
        algo2 = build(fed2)
        history = algo2.run(resume_from=str(saved[2]))
        assert canonical_history(history) == base
        # the crashed run's working set was re-warmed (cache is large
        # enough here that nothing paged out during the final round)
        assert set(residency) <= set(fed2.resident_ids())


class TestReplayWithTopology:
    def test_edge_events_replay_exactly(self, tmp_path):
        fed = _golden_fed()
        cfg = _golden_cfg(
            topology="hier:edges=3", telemetry="on"
        ).with_extra(tele_events_out=str(tmp_path / "ev.jsonl"))
        algo = build_algorithm("fedavg", fed, _model_fn(fed), cfg, seed=0)
        history = algo.run()
        tele = algo.telemetry
        edge_events = [e for e in tele.events if e.get("type") == "edge"]
        assert edge_events, "hier run logged no edge events"
        assert all(
            0 <= e["edge"] < 3 and e["members"] >= 1 and e["nbytes"] > 0
            for e in edge_events
        )
        assert any(s["name"] == "edge_reduce" for s in tele.spans)
        _assert_replays_exactly(history, tele, tmp_path / "ev.jsonl")

    def test_trace_inspector_renders_edge_tier_and_gauges(self, tmp_path):
        from repro.experiments.trace_view import inspect_run

        fed = _golden_fed()
        cfg = _golden_cfg(
            topology="hier:edges=3", telemetry="on"
        ).with_extra(
            tele_events_out=str(tmp_path / "events.jsonl"),
            tele_metrics_out=str(tmp_path / "metrics.json"),
        )
        algo = build_algorithm("fedavg", fed, _model_fn(fed), cfg, seed=0)
        algo.run()
        digest = inspect_run(tmp_path)
        assert "edge tier (hierarchical topology, 3 edges):" in digest
        assert "edge_uploads" in digest
        assert "gauges" in digest and "peak_rss_mb" in digest
