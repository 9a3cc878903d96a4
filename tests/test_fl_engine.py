"""Unit tests for the FL engine: config, comm metering, history, sampling,
training routines, and the aggregation helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl import (
    CommTracker,
    FLConfig,
    History,
    RoundRecord,
    average_states,
    evaluate_accuracy,
    evaluate_loss,
    local_sgd,
    minibatches,
    sample_clients,
    weighted_average,
)
from repro.nn import SGD, mlp
from repro.nn.losses import softmax_cross_entropy
from repro.nn.model import CohortModel


class TestFLConfig:
    def test_defaults_valid(self):
        cfg = FLConfig()
        assert cfg.rounds >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"sample_rate": 0.0},
            {"sample_rate": 1.5},
            {"local_epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"eval_every": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FLConfig(**kwargs)

    def test_with_extra_merges(self):
        cfg = FLConfig(extra={"a": 1}).with_extra(b=2)
        assert cfg.extra == {"a": 1, "b": 2}
        cfg2 = cfg.with_extra(a=9)
        assert cfg2.extra["a"] == 9
        assert cfg.extra["a"] == 1  # original untouched


class TestCommTracker:
    def test_accumulates(self):
        t = CommTracker()
        t.record_upload(1, 100)
        t.record_upload(1, 50)
        t.record_download(1, 200)
        t.record_download(2, 10)
        assert t.round_bytes(1) == (150, 200)
        assert t.total_up == 150
        assert t.total_down == 210
        assert t.total_bytes == 360

    def test_mb_conversion(self):
        t = CommTracker()
        t.record_upload(0, 2_000_000)
        assert t.total_mb() == pytest.approx(2.0)

    def test_cumulative(self):
        t = CommTracker()
        t.record_upload(0, 1_000_000)
        t.record_upload(2, 1_000_000)
        np.testing.assert_allclose(t.cumulative_mb(3), [1.0, 1.0, 2.0])

    def test_negative_rejected(self):
        t = CommTracker()
        with pytest.raises(ValueError):
            t.record_upload(0, -1)


class TestHistory:
    def _hist(self, accs, mbs=None):
        h = History("algo", "ds")
        mbs = mbs or list(np.cumsum(np.ones(len(accs))))
        for i, (a, m) in enumerate(zip(accs, mbs)):
            h.append(RoundRecord(round=i + 1, accuracy=a, train_loss=1.0, cumulative_mb=m))
        return h

    def test_rounds_to_target(self):
        h = self._hist([0.1, 0.5, 0.8, 0.9])
        assert h.rounds_to_target(0.8) == 3
        assert h.rounds_to_target(0.95) is None

    def test_mb_to_target(self):
        h = self._hist([0.1, 0.5, 0.9], mbs=[2.0, 4.0, 6.0])
        assert h.mb_to_target(0.5) == pytest.approx(4.0)
        assert h.mb_to_target(0.99) is None

    def test_final_and_best(self):
        h = self._hist([0.2, 0.9, 0.7])
        assert h.final_accuracy() == pytest.approx(0.7)
        assert h.best_accuracy() == pytest.approx(0.9)

    def test_monotone_round_enforced(self):
        h = self._hist([0.5])
        with pytest.raises(ValueError):
            h.append(RoundRecord(round=1, accuracy=0.6, train_loss=1.0, cumulative_mb=1.0))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            History().final_accuracy()

    def test_as_dict(self):
        d = self._hist([0.5, 0.6]).as_dict()
        assert d["algorithm"] == "algo"
        assert d["accuracy"] == [0.5, 0.6]


class TestSampling:
    def test_rate_size(self):
        rng = np.random.default_rng(0)
        s = sample_clients(100, 0.1, rng)
        assert s.size == 10
        assert np.unique(s).size == 10

    def test_minimum_one(self):
        s = sample_clients(5, 0.01, np.random.default_rng(0))
        assert s.size == 1

    def test_full_participation(self):
        s = sample_clients(7, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(s, np.arange(7))

    def test_deterministic_given_rng(self):
        a = sample_clients(50, 0.2, np.random.default_rng(3))
        b = sample_clients(50, 0.2, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_clients(0, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_clients(10, 0.0, np.random.default_rng(0))


class TestTrainingRoutines:
    def test_minibatches_cover_once(self):
        batches = minibatches(23, 5, np.random.default_rng(0))
        flat = np.concatenate(batches)
        assert flat.size == 23
        np.testing.assert_array_equal(np.sort(flat), np.arange(23))
        assert len(batches) == 5

    def test_local_sgd_reduces_loss(self):
        rng = np.random.default_rng(0)
        model = mlp(3, input_shape=(1, 4, 4), hidden=16, rng=0)
        x = rng.normal(size=(60, 1, 4, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=60)
        opt = SGD(model, lr=0.1, momentum=0.9)
        loss0 = evaluate_loss(model, x, y)
        local_sgd(model, opt, x, y, epochs=10, batch_size=10, rng=rng)
        assert evaluate_loss(model, x, y) < loss0

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
        members=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_evaluate_loss_equals_per_slice_cross_entropy(self, sizes, members, seed):
        """The loss-only table is bit for bit the per-slice scalar loss
        (``softmax_cross_entropy``), for a cohort model and a plain one."""
        rng = np.random.default_rng(seed)
        model = mlp(5, input_shape=(1, 4, 4), hidden=8, rng=seed)
        cohort = CohortModel(model, members)
        cohort.load_flat(rng.normal(size=(members, model.num_parameters())) * 2)
        x = rng.normal(size=(sum(sizes), 1, 4, 4)).astype(np.float32)
        y = rng.integers(0, 5, size=sum(sizes))
        table = evaluate_loss(cohort, x[None], y, sizes)
        logits = cohort.predict(x[None])
        bounds = np.cumsum(sizes)[:-1]
        expected = [
            [
                softmax_cross_entropy(part, lab)[0]
                for part, lab in zip(np.split(member, bounds), np.split(y, bounds))
            ]
            for member in logits
        ]
        assert table.tobytes() == np.array(expected).tobytes()
        scalar = evaluate_loss(model, x, y)
        assert scalar == softmax_cross_entropy(model.predict(x), y)[0]

    def test_local_sgd_step_count(self):
        model = mlp(2, input_shape=(1, 2, 2), hidden=4, rng=0)
        x = np.zeros((25, 1, 2, 2), dtype=np.float32)
        y = np.zeros(25, dtype=np.int64)
        opt = SGD(model, lr=0.01)
        _, steps = local_sgd(model, opt, x, y, epochs=3, batch_size=10, rng=np.random.default_rng(0))
        assert steps == 3 * 3  # ceil(25/10) = 3 batches per epoch

    def test_evaluate_empty_raises(self):
        model = mlp(2, input_shape=(1, 2, 2), rng=0)
        with pytest.raises(ValueError):
            evaluate_accuracy(model, np.zeros((0, 1, 2, 2)), np.zeros(0))


class TestAggregationHelpers:
    def test_weighted_average_basic(self):
        v = [np.array([0.0, 0.0]), np.array([1.0, 2.0])]
        out = weighted_average(v, [1, 3])
        np.testing.assert_allclose(out, [0.75, 1.5])

    def test_weighted_average_identity(self):
        v = [np.array([1.0, 2.0, 3.0])]
        np.testing.assert_allclose(weighted_average(v, [5]), v[0])

    def test_weighted_average_validation(self):
        with pytest.raises(ValueError):
            weighted_average([], [])
        with pytest.raises(ValueError):
            weighted_average([np.zeros(2)], [1, 2])
        with pytest.raises(ValueError):
            weighted_average([np.zeros(2), np.zeros(2)], [0, 0])

    @given(
        weights=st.lists(st.floats(0.01, 100), min_size=2, max_size=6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_average_within_hull(self, weights, seed):
        """The weighted average lies inside the coordinate-wise min/max."""
        rng = np.random.default_rng(seed)
        vecs = [rng.normal(size=4) for _ in weights]
        out = weighted_average(vecs, weights)
        stack = np.stack(vecs)
        assert (out >= stack.min(axis=0) - 1e-12).all()
        assert (out <= stack.max(axis=0) + 1e-12).all()

    def test_average_states(self):
        s1 = {"m": np.array([0.0, 0.0])}
        s2 = {"m": np.array([2.0, 4.0])}
        out = average_states([s1, s2], [1, 1])
        np.testing.assert_allclose(out["m"], [1.0, 2.0])

    def test_average_states_empty(self):
        assert average_states([], []) == {}
