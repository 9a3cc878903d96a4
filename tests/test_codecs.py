"""Wire-layer codecs: round-trip, error bounds, error feedback, metering.

The contract (see ``docs/architecture.md``): a codec's ``encode`` is pure,
``encoded_nbytes`` is exact (metered, not modeled), ``decode`` returns a
float64 vector of the original shape, and the engine's wire layer applies
all of it after the round's client tasks, so the ``vector`` backend stays
within its pinned contract of serial (byte metering exact) with any codec
enabled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from golden import assert_vector_contract
from repro.algorithms import FedAvg, build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.fl import registry
from repro.fl.codecs import (
    Fp16Codec,
    IdentityCodec,
    Int8Codec,
    TopKCodec,
    make_codec,
)
from repro.fl.config import FLConfig
from repro.nn.models import mlp


def rng():
    return np.random.default_rng(0)


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


def run_one(fed, method, backend="serial", extra=None, **cfg_kw):
    kw = dict(
        rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10, lr=0.05,
        eval_every=1, backend=backend,
    )
    kw.update(cfg_kw)
    cfg = FLConfig(**kw).with_extra(**(extra or {}))
    algo = build_algorithm(method, fed, model_fn_for(fed), cfg, seed=0)
    history = algo.run()
    return history, algo


class TestRoundTrip:
    """decode(encode(x)) has the original shape and float64 dtype."""

    @pytest.mark.parametrize("name", sorted(registry.classes("codec")))
    def test_shape_and_dtype(self, name):
        codec = make_codec(codec=name)
        delta = rng().standard_normal(257)
        enc = codec.encode(0, delta, rng())
        out = codec.decode(enc)
        assert out.shape == delta.shape
        assert out.dtype == np.float64
        assert enc.nbytes > 0
        assert enc.logical_nbytes == delta.nbytes

    def test_identity_is_lossless_and_free(self):
        codec = IdentityCodec()
        delta = rng().standard_normal(100)
        enc = codec.encode(0, delta, rng())
        np.testing.assert_array_equal(codec.decode(enc), delta)
        assert enc.nbytes == delta.nbytes

    def test_encoded_nbytes_matches_encode(self):
        for name in sorted(registry.classes("codec")):
            codec = make_codec(codec=name)
            delta = rng().standard_normal(64)
            assert codec.encoded_nbytes(0, delta, rng()) == codec.encode(
                0, delta, rng()
            ).nbytes


class TestQuantization:
    def test_fp16_error_within_half_precision(self):
        delta = rng().standard_normal(1000)
        out = Fp16Codec().decode(Fp16Codec().encode(0, delta, rng()))
        # float16 has a 10-bit mantissa: relative error <= 2^-11 + eps
        np.testing.assert_allclose(out, delta, rtol=2**-10, atol=1e-7)

    def test_int8_error_bounded_by_scale(self):
        delta = rng().standard_normal(2000)
        codec = Int8Codec()
        scale = float(np.max(np.abs(delta))) / 127.0
        out = codec.decode(codec.encode(0, delta, rng()))
        assert np.max(np.abs(out - delta)) <= scale + 1e-12

    def test_int8_stochastic_rounding_is_unbiased(self):
        delta = np.full(1, 0.25)  # sits strictly between two int8 levels
        codec = Int8Codec()
        draws = np.array([
            codec.decode(codec.encode(0, delta, np.random.default_rng(i)))[0]
            for i in range(4000)
        ])
        assert abs(draws.mean() - 0.25) < 0.005

    def test_int8_zero_vector(self):
        codec = Int8Codec()
        out = codec.decode(codec.encode(0, np.zeros(16), rng()))
        np.testing.assert_array_equal(out, np.zeros(16))

    def test_int8_nbytes(self):
        delta = rng().standard_normal(100)
        enc = Int8Codec().encode(0, delta, rng())
        # one int8 per entry + float64 scale + length header
        assert enc.nbytes == 100 + 8 + 8


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        delta = np.array([0.1, -5.0, 0.2, 3.0, -0.05, 0.0, 2.0, -1.0, 0.3, 0.4])
        codec = TopKCodec(frac=0.3)
        out = codec.decode(codec.encode(0, delta, rng()))
        np.testing.assert_array_equal(
            out, [0.0, -5.0, 0.0, 3.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]
        )

    def test_nbytes_scales_with_k(self):
        delta = rng().standard_normal(1000)
        enc = TopKCodec(frac=0.05).encode(0, delta, rng())
        # 50 float64 values + 50 int32 indices + length header
        assert enc.nbytes == 50 * 8 + 50 * 4 + 8

    def test_error_feedback_telescopes_to_true_update(self):
        """Classic EF identity: transmitted sum + final residual = delta sum."""
        codec = TopKCodec(frac=0.1)
        n, cid = 300, 7
        total_delta = np.zeros(n)
        total_sent = np.zeros(n)
        g = rng()
        for _ in range(25):
            delta = g.standard_normal(n)
            enc = codec.encode(cid, delta, g)
            codec.commit(cid, enc)
            total_delta += delta
            total_sent += codec.decode(enc)
        np.testing.assert_allclose(
            total_sent + codec.residual(cid, n), total_delta, atol=1e-9
        )

    def test_encode_is_pure_without_commit(self):
        codec = TopKCodec(frac=0.1)
        delta = rng().standard_normal(100)
        first = codec.encode(3, delta, rng())
        second = codec.encode(3, delta, rng())
        np.testing.assert_array_equal(first.payload["values"], second.payload["values"])
        np.testing.assert_array_equal(
            codec.residual(3, 100), np.zeros(100)
        )  # nothing committed yet

    def test_residuals_isolated_per_client(self):
        codec = TopKCodec(frac=0.1)
        delta = rng().standard_normal(50)
        codec.commit(0, codec.encode(0, delta, rng()))
        assert np.any(codec.residual(0, 50) != 0.0)
        np.testing.assert_array_equal(codec.residual(1, 50), np.zeros(50))
        codec.reset()
        np.testing.assert_array_equal(codec.residual(0, 50), np.zeros(50))

    def test_frac_validated(self):
        with pytest.raises(ValueError, match="topk_frac"):
            TopKCodec(frac=0.0)


class TestFactoryAndConfig:
    def test_registry_and_factory(self):
        assert set(registry.classes("codec")) == {"none", "fp16", "int8", "topk"}
        assert isinstance(make_codec(codec="none"), IdentityCodec)
        assert isinstance(make_codec(codec="fp16"), Fp16Codec)
        c = make_codec(codec="topk", topk_frac=0.2)
        assert isinstance(c, TopKCodec) and c.frac == 0.2

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown codec"):
            make_codec(codec="gzip")

    def test_auto_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEC", "topk")
        monkeypatch.setenv("REPRO_TOPK_FRAC", "0.25")
        c = make_codec(codec="auto")
        assert isinstance(c, TopKCodec) and c.frac == 0.25
        monkeypatch.delenv("REPRO_CODEC")
        assert isinstance(make_codec(codec="auto"), IdentityCodec)

    def test_auto_rejects_bad_frac_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEC", "topk")
        monkeypatch.setenv("REPRO_TOPK_FRAC", "lots")
        with pytest.raises(ValueError, match="REPRO_TOPK_FRAC"):
            make_codec(codec="auto")

    def test_config_validates_wire_fields(self):
        with pytest.raises(ValueError, match="codec"):
            FLConfig(codec="gzip")
        with pytest.raises(ValueError, match="topk_frac"):
            FLConfig(topk_frac=0.0)
        with pytest.raises(ValueError, match="network"):
            FLConfig(network="5g")
        with pytest.raises(ValueError, match="deadline"):
            FLConfig(deadline=0.0)


class TestEngineIntegration:
    def test_default_config_is_identity_wire(self, fed):
        """codec=auto (env unset) == codec="none" == the seed behaviour."""
        h_default, a_default = run_one(fed, "fedavg")
        h_none, a_none = run_one(fed, "fedavg", codec="none", network="ideal")
        np.testing.assert_array_equal(h_default.accuracies, h_none.accuracies)
        np.testing.assert_array_equal(h_default.cumulative_mb, h_none.cumulative_mb)
        assert a_default.comm.total_up == a_none.comm.total_up
        assert a_default.comm.total_logical_up == a_none.comm.total_logical_up
        # the logical column reports the raw-float64 baseline even for the
        # identity codec (the fp32-native seed wire is itself 2x smaller)
        assert a_default.comm.total_logical_up == 2 * a_default.comm.total_up
        assert a_default.comm.total_logical_down == a_default.comm.total_down
        assert (h_default.sim_seconds == 0.0).all()

    @pytest.mark.parametrize("codec", ["fp16", "int8", "topk"])
    def test_compressed_uplink_metered(self, fed, codec):
        _, base = run_one(fed, "fedavg", codec="none")
        _, comp = run_one(fed, "fedavg", codec=codec)
        assert comp.comm.total_up < base.comm.total_up
        assert comp.comm.total_down == base.comm.total_down  # downlink untouched
        assert comp.comm.total_logical_up > comp.comm.total_up

    def test_aggregate_sees_decoded_params(self, fed):
        """With topk, the global model must be reachable only through the
        sparse decoded deltas: entries outside every client's top-k stay
        at their downloaded values."""
        h_none, a_none = run_one(fed, "fedavg", codec="none")
        h_topk, a_topk = run_one(fed, "fedavg", codec="topk", topk_frac=0.01)
        assert not np.array_equal(a_none.global_params, a_topk.global_params)
        # With 1% sparsity each client moves at most ceil(0.01*n) distinct
        # coordinates per round, so after 3 rounds most of the aggregated
        # model must still sit at θ⁰ (up to re-averaging float noise,
        # ~1e-16 — far below real SGD movement, ~1e-2) — impossible unless
        # aggregation consumed the sparse decoded deltas rather than the
        # dense trained parameters.
        fresh = build_algorithm(
            "fedavg", fed, model_fn_for(fed), FLConfig(rounds=1), seed=0
        )
        fresh.setup()
        moved = np.abs(a_topk.global_params - fresh.global_params) > 1e-9
        assert 0 < moved.sum() < 0.2 * a_topk.global_params.size

    def test_local_has_no_wire_to_compress(self, fed):
        h_none, a_none = run_one(fed, "local", codec="none")
        h_int8, a_int8 = run_one(fed, "local", codec="int8")
        np.testing.assert_array_equal(h_none.accuracies, h_int8.accuracies)
        assert a_int8.comm.total_bytes == 0

    def test_lg_local_layers_survive_lossy_codec(self, fed):
        """LG's local representation never crosses the wire, so the wire
        transform must leave each update's local slice bit-identical to
        the uncompressed run — only the global head degrades.  One round
        isolates the transform (later rounds legitimately diverge because
        clients *train* against the lossy global head)."""
        _, a_none = run_one(fed, "lg", codec="none", rounds=1)
        _, a_int8 = run_one(fed, "lg", codec="int8", rounds=1)
        sl = a_none._global_slice
        local_idx = np.ones(a_none.client_params[0].size, dtype=bool)
        local_idx[sl] = False
        assert not np.array_equal(a_none.global_part, a_int8.global_part)
        for p_none, p_int8 in zip(a_none.client_params, a_int8.client_params):
            np.testing.assert_array_equal(p_none[local_idx], p_int8[local_idx])

    @pytest.mark.parametrize("method,codec,extra", [
        ("fedavg", "int8", {}),
        ("fedclust", "topk", {"lam": "auto"}),
        ("ifca", "int8", {"num_clusters": 2}),
        ("scaffold", "fp16", {}),
    ])
    def test_cross_backend_bitwise_equivalence_with_codec(
        self, fed, method, codec, extra
    ):
        """The wire layer runs after the client tasks: enabling a codec
        keeps vector within the contract of serial, comm bills exact."""
        serial = run_one(fed, method, "serial", extra=extra, codec=codec)
        vector = run_one(fed, method, "vector", extra=extra, codec=codec)
        assert_vector_contract(serial, vector)
        assert serial[1].comm.total_up == vector[1].comm.total_up
        assert serial[1].comm.total_logical_up == vector[1].comm.total_logical_up

    def test_round_record_carries_span_bytes(self, fed):
        h, a = run_one(fed, "fedavg", codec="int8")
        assert int(h.upload_bytes.sum()) == a.comm.total_up
        assert int(h.download_bytes.sum()) == a.comm.total_down
        assert (h.upload_bytes > 0).all() and (h.download_bytes > 0).all()


class TestNumericHardening:
    """Wire-layer numeric edge cases: overflow, non-finite uploads."""

    def test_fp16_clips_overflow_instead_of_inf(self):
        # |delta| beyond float16's finite range (65504) must saturate,
        # not become ±inf that decode would propagate into the model
        delta = np.array([1e6, -1e6, 7e4, -7e4, 1.0, 0.0])
        codec = Fp16Codec()
        out = codec.decode(codec.encode(0, delta, rng()))
        assert np.isfinite(out).all()
        f16_max = float(np.finfo(np.float16).max)
        np.testing.assert_array_equal(
            out, np.array([f16_max, -f16_max, f16_max, -f16_max, 1.0, 0.0])
        )

    def test_fp16_nan_entries_encode_as_zero(self):
        delta = np.array([np.nan, 2.0, np.inf, -np.inf])
        codec = Fp16Codec()
        out = codec.decode(codec.encode(0, delta, rng()))
        assert np.isfinite(out).all()
        f16_max = float(np.finfo(np.float16).max)
        np.testing.assert_array_equal(out, [0.0, 2.0, f16_max, -f16_max])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_int8_nonfinite_peak_zero_encodes_and_records(self, bad):
        # a divergent client's inf/NaN delta would give scale=inf and an
        # all-NaN decode; it must zero-encode with a recorded event
        delta = np.array([1.0, bad, -2.0])
        codec = Int8Codec()
        enc = codec.encode(7, delta, rng())
        out = codec.decode(enc)
        np.testing.assert_array_equal(out, np.zeros(3))
        assert enc.nbytes == 3 + 8 + 8  # q + scale + header, like normal
        assert codec.nonfinite_clients == []  # encode is pure
        codec.commit(7, enc)
        assert codec.nonfinite_clients == [7]
        codec.reset()
        assert codec.nonfinite_clients == []

    def test_int8_finite_peaks_do_not_record(self):
        codec = Int8Codec()
        enc = codec.encode(3, np.array([1.0, -0.5]), rng())
        codec.commit(3, enc)
        assert codec.nonfinite_clients == []

    def test_one_poisoned_client_cannot_break_the_federation(self, fed):
        """Engine-level regression: an adversarial delta entry far beyond
        the float16 range survives the fp16 wire without poisoning the
        aggregate (accuracy and parameters stay finite)."""
        from repro.fl.server import FederatedAlgorithm

        class PoisonedFedAvg(FedAvg):
            def client_update(self, client_id, round_idx):
                u = super().client_update(client_id, round_idx)
                if client_id == 0:
                    u.params = u.params.copy()
                    u.params[0] = 1e38  # delta overflows float16
                return u

        cfg = FLConfig(
            rounds=2, sample_rate=1.0, local_epochs=1, batch_size=10,
            lr=0.05, eval_every=1, codec="fp16",
        )
        algo = PoisonedFedAvg(fed, model_fn_for(fed), cfg, seed=0)
        h = algo.run()
        assert np.isfinite(algo.global_params).all()
        assert np.isfinite(h.accuracies).all()


@settings(max_examples=40, deadline=None)
@given(
    codec_name=st.sampled_from(sorted(registry.classes("codec"))),
    values=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=64),
        elements=st.floats(
            min_value=-1e300, max_value=1e300,
            allow_nan=False, allow_infinity=False,
        ),
    ),
)
def test_property_every_codec_roundtrips_finite_to_finite(codec_name, values):
    """Satellite property: finite in ⇒ finite out, for every codec."""
    codec = make_codec(codec=codec_name)
    enc = codec.encode(0, values, np.random.default_rng(0))
    out = codec.decode(enc)
    assert out.shape == values.shape
    assert np.isfinite(out).all()
