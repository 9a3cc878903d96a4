"""Adversarial federation: byzantine attacks + robust aggregation rules.

The contract (see ``docs/architecture.md`` "Threat model"): the default
``attack=none`` / ``aggregator=weighted`` pair is bit-for-bit the seed
engine (also pinned by the golden suite); adversary rosters are a seeded
pure function of the run seed, drawn over the full id space; poisoning
happens before the codec, identically across schedulers and backends;
robust rules defend per cluster and satisfy the classic aggregation
properties (permutation invariance, median fixed points, Krum's
minority-exclusion guarantee).

``tests/test_robustness.py`` is the *failure-injection* suite (benign
unreliability); this file covers the byzantine half.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import assert_vector_contract, canonical_history, params_digest
from repro.algorithms import build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.fl.aggregation import (
    WEIGHTED,
    ClipAggregator,
    KrumAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    TrimmedMeanAggregator,
    WeightedAggregator,
    make_aggregator,
)
from repro.fl.attacks import (
    NULL_ATTACK,
    LabelFlipAttack,
    NoiseAttack,
    ScaleAttack,
    SignFlipAttack,
    make_attack,
)
from repro.fl.config import FLConfig
from repro.fl.server import ClientUpdate
from repro.nn.models import mlp
from repro.utils.rng import RngFactory


def fresh_fed(num_clients: int = 8, n_samples: int = 400):
    ds = make_dataset("cifar10", seed=0, n_samples=n_samples, size=8)
    return build_federated_dataset(
        ds, "label_skew", num_clients=num_clients, frac_labels=0.2, rng=0,
        num_label_sets=3,
    )


def model_fn_for(fed):
    def model_fn(rng):
        return mlp(fed.num_classes, fed.input_shape, hidden=16, rng=rng)

    return model_fn


def run_one(fed, method="fedavg", seed=0, extra=None, **cfg_kwargs):
    kwargs = dict(
        rounds=4, sample_rate=0.5, local_epochs=1, batch_size=10, lr=0.05,
        eval_every=1,
    )
    kwargs.update(cfg_kwargs)
    cfg = FLConfig(**kwargs).with_extra(**(extra or {}))
    algo = build_algorithm(method, fed, model_fn_for(fed), cfg, seed=seed)
    history = algo.run()
    return history, algo


def update(client_id=0, params=None, n=10):
    return ClientUpdate(
        client_id=client_id,
        params=np.zeros(4) if params is None else np.asarray(params, float),
        n_samples=n, steps=1, loss=0.0,
    )


# ----------------------------------------------------------------------
# roster assignment
# ----------------------------------------------------------------------
class TestRoster:
    def test_exact_count_sorted_in_range(self):
        atk = make_attack(num_clients=10, rngs=RngFactory(0),
                          attack="signflip:frac=0.2")
        assert len(atk.roster) == 2
        assert list(atk.roster) == sorted(atk.roster)
        assert set(atk.roster) <= set(range(10))

    def test_pure_function_of_seed(self):
        a = make_attack(num_clients=20, rngs=RngFactory(7),
                        attack="signflip:frac=0.3")
        b = make_attack(num_clients=20, rngs=RngFactory(7),
                        attack="labelflip:frac=0.3")
        c = make_attack(num_clients=20, rngs=RngFactory(8),
                        attack="signflip:frac=0.3")
        assert a.roster == b.roster  # behaviour-independent assignment
        assert a.roster != c.roster

    def test_frac_extremes(self):
        none = make_attack(num_clients=10, rngs=RngFactory(0),
                           attack="signflip:frac=0.0")
        all_ = make_attack(num_clients=10, rngs=RngFactory(0),
                           attack="signflip:frac=1.0")
        assert none.roster == ()
        assert all_.roster == tuple(range(10))

    def test_start_gates_poisoning(self):
        atk = make_attack(num_clients=4, rngs=RngFactory(0),
                          attack="signflip:frac=1.0,start=3")
        assert not atk.poisons(0, 2)
        assert atk.poisons(0, 3)
        assert atk.is_adversary(0)  # allegiance exists before start

    def test_state_dict_roundtrip_and_mismatch(self):
        atk = make_attack(num_clients=10, rngs=RngFactory(0),
                          attack="signflip:frac=0.2")
        atk.load_state_dict(atk.state_dict())  # self-consistent
        with pytest.raises(ValueError, match="roster"):
            atk.load_state_dict({"roster": [0, 1, 2]})

    def test_null_attack_is_inert(self):
        assert not NULL_ATTACK.enabled
        assert NULL_ATTACK.roster == ()
        assert not NULL_ATTACK.poisons(0, 99)
        assert NULL_ATTACK.state_dict() == {}
        NULL_ATTACK.load_state_dict({"roster": [1]})  # never raises

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="atk_frac"):
            make_attack(num_clients=4, rngs=RngFactory(0),
                        attack="signflip:frac=1.5")
        with pytest.raises(ValueError, match="atk_noise_std"):
            make_attack(num_clients=4, rngs=RngFactory(0),
                        attack="noise:std=0")
        with pytest.raises(ValueError, match="atk_scale"):
            make_attack(num_clients=4, rngs=RngFactory(0),
                        attack="scale:factor=0")


# ----------------------------------------------------------------------
# poison math (unit level, engine-free)
# ----------------------------------------------------------------------
class TestPoisonMath:
    def _attack(self, cls, **extra):
        return cls(4, RngFactory(0), {"atk_frac": 1.0, **extra})

    def test_signflip_mirrors_through_reference(self):
        atk = self._attack(SignFlipAttack)
        ref = np.array([1.0, 2.0, 3.0])
        u = update(params=[2.0, 2.0, 2.0])
        got = atk.poison_params(None, u, ref, 1)
        np.testing.assert_array_equal(got, 2.0 * ref - u.params)

    def test_scale_boosts_delta(self):
        atk = self._attack(ScaleAttack, atk_scale=10.0)
        ref = np.zeros(3)
        u = update(params=[1.0, -1.0, 0.5])
        got = atk.poison_params(None, u, ref, 1)
        np.testing.assert_array_equal(got, 10.0 * u.params)

    def test_noise_is_keyed_and_deterministic(self):
        atk = self._attack(NoiseAttack, atk_noise_std=0.5)
        u = update(client_id=2, params=[0.0, 0.0])
        a = atk.poison_params(None, u, None, 3)
        b = atk.poison_params(None, u, None, 3)
        c = atk.poison_params(None, u, None, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_labelflip_map_is_an_involution(self):
        atk = self._attack(LabelFlipAttack)
        y = np.array([0, 1, 2, 9])
        np.testing.assert_array_equal(
            atk.flip_labels(atk.flip_labels(y, 10), 10), y
        )
        np.testing.assert_array_equal(atk.flip_labels(y, 10), [9, 8, 7, 0])
        # upload-side hook leaves the honest-looking update alone
        assert atk.poison_params(None, update(), None, 1) is None


# ----------------------------------------------------------------------
# aggregation rules (unit level)
# ----------------------------------------------------------------------
class TestAggregators:
    def test_weighted_singleton_matches_fresh_instance(self):
        vs = [np.array([1.0, 2.0]), np.array([3.0, 6.0])]
        np.testing.assert_array_equal(
            WEIGHTED.combine(vs, [1, 3]),
            WeightedAggregator().combine(vs, [1, 3]),
        )

    def test_median_hand_case_honors_weights(self):
        agg = MedianAggregator()
        vs = [np.array([0.0]), np.array([1.0]), np.array([100.0])]
        # equal weights: lower median = the middle value
        np.testing.assert_array_equal(agg.combine(vs, [1, 1, 1]), [1.0])
        # weight mass on the first value drags the median there
        np.testing.assert_array_equal(agg.combine(vs, [5, 1, 1]), [0.0])

    def test_trimmed_drops_the_outlier(self):
        agg = make_aggregator(aggregator="trimmed:trim=0.34")
        vs = [np.array([0.0]), np.array([1.0]), np.array([1000.0])]
        np.testing.assert_array_equal(agg.combine(vs, [1, 1, 1]), [1.0])

    def test_krum_small_cohort_falls_back_to_mean(self):
        agg = KrumAggregator()
        vs = [np.array([0.0]), np.array([2.0])]
        np.testing.assert_array_equal(agg.combine(vs, [1, 1]), [1.0])

    def test_multikrum_averages_m_closest(self):
        agg = make_aggregator(aggregator="multikrum:m=2")
        assert isinstance(agg, MultiKrumAggregator)
        vs = [np.array([0.0]), np.array([0.2]), np.array([0.1]),
              np.array([50.0]), np.array([0.05])]
        got = agg.combine(vs, [1.0] * 5)
        assert 0.0 <= got[0] <= 0.2  # outlier never mixed in

    def test_clip_bounds_the_boosted_update(self):
        agg = make_aggregator(aggregator="clip:norm=1.0")
        assert isinstance(agg, ClipAggregator)
        ref = np.zeros(2)
        vs = [np.array([0.6, 0.0]), np.array([0.8, 0.0]),
              np.array([100.0, 0.0])]
        got = agg.combine(vs, [1, 1, 1], ref=ref)
        # the boosted delta is cut to norm 1 before the mean
        np.testing.assert_allclose(got, [(0.6 + 0.8 + 1.0) / 3.0, 0.0])

    def test_clip_without_reference_is_plain_mean(self):
        agg = make_aggregator(aggregator="clip")
        vs = [np.array([1.0]), np.array([3.0])]
        np.testing.assert_array_equal(agg.combine(vs, [1, 1]), [2.0])

    def test_combine_states_applies_rule_per_key(self):
        agg = MedianAggregator()
        states = [
            {"bn": np.array([[0.0, 10.0]])},
            {"bn": np.array([[1.0, 20.0]])},
            {"bn": np.array([[9.0, 30.0]])},
        ]
        out = agg.combine_states(states, [1, 1, 1])
        np.testing.assert_array_equal(out["bn"], [[1.0, 20.0]])
        assert out["bn"].shape == (1, 2)

    def test_krum_states_follow_param_selection(self):
        agg = KrumAggregator()
        vs = [np.array([0.0]), np.array([0.1]), np.array([0.05]),
              np.array([99.0])]
        agg.combine(vs, [1.0] * 4)
        states = [{"s": np.array([float(i)])} for i in range(4)]
        out = agg.combine_states(states, [1.0] * 4)
        assert float(out["s"][0]) in {0.0, 1.0, 2.0}  # never the outlier's

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="agg_trim_frac"):
            make_aggregator(aggregator="trimmed:trim=0.5")
        with pytest.raises(ValueError, match="nothing to average"):
            MedianAggregator().combine([], [])
        with pytest.raises(ValueError, match="weights"):
            MedianAggregator().combine([np.zeros(2)], [-1.0])


# ----------------------------------------------------------------------
# aggregation properties (Hypothesis)
# ----------------------------------------------------------------------
_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                    width=64)


@st.composite
def cohorts(draw, min_n=2, max_n=8, dim=3):
    n = draw(st.integers(min_n, max_n))
    vecs = [
        np.asarray(draw(st.lists(_floats, min_size=dim, max_size=dim)))
        for _ in range(n)
    ]
    weights = draw(
        st.lists(st.floats(0.1, 10.0, width=64), min_size=n, max_size=n)
    )
    return vecs, weights


class TestAggregatorProperties:
    @given(data=cohorts(), perm_seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, data, perm_seed):
        vecs, weights = data
        order = np.random.default_rng(perm_seed).permutation(len(vecs))
        pv = [vecs[i] for i in order]
        pw = [weights[i] for i in order]
        for agg in (WeightedAggregator(), MedianAggregator()):
            np.testing.assert_allclose(
                agg.combine(vecs, list(weights)), agg.combine(pv, pw),
                rtol=1e-9, atol=1e-9,
                err_msg=f"{type(agg).__name__} is order-sensitive",
            )
        # trimmed breaks ties by position, so invariance is only exact
        # when tied coordinates carry equal weight
        eq = [1.0] * len(vecs)
        agg = TrimmedMeanAggregator({"agg_trim_frac": 0.2})
        np.testing.assert_allclose(
            agg.combine(vecs, eq), agg.combine(pv, eq),
            rtol=1e-9, atol=1e-9,
            err_msg="TrimmedMeanAggregator is order-sensitive",
        )

    @given(data=cohorts())
    @settings(max_examples=60, deadline=None)
    def test_trim_zero_equals_weighted_on_equal_weights(self, data):
        vecs, _ = data
        w = [1.0] * len(vecs)
        np.testing.assert_allclose(
            TrimmedMeanAggregator({"agg_trim_frac": 0.0}).combine(vecs, w),
            WeightedAggregator().combine(vecs, w),
            rtol=1e-12, atol=1e-12,
        )

    @given(vec=st.lists(_floats, min_size=1, max_size=6),
           n=st.integers(1, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_median_fixed_point_on_identical_updates(self, vec, n, data):
        v = np.asarray(vec)
        weights = data.draw(
            st.lists(st.floats(0.1, 10.0, width=64), min_size=n, max_size=n)
        )
        got = MedianAggregator().combine([v.copy() for _ in range(n)], weights)
        np.testing.assert_array_equal(got, v)  # exact, not approximate

    @given(n_honest=st.integers(4, 8), n_adv=st.integers(1, 2),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_krum_never_selects_a_minority_outlier(self, n_honest, n_adv,
                                                   seed):
        rng = np.random.default_rng(seed)
        honest = [rng.normal(0.0, 1.0, size=4) for _ in range(n_honest)]
        poisoned = [rng.normal(1000.0, 1.0, size=4) for _ in range(n_adv)]
        vecs = honest + poisoned
        agg = KrumAggregator({"agg_krum_f": n_adv})
        got = agg.combine(vecs, [1.0] * len(vecs))
        assert agg._selected is not None
        assert all(i < n_honest for i in agg._selected), (
            "Krum selected a poisoned update"
        )
        assert np.abs(got).max() < 100.0


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_explicit_defaults_match_implicit_bitwise(self):
        base_h, base_a = run_one(fresh_fed())
        expl_h, expl_a = run_one(
            fresh_fed(), attack="none", aggregator="weighted"
        )
        assert canonical_history(expl_h) == canonical_history(base_h)
        assert params_digest(expl_a) == params_digest(base_a)

    def test_zero_fraction_attack_is_the_clean_run(self):
        base_h, base_a = run_one(fresh_fed())
        zero_h, zero_a = run_one(
            fresh_fed(), attack="signflip:frac=0.0"
        )
        assert canonical_history(zero_h) == canonical_history(base_h)
        assert params_digest(zero_a) == params_digest(base_a)

    def test_late_start_attack_is_the_clean_run(self):
        base_h, base_a = run_one(fresh_fed())
        late_h, late_a = run_one(
            fresh_fed(), attack="signflip:frac=0.5,start=99"
        )
        assert canonical_history(late_h) == canonical_history(base_h)
        assert params_digest(late_a) == params_digest(base_a)

    @pytest.mark.parametrize("attack", [
        "labelflip:frac=0.25", "signflip:frac=0.25", "noise:frac=0.25",
        "scale:frac=0.25",
    ])
    def test_every_attack_perturbs_the_run(self, attack):
        _, base_a = run_one(fresh_fed())
        _, atk_a = run_one(fresh_fed(), attack=attack)
        assert params_digest(atk_a) != params_digest(base_a)
        assert len(atk_a.attack.roster) == 2

    @pytest.mark.parametrize("aggregator", [
        "median", "trimmed:trim=0.25", "krum", "multikrum", "clip",
    ])
    def test_every_rule_runs_every_algorithm_family(self, aggregator):
        for method in ("fedavg", "fedclust", "lg"):
            history, _ = run_one(
                fresh_fed(), method=method, aggregator=aggregator, rounds=2,
            )
            assert np.isfinite(history.accuracies).all()

    def test_attack_identical_across_backends(self):
        opts = dict(attack="signflip:frac=0.25", aggregator="median")
        serial, vector = (
            run_one(fresh_fed(), backend=backend, **opts)
            for backend in ("serial", "vector")
        )
        assert_vector_contract(serial, vector)
        assert serial[1].attack.roster == vector[1].attack.roster

    def test_attack_identical_across_schedulers_roster(self):
        """All schedulers draw the same adversaries (assignment precedes
        scheduling) even though trajectories legally differ."""
        rosters = {}
        for sched in ("sync", "semisync", "buffered:bs=2"):
            _, algo = run_one(
                fresh_fed(), scheduler=sched, attack="scale:frac=0.25",
            )
            rosters[sched] = algo.attack.roster
        assert len(set(rosters.values())) == 1

    def test_attack_composes_with_lossy_codec_and_churn(self):
        history, algo = run_one(
            fresh_fed(), method="fedclust", codec="topk",
            population="churn", attack="signflip:frac=0.25",
            aggregator="trimmed:trim=0.25", rounds=5,
        )
        assert np.isfinite(history.accuracies).all()
        assert len(algo.attack.roster) == 2

    def test_telemetry_records_assignment_and_poisoning(self):
        history, algo = run_one(
            fresh_fed(), telemetry="on", attack="signflip:frac=0.25",
        )
        events = algo.telemetry.events
        assigns = [e for e in events if e["type"] == "attack_assign"]
        poisons = [e for e in events if e["type"] == "poisoned_update"]
        assert sorted(e["client"] for e in assigns) == list(algo.attack.roster)
        assert poisons, "no upload was ever poisoned"
        assert all(e["attack"] == "signflip" for e in poisons)
        assert {e["client"] for e in poisons} <= set(algo.attack.roster)
        # per-record counter deltas sum to the event count
        total = sum(
            r.extras["metrics"]["counters"].get("poisoned_updates", 0)
            for r in history.records
        )
        assert total == len(poisons)

    def test_telemetry_counts_clipped_updates(self):
        history, algo = run_one(
            fresh_fed(), telemetry="on", attack="scale:frac=0.25",
            aggregator="clip",
        )
        total = sum(
            r.extras["metrics"]["counters"].get("clipped_updates", 0)
            for r in history.records
        )
        assert total > 0, "the boosted updates were never clipped"

    def test_unknown_prefix_keys_rejected(self):
        with pytest.raises(ValueError, match="atk_"):
            FLConfig(extra={"atk_bogus": 1})
        with pytest.raises(ValueError, match="agg_"):
            FLConfig(extra={"agg_bogus": 1})
