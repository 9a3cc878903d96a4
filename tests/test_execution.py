"""Execution backends: serial / vector equivalence and plumbing.

The engine's promise (see ``docs/architecture.md``) is that the execution
backend changes wall-clock time and, for ``vector``, float accumulation
order only: histories agree within the pinned ``VECTOR_*`` tolerance, and
communication bills and cluster assignments exactly, because client tasks
are pure functions of ``(server state, client id, round)`` and every
random draw is keyed by name, not call order.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from golden import (
    DATA_DIR,
    SIM_SECONDS_RTOL,
    assert_vector_contract,
    canonical_history,
    params_digest,
)

from repro.algorithms import IFCA, FedAvg, FedProx, build_algorithm
from repro.core.fedclust import FedClust
from repro.data import build_federated_dataset, make_dataset
from repro.fl import registry
from repro.fl.config import FLConfig
from repro.fl.execution import (
    VECTOR_ACC_ATOL,
    VECTOR_LOSS_RTOL,
    CohortRunner,
    SerialBackend,
    make_backend,
    run_spec,
)
from repro.fl.server import ClientUpdate, FederatedAlgorithm
from repro.nn.layers import BatchNorm, Dense, Flatten, Layer, ReLU
from repro.nn.model import Sequential
from repro.nn.models import lenet5, mlp
from repro.nn.parameter import Parameter
from repro.utils.io import load_history, save_history
from repro.utils.rng import as_generator


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


def bn_model_fn_for(fed):
    """An mlp with a BatchNorm layer: a model with non-trainable buffers."""

    def model_fn(rng):
        rng = as_generator(rng)
        d = int(np.prod(fed.input_shape))
        return Sequential(
            Flatten(),
            Dense(d, 16, rng, np.float32, name="fc1"),
            BatchNorm(16, name="bn1"),
            ReLU(),
            Dense(16, fed.num_classes, rng, np.float32, name="head",
                  classifier_head=True),
        )

    return model_fn


def lenet_model_fn_for(fed):
    def model_fn(rng):
        return lenet5(fed.num_classes, fed.input_shape, rng=rng)

    return model_fn


class Scale(Layer):
    """A parametric layer with one-model kernels only (no ``forward_many``)."""

    def __init__(self, features):
        self.g = Parameter(np.ones(features, np.float32), "scale.g")
        self._x = None

    def parameters(self):
        return [self.g]

    def forward(self, x, train=True):
        self._x = x if train else None
        return x * self.g.data

    def backward(self, dout):
        self.g.grad += (dout * self._x).sum(axis=0)
        return dout * self.g.data


def scale_model_fn_for(fed):
    """An mlp with a :class:`Scale` layer: a model without cohort kernels."""

    def model_fn(rng):
        rng = as_generator(rng)
        d = int(np.prod(fed.input_shape))
        return Sequential(
            Flatten(),
            Dense(d, 16, rng, np.float32, name="fc1"),
            Scale(16),
            ReLU(),
            Dense(16, fed.num_classes, rng, np.float32, name="head",
                  classifier_head=True),
        )

    return model_fn


def config_for(backend: str, **extra) -> FLConfig:
    return FLConfig(
        rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10, lr=0.05,
        eval_every=1, dropout_rate=0.2, backend=backend,
    ).with_extra(**extra)


def run_one(fed, method: str, backend: str, model_fn_for=model_fn_for, **extra):
    cfg = config_for(backend, **extra)
    algo = build_algorithm(method, fed, model_fn_for(fed), cfg, seed=0)
    history = algo.run()
    return history, algo


class TestBackendEquivalence:
    """Serial and vector runs of a model with BatchNorm buffers agree
    within the ``VECTOR_*`` contract, and on cluster assignments exactly
    (the vector path stacks and unstacks each member's running stats;
    ``TestVectorBackendEquivalence`` covers the stateless model).  The
    names say bit-identical; only the contract is asserted, because
    whether ``vector`` comes out bitwise depends on the BLAS build."""

    @pytest.mark.parametrize("method,extra", [
        ("fedclust", {"lam": "auto"}),
        ("ifca", {"num_clusters": 2}),
    ])
    def test_bit_identical_histories(self, fed, method, extra):
        serial, vector = (
            run_one(fed, method, backend, bn_model_fn_for, **extra)
            for backend in ("serial", "vector")
        )
        assert_vector_contract(serial, vector)
        # cluster structure is part of the contract too
        np.testing.assert_array_equal(serial[1].cluster_of, vector[1].cluster_of)

    @pytest.mark.parametrize("method", ["fedavg", "local", "scaffold"])
    def test_bit_identical_other_families(self, fed, method):
        assert_vector_contract(
            run_one(fed, method, "serial", bn_model_fn_for),
            run_one(fed, method, "vector", bn_model_fn_for),
        )

    def test_eval_matches_serial_per_client(self, fed):
        _, serial_algo = run_one(fed, "fedclust", "serial", bn_model_fn_for,
                                 lam="auto")
        _, algo = run_one(fed, "fedclust", "vector", bn_model_fn_for,
                          lam="auto")
        np.testing.assert_allclose(
            algo.per_client_accuracy(), serial_algo.per_client_accuracy(),
            atol=VECTOR_ACC_ATOL,
        )


class TestRoundTiming:
    def test_history_records_wall_clock(self, fed):
        history, _ = run_one(fed, "fedavg", "serial")
        assert (history.seconds > 0).all()
        assert history.setup_seconds >= 0.0
        assert history.total_seconds() >= float(history.seconds.sum())
        assert history.total_seconds(include_setup=False) == pytest.approx(
            float(history.seconds.sum())
        )

    def test_fedclust_setup_time_is_measured(self, fed):
        history, _ = run_one(fed, "fedclust", "serial", lam="auto")
        # the one-shot clustering round does real work
        assert history.setup_seconds > 0.0

    def test_timing_roundtrips_through_json(self, fed, tmp_path):
        history, _ = run_one(fed, "fedavg", "serial")
        path = tmp_path / "history.json"
        save_history(history, path)
        loaded = load_history(path)
        np.testing.assert_array_equal(history.seconds, loaded.seconds)
        assert loaded.setup_seconds == history.setup_seconds


class TestBackendPlumbing:
    def test_registry_and_factory(self):
        assert set(registry.classes("backend")) == {"serial", "vector"}
        assert isinstance(make_backend(backend="serial"), SerialBackend)
        assert isinstance(make_backend(backend="vector"), CohortRunner)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend(backend="cluster")

    def test_auto_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        assert isinstance(make_backend(backend="auto"), CohortRunner)
        monkeypatch.delenv("REPRO_BACKEND")
        assert isinstance(make_backend(backend="auto"), SerialBackend)

    def test_config_validates_backend_fields(self):
        with pytest.raises(ValueError, match="backend"):
            FLConfig(backend="gpu")

    def test_removed_backends_and_workers_rejected(self, monkeypatch):
        """Only serial and vector exist and there is no ``workers`` knob:
        asking for a thread/process backend or a worker count fails with
        the existing errors, and ``REPRO_WORKERS`` is ignored."""
        from repro.experiments.__main__ import main

        for name in ("thread", "process"):
            with pytest.raises(ValueError, match="unknown execution backend"):
                FLConfig(backend=name)
        with pytest.raises(TypeError, match="workers"):
            FLConfig(workers=2)
        with pytest.raises(ValueError, match="unknown option 'workers'"):
            make_backend(backend="vector:workers=2")
        with pytest.raises(SystemExit):
            main(["figure1", "--scale", "smoke", "--workers", "2"])
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert isinstance(make_backend(backend="auto"), SerialBackend)

    def test_backend_map_preserves_submission_order(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05)
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        for backend in (SerialBackend(), CohortRunner()):
            updates = backend.run_updates(algo, 1, [3, 0, 5])
            assert [u.client_id for u in updates] == [3, 0, 5]


class TestIfcaAssignmentRefresh:
    def test_unsampled_clients_get_assignments(self, fed):
        """Evaluation refreshes ``cluster_of`` for every client, including
        ones never sampled into a round (seed semantics, main-thread
        writes only)."""
        h, algo = run_one(fed, "ifca", "serial", num_clusters=2)
        expected = [algo._best_cluster(cid) for cid in range(fed.num_clients)]
        assert list(algo.cluster_of) == expected


class TestIfcaOnVector:
    """IFCA runs on the cohort path under ``vector``: each dispatch is
    assigned in one scoring pass, then trains and evaluates as ordinary
    default-recipe cohort tasks."""

    def test_many_client_assignment_equals_per_client(self, fed):
        _, algo = run_one(fed, "ifca", "vector", num_clusters=3)
        ids = list(range(fed.num_clients))
        per_client = [algo._best_cluster(c) for c in ids]
        # the trained cluster models have diverged: clients pick apart
        assert len(set(per_client)) > 1
        assert algo._best_clusters(ids) == per_client
        assert algo._best_clusters(ids[::-1]) == per_client[::-1]

    @pytest.mark.parametrize("backend", ["serial", "vector"])
    def test_one_loss_call_per_scoring_pass(self, fed, monkeypatch, backend):
        """All k cluster models are scored by one ``evaluate_loss`` call
        (the name a traced run times as ``ifca.assign_s``), not k."""
        import repro.algorithms.ifca as ifca_mod

        calls = {"evaluate_loss": 0, "_best_clusters": 0}
        real_loss = ifca_mod.evaluate_loss
        real_best = ifca_mod.IFCA._best_clusters

        def counting_loss(*args, **kwargs):
            calls["evaluate_loss"] += 1
            return real_loss(*args, **kwargs)

        def counting_best(self, client_ids):
            calls["_best_clusters"] += 1
            return real_best(self, client_ids)

        monkeypatch.setattr(ifca_mod, "evaluate_loss", counting_loss)
        monkeypatch.setattr(ifca_mod.IFCA, "_best_clusters", counting_best)
        run_one(fed, "ifca", backend, num_clusters=3)
        assert calls["_best_clusters"] > 0
        assert calls["evaluate_loss"] == calls["_best_clusters"], calls


class TestEverySpecRunsAsACohort:
    """Under ``vector`` every spec of a spec dispatch runs in
    ``CohortRunner``'s cohorts, a spec alone in its shape group as a
    cohort of one.  ``serial`` runs each spec's recipe on the work model
    as a cohort of one, so the two agree bit for bit."""

    @pytest.mark.parametrize("model_fn_for", [
        model_fn_for, bn_model_fn_for, lenet_model_fn_for,
    ], ids=["mlp", "bn-mlp", "lenet5"])
    @pytest.mark.parametrize("method,extra", [
        ("fedavg", {}),
        ("fedprox", {}),
        ("fedclust", {"lam": "auto"}),
        ("ifca", {"num_clusters": 2}),
    ], ids=["fedavg", "fedprox", "fedclust", "ifca"])
    def test_unequal_shards_match_serial(
        self, monkeypatch, model_fn_for, method, extra
    ):
        """The Dirichlet federation's unequal shards leave one-member
        train and eval groups: under ``vector`` no spec dispatch falls
        back to ``local_train``/``local_eval``; under ``serial`` every
        task runs them, and they train and evaluate cohorts of one.  The
        runs are equal exactly."""
        import repro.fl.training as training
        from test_registry import TestGoldenEquivalence as G

        fed = G._fed("dirichlet")
        calls, cohorts = [], []
        for recipe in ("local_train", "local_eval"):
            real = getattr(FederatedAlgorithm, recipe)

            def spy(self, *args, _real=real, **kwargs):
                calls.append(_real.__name__)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(FederatedAlgorithm, recipe, spy)
        # the recipes' cohort routines (CohortRunner imports its own names)
        for name in ("local_sgd_many", "evaluate_accuracy_many"):
            real = getattr(training, name)

            def cohort_spy(model, *args, _real=real, **kwargs):
                cohorts.append(model.cohort)
                return _real(model, *args, **kwargs)

            monkeypatch.setattr(training, name, cohort_spy)
        runs = {}
        for backend in ("serial", "vector"):
            calls.clear()
            cohorts.clear()
            history, algo = run_one(fed, method, backend, model_fn_for, **extra)
            runs[backend] = (canonical_history(history), params_digest(algo))
            assert bool(calls) == (backend == "serial"), (backend, calls)
            assert set(cohorts) == ({1} if backend == "serial" else set())
        assert runs["vector"] == runs["serial"]

    def test_vector_needs_cohort_kernels(self, fed):
        """A parametric layer without ``forward_many`` runs on neither
        backend: its cohort kernels would be its only kernels, since
        ``serial`` runs each model as a cohort of one, so both backends
        name the layer."""
        for backend in ("serial", "vector"):
            with pytest.raises(NotImplementedError, match="Scale"):
                run_one(fed, "fedavg", backend, scale_model_fn_for)

    @pytest.mark.parametrize("backend", ["serial", "vector"])
    def test_ifca_scoring_needs_cohort_kernels(self, fed, backend):
        """IFCA scores its k models as one cohort on both backends."""
        with pytest.raises(NotImplementedError, match="Scale"):
            run_one(fed, "ifca", backend, scale_model_fn_for, num_clusters=3)

    @pytest.mark.parametrize("backend", ["serial", "vector"])
    def test_stateful_model_needs_buffers_in_every_spec(self, fed, backend):
        """A spec without buffers for a model with buffers is refused:
        the task would run on whatever the previous task left in the
        work model."""

        class NoBuffers(FedAvg):
            def state_for_client(self, client_id, round_idx):
                return {}

            def eval_state_for_client(self, client_id):
                return {}

        algo = NoBuffers(fed, bn_model_fn_for(fed), config_for(backend))
        with pytest.raises(ValueError, match="fedavg.*state_for_client"):
            algo.run()


class TestBespokeLoopGoldens:
    """SCAFFOLD, FedDyn and Per-FedAvg step on raw gradients in client
    loops of their own (``grad_on_batch``), through Dense, BatchNorm and
    Conv2d.  Each loop is pinned in ``tests/data/golden_bespoke.json`` on
    the three test models, as captured on ``serial``; ``vector`` runs the
    same loops and reproduces the capture."""

    MODELS = {
        "mlp": model_fn_for, "bn-mlp": bn_model_fn_for, "lenet5": lenet_model_fn_for,
    }

    @pytest.mark.parametrize("backend", ["serial", "vector"])
    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("method", ["scaffold", "feddyn", "perfedavg"])
    def test_matches_pinned_capture(self, fed, golden_compare, method, model, backend):
        history, algo = run_one(fed, method, backend, self.MODELS[model])
        golden_compare("golden_bespoke.json", f"{method}-{model}", algo, history)


#: every spec task, as (algorithm class, method, extras)
SPEC_TASKS = [
    (FedAvg, "client_update", {}),
    (FedAvg, "evaluate_client", {}),
    (FedProx, "client_update", {}),
    (FedClust, "client_partial_weights", {"lam": "auto"}),
    (IFCA, "client_update", {"num_clusters": 2}),
    (IFCA, "_evaluate_with_cluster", {"num_clusters": 2}),
]


@pytest.fixture
def dispatched(monkeypatch):
    """Every task ``CohortRunner.map`` receives, as ``(method, args)``."""
    tasks = []
    real_map = CohortRunner.map

    def recording_map(runner, algorithm, method, argslist):
        tasks.extend((method, tuple(args)) for args in argslist)
        return real_map(runner, algorithm, method, argslist)

    monkeypatch.setattr(CohortRunner, "map", recording_map)
    return tasks


def assert_same_result(got, want):
    if isinstance(got, ClientUpdate):
        got, want = vars(got), vars(want)
    np.testing.assert_equal(got, want)


class TestOneOverrideRule:
    """``runs_as_specs`` decides, in one place, which dispatches run as
    specs.  Under ``vector`` a subclass ``def`` over a spec task, or over
    ``local_train``/``local_eval``, is called for every task, and its
    ``super()`` call returns what the parent's spec gives."""

    @pytest.mark.parametrize(
        "parent,method,extra", SPEC_TASKS,
        ids=[f"{cls.name}.{method}" for cls, method, _ in SPEC_TASKS],
    )
    def test_bespoke_def_runs_every_task(
        self, fed, dispatched, parent, method, extra
    ):
        calls = []

        def bespoke(self, *args):
            got = getattr(super(Bespoke, self), method)(*args)
            (spec,) = self.client_task_specs(method, [args])
            assert_same_result(got, run_spec(self, spec))
            calls.append(args)
            return got

        Bespoke = type(f"Bespoke{parent.__name__}", (parent,), {method: bespoke})
        Bespoke(fed, model_fn_for(fed), config_for("vector", **extra)).run()
        tasks = [args for name, args in dispatched if name == method]
        assert tasks and calls == tasks

    @pytest.mark.parametrize("recipe,method", [
        ("local_train", "client_update"),
        ("local_eval", "evaluate_client"),
    ])
    def test_recipe_def_runs_every_task(self, fed, dispatched, recipe, method):
        calls = []

        def bespoke(self, client_id, *args, **kwargs):
            calls.append(client_id)
            return getattr(super(Bespoke, self), recipe)(client_id, *args, **kwargs)

        Bespoke = type("BespokeFedAvg", (FedAvg,), {recipe: bespoke})
        Bespoke(fed, model_fn_for(fed), config_for("vector")).run()
        tasks = [args[0] for name, args in dispatched if name == method]
        assert tasks and calls == tasks

    def test_unmarked_task_is_not_a_spec(self, fed):
        algo = FedAvg(fed, model_fn_for(fed), config_for("serial"))
        with pytest.raises(ValueError, match="not a spec task"):
            algo.client_task_specs("client_partial_weights", [(0,)])


class TestCliEnvHygiene:
    def test_backend_flag_does_not_leak_env(self, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        import os

        assert main(["figure1", "--scale", "smoke", "--backend", "vector"]) == 0
        assert "REPRO_BACKEND" not in os.environ


class TestVectorBackendEquivalence:
    """The opt-in ``vector`` backend stacks same-shape client models into
    one cohort tensor and runs batched kernels; histories must stay within
    the pinned tolerances (``VECTOR_*`` in ``repro.fl.execution``) across
    algorithm families, with byte metering exact.  Families with bespoke
    client loops (scaffold) serial-fallback by design and come out
    bit-for-bit."""

    @pytest.mark.parametrize("method,extra", [
        ("fedavg", {}),
        ("fedprox", {}),
        ("local", {}),
        ("scaffold", {}),
        ("fedclust", {"lam": "auto"}),
        ("ifca", {"num_clusters": 2}),
    ])
    def test_within_pinned_tolerance_vs_serial(self, fed, method, extra):
        # the wire path is outside the batched compute: metering is exact
        assert_vector_contract(
            run_one(fed, method, "serial", **extra),
            run_one(fed, method, "vector", **extra),
        )

    @pytest.mark.parametrize("method", ["fedavg", "ifca"])
    def test_batched_kernels_actually_run(self, fed, monkeypatch, method):
        """Guard against silent serial fallback: the default recipe must
        go through the fused cohort trainer and evaluator, not the
        per-client loop."""
        import repro.fl.execution as exec_mod

        calls = {"local_sgd_many": 0, "evaluate_accuracy_many": 0}

        def counting(name):
            real = getattr(exec_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(exec_mod, name, counting(name))
        run_one(fed, method, "vector")
        assert all(calls.values()), calls


class TestVectorGoldenTolerance:
    """Acceptance pin: vector histories match the committed *serial*
    goldens (tests/data/golden_registry.json) within the documented
    tolerance — accuracy at ``VECTOR_ACC_ATOL``, train loss at
    ``VECTOR_LOSS_RTOL``, byte counters and extras exact, ``sim_seconds``
    at the golden rtol."""

    #: golden cases whose client recipe the CohortRunner batches; hook-
    #: overridden cases are exercised by the fallback tests above
    CASES = [
        "fedavg-default",
        "fedclust-default",
        "fedavg-int8-hetero",
        "fedclust-dirichlet",
        "ifca-flaky",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_vector_matches_pinned_serial_golden(self, case):
        from test_registry import TestGoldenEquivalence as G

        method, cfg_kw, extra, *rest = G.CASES[case]
        fed = G._fed(rest[0] if rest else "label_skew")
        cfg = FLConfig(
            rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10,
            lr=0.05, eval_every=1, backend="vector", **cfg_kw
        ).with_extra(**extra)
        algo = build_algorithm(method, fed, model_fn_for(fed), cfg, seed=0)
        history = algo.run()

        golden = json.loads(
            (DATA_DIR / "golden_registry.json").read_text()
        )[case]
        d = history.as_dict()
        np.testing.assert_allclose(
            d["accuracy"], golden["accuracy"], atol=VECTOR_ACC_ATOL
        )
        np.testing.assert_allclose(
            d["train_loss"], golden["train_loss"], rtol=VECTOR_LOSS_RTOL
        )
        for key in ("cumulative_mb", "upload_bytes", "download_bytes",
                    "extras"):
            assert d[key] == golden[key], (
                f"{case}.{key} diverged from the serial golden"
            )
        np.testing.assert_allclose(
            d["sim_seconds"], golden["sim_seconds"], rtol=SIM_SECONDS_RTOL
        )


class TestRunGuards:
    def test_run_twice_rejected(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05)
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        algo.run()
        with pytest.raises(RuntimeError, match="once"):
            algo.run()

    def test_backend_closed_after_run(self, fed):
        cfg = FLConfig(
            rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05,
            backend="vector",
        )
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        algo.run()
        assert algo._backend is None
