"""Execution backends: serial / thread / process equivalence and plumbing.

The engine's promise (see ``docs/architecture.md``) is that the execution
backend changes *wall-clock only*: histories, communication bills, and
cluster assignments are bit-for-bit identical because client tasks are pure
functions of ``(server state, client id, round)`` and every random draw is
keyed by name, not call order.
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from golden import DATA_DIR, SIM_SECONDS_RTOL

from repro.algorithms import build_algorithm
from repro.core.fedclust import FedClust
from repro.data import build_federated_dataset, make_dataset
from repro.fl import registry
from repro.fl.config import FLConfig
from repro.fl.execution import (
    VECTOR_ACC_ATOL,
    VECTOR_LOSS_RTOL,
    VECTOR_PARAM_RTOL,
    ClientSlots,
    CohortRunner,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    _split_chunks,
    make_backend,
    resolve_workers,
)
from repro.nn.models import mlp
from repro.utils.io import load_history, save_history

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="process backend needs fork")

ALL_BACKEND_CFGS = [("serial", 0), ("thread", 3)] + (
    [("process", 3)] if HAS_FORK else []
)


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


def run_one(fed, method: str, backend: str, workers: int, **extra):
    cfg = FLConfig(
        rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10, lr=0.05,
        eval_every=1, dropout_rate=0.2, backend=backend, workers=workers,
    ).with_extra(**extra)
    algo = build_algorithm(method, fed, model_fn_for(fed), cfg, seed=0)
    history = algo.run()
    return history, algo


class TestBackendEquivalence:
    """Serial, thread, and process runs must be indistinguishable."""

    @pytest.mark.parametrize("method,extra", [
        ("fedclust", {"lam": "auto"}),
        ("ifca", {"num_clusters": 2}),
    ])
    def test_bit_identical_histories(self, fed, method, extra):
        baseline_h, baseline_a = run_one(fed, method, "serial", 0, **extra)
        for backend, workers in ALL_BACKEND_CFGS[1:]:
            h, a = run_one(fed, method, backend, workers, **extra)
            np.testing.assert_array_equal(baseline_h.accuracies, h.accuracies)
            np.testing.assert_array_equal(baseline_h.losses, h.losses)
            np.testing.assert_array_equal(
                baseline_h.cumulative_mb, h.cumulative_mb
            )
            # cluster structure is part of the contract too
            np.testing.assert_array_equal(baseline_a.cluster_of, a.cluster_of)
            for p, q in zip(baseline_a.cluster_params, a.cluster_params):
                np.testing.assert_array_equal(p, q)

    @pytest.mark.parametrize("method", ["fedavg", "local", "scaffold"])
    def test_bit_identical_other_families(self, fed, method):
        baseline_h, _ = run_one(fed, method, "serial", 0)
        for backend, workers in ALL_BACKEND_CFGS[1:]:
            h, _ = run_one(fed, method, backend, workers)
            np.testing.assert_array_equal(baseline_h.accuracies, h.accuracies)
            np.testing.assert_array_equal(
                baseline_h.cumulative_mb, h.cumulative_mb
            )

    def test_eval_matches_serial_per_client(self, fed):
        _, serial_algo = run_one(fed, "fedclust", "serial", 0, lam="auto")
        for backend, workers in ALL_BACKEND_CFGS[1:]:
            _, algo = run_one(fed, "fedclust", backend, workers, lam="auto")
            np.testing.assert_array_equal(
                serial_algo.per_client_accuracy(), algo.per_client_accuracy()
            )


class TestRoundTiming:
    def test_history_records_wall_clock(self, fed):
        history, _ = run_one(fed, "fedavg", "serial", 0)
        assert (history.seconds > 0).all()
        assert history.setup_seconds >= 0.0
        assert history.total_seconds() >= float(history.seconds.sum())
        assert history.total_seconds(include_setup=False) == pytest.approx(
            float(history.seconds.sum())
        )

    def test_fedclust_setup_time_is_measured(self, fed):
        history, _ = run_one(fed, "fedclust", "serial", 0, lam="auto")
        # the one-shot clustering round does real work
        assert history.setup_seconds > 0.0

    def test_timing_roundtrips_through_json(self, fed, tmp_path):
        history, _ = run_one(fed, "fedavg", "serial", 0)
        path = tmp_path / "history.json"
        save_history(history, path)
        loaded = load_history(path)
        np.testing.assert_array_equal(history.seconds, loaded.seconds)
        assert loaded.setup_seconds == history.setup_seconds


class TestBackendPlumbing:
    def test_registry_and_factory(self):
        assert set(registry.classes("backend")) == {
            "serial", "thread", "process", "vector",
        }
        assert isinstance(make_backend(backend="serial"), SerialBackend)
        assert isinstance(make_backend(backend="thread", workers=2), ThreadBackend)
        b = make_backend(backend="process", workers=5)
        assert isinstance(b, ProcessBackend) and b.workers == 5
        assert isinstance(make_backend(backend="vector"), CohortRunner)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend(backend="cluster")

    def test_auto_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        monkeypatch.setenv("REPRO_WORKERS", "7")
        b = make_backend(backend="auto")
        assert isinstance(b, ThreadBackend) and b.workers == 7
        monkeypatch.delenv("REPRO_BACKEND")
        assert isinstance(make_backend(backend="auto"), SerialBackend)

    def test_auto_rejects_bad_worker_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            make_backend(backend="auto")

    def test_config_validates_backend_fields(self):
        with pytest.raises(ValueError, match="backend"):
            FLConfig(backend="gpu")
        with pytest.raises(ValueError, match="workers"):
            FLConfig(workers=-1)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1

    def test_split_chunks_balanced_and_ordered(self):
        jobs = list(range(7))
        chunks = _split_chunks(jobs, 3)
        assert [j for c in chunks for j in c] == jobs
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1
        assert _split_chunks(jobs, 99) == [[j] for j in jobs]

    def test_backend_map_preserves_submission_order(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05)
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        for backend in (SerialBackend(), ThreadBackend(workers=3)):
            updates = backend.run_updates(algo, 1, [3, 0, 5])
            assert [u.client_id for u in updates] == [3, 0, 5]
            backend.close()


class TestExecState:
    def test_exec_state_narrows_per_client_attrs(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05)
        algo = build_algorithm("local", fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        full = algo.exec_state()
        assert set(full) == {"client_params", "client_states"}
        assert len(full["client_params"]) == fed.num_clients
        narrowed = algo.exec_state(client_ids=[2, 4])
        assert isinstance(narrowed["client_params"], ClientSlots)
        assert sorted(narrowed["client_params"].slots) == [2, 4]

    def test_load_exec_state_applies_slots(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05)
        algo = build_algorithm("local", fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        new_params = algo.client_params[1] + 1.0
        algo.load_exec_state(
            {"client_params": ClientSlots({1: new_params})}
        )
        np.testing.assert_array_equal(algo.client_params[1], new_params)

    def test_exec_state_skips_pre_setup_attrs(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05)
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        # before setup() the global model does not exist yet
        assert algo.exec_state() == {}


@needs_fork
class TestProcessBackendGuards:
    def test_one_algorithm_per_backend_instance(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05)
        a1 = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        a2 = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=1)
        a1.setup()
        a2.setup()
        backend = ProcessBackend(workers=2)
        try:
            backend.run_updates(a1, 1, [0, 1])
            with pytest.raises(RuntimeError, match="one algorithm run"):
                backend.run_updates(a2, 1, [0, 1])
        finally:
            backend.close()

    def test_process_results_ordered(self, fed):
        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05)
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        algo.setup()
        backend = ProcessBackend(workers=2)
        try:
            updates = backend.run_updates(algo, 1, [4, 1, 2])
            assert [u.client_id for u in updates] == [4, 1, 2]
        finally:
            backend.close()


class TestStatefulRngGuard:
    def test_dropout_model_rejected_off_serial(self, fed):
        """Layer-internal RNGs draw in forward-call order, which parallel
        backends cannot reproduce — run() must refuse, not diverge."""
        from repro.nn.layers import Dense, Dropout, Flatten, ReLU
        from repro.nn.model import Sequential
        from repro.utils.rng import as_generator

        def model_fn(rng):
            rng = as_generator(rng)
            d = int(np.prod(fed.input_shape))
            return Sequential(
                Flatten(),
                Dense(d, 8, rng, np.float32, name="fc1"),
                ReLU(),
                Dropout(0.5, rng),
                Dense(8, fed.num_classes, rng, np.float32, name="head",
                      classifier_head=True),
            )

        cfg = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05,
                       backend="thread", workers=2)
        algo = build_algorithm("fedavg", fed, model_fn, cfg, seed=0)
        with pytest.raises(RuntimeError, match="own RNG state"):
            algo.run()
        # serial accepts the same model
        cfg2 = FLConfig(rounds=1, sample_rate=1.0, local_epochs=1, lr=0.05,
                        backend="serial")
        algo2 = build_algorithm("fedavg", fed, model_fn, cfg2, seed=0)
        assert algo2.run().final_accuracy() >= 0.0


class TestIfcaAssignmentRefresh:
    def test_unsampled_clients_get_assignments(self, fed):
        """Evaluation refreshes ``cluster_of`` for every client, including
        ones never sampled into a round (seed semantics, main-thread
        writes only)."""
        h, algo = run_one(fed, "ifca", "serial", 0, num_clusters=2)
        expected = [algo._best_cluster(cid) for cid in range(fed.num_clients)]
        assert list(algo.cluster_of) == expected


class TestCliEnvHygiene:
    def test_backend_flag_does_not_leak_env(self, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        import os

        assert main(["figure1", "--scale", "smoke",
                     "--backend", "thread", "--workers", "2"]) == 0
        assert "REPRO_BACKEND" not in os.environ
        assert "REPRO_WORKERS" not in os.environ


class TestVectorBackendEquivalence:
    """The opt-in ``vector`` backend stacks same-shape client models into
    one cohort tensor and runs batched kernels; histories must stay within
    the pinned tolerances (``VECTOR_*`` in ``repro.fl.execution``) across
    algorithm families, with byte metering exact.  Families whose client
    hooks are overridden (ifca, scaffold) serial-fallback by design and
    come out bit-for-bit."""

    @pytest.mark.parametrize("method,extra", [
        ("fedavg", {}),
        ("fedprox", {}),
        ("local", {}),
        ("scaffold", {}),
        ("fedclust", {"lam": "auto"}),
        ("ifca", {"num_clusters": 2}),
    ])
    def test_within_pinned_tolerance_vs_serial(self, fed, method, extra):
        hs, algo_s = run_one(fed, method, "serial", 0, **extra)
        hv, algo_v = run_one(fed, method, "vector", 0, **extra)
        np.testing.assert_allclose(
            hv.accuracies, hs.accuracies, atol=VECTOR_ACC_ATOL
        )
        np.testing.assert_allclose(hv.losses, hs.losses, rtol=VECTOR_LOSS_RTOL)
        # the wire path is outside the batched compute: metering is exact
        np.testing.assert_array_equal(hv.cumulative_mb, hs.cumulative_mb)
        for cid in range(fed.num_clients):
            np.testing.assert_allclose(
                algo_v.eval_params_for_client(cid),
                algo_s.eval_params_for_client(cid),
                rtol=VECTOR_PARAM_RTOL, atol=1e-8,
            )

    def test_batched_kernels_actually_run(self, fed, monkeypatch):
        """Guard against silent serial fallback: the default recipe must
        go through the fused cohort trainer, not the per-client loop."""
        import repro.fl.execution as exec_mod

        calls = {"train": 0}
        real = exec_mod.local_sgd_many

        def counting(*args, **kwargs):
            calls["train"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(exec_mod, "local_sgd_many", counting)
        run_one(fed, "fedavg", "vector", 0)
        assert calls["train"] > 0

    def test_stateful_rng_model_serial_fallback_bitwise(self, fed):
        """Models with layer-owned RNG state (Dropout) cannot be batched
        without reordering draws; the CohortRunner must produce the serial
        backend's exact history for them."""
        from repro.nn.layers import Dense, Dropout, Flatten, ReLU
        from repro.nn.model import Sequential
        from repro.utils.rng import as_generator

        def model_fn(rng):
            rng = as_generator(rng)
            d = int(np.prod(fed.input_shape))
            return Sequential(
                Flatten(),
                Dense(d, 8, rng, np.float32, name="fc1"),
                ReLU(),
                Dropout(0.5, rng),
                Dense(8, fed.num_classes, rng, np.float32, name="head",
                      classifier_head=True),
            )

        def run(backend):
            cfg = FLConfig(rounds=2, sample_rate=1.0, local_epochs=1,
                           lr=0.05, backend=backend)
            algo = build_algorithm("fedavg", fed, model_fn, cfg, seed=0)
            return algo.run()

        hs, hv = run("serial"), run("vector")
        np.testing.assert_array_equal(hs.accuracies, hv.accuracies)
        np.testing.assert_array_equal(hs.losses, hv.losses)


class TestVectorGoldenTolerance:
    """Acceptance pin: vector histories match the committed *serial*
    goldens (tests/data/golden_registry.json) within the documented
    tolerance — accuracy at ``VECTOR_ACC_ATOL``, train loss at
    ``VECTOR_LOSS_RTOL``, byte counters and extras exact, ``sim_seconds``
    at the golden rtol."""

    #: golden cases whose client recipe the CohortRunner batches; hook-
    #: overridden or non-serial-backend cases are exercised bit-for-bit
    #: by the fallback tests above
    CASES = [
        "fedavg-default",
        "fedclust-default",
        "fedavg-int8-hetero",
        "fedclust-dirichlet",
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
            backend="thread", workers=2,
        )
        algo = build_algorithm("fedavg", fed, model_fn_for(fed), cfg, seed=0)
        algo.run()
        assert algo._backend is None
