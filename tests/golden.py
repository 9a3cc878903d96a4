"""Golden-capture helpers shared by the suite's equivalence tests.

A *golden* is a pinned JSON capture of a finished run — per-round
accuracy/loss/traffic plus a digest of the final per-client parameters —
stored under ``tests/data/``.  Tests replay the same configuration and
assert the run still reproduces the capture bit-for-bit (the engine's
determinism contract), except ``sim_seconds`` which is compared at
rtol 1e-12 because event-clock accumulation order differs legitimately
between schedulers.

Three parts:

* :func:`canonical_history` — a run's ``History.as_dict()`` minus the
  wall-clock fields, i.e. exactly the part of a history two runs can be
  expected to agree on bit-for-bit.  The checkpoint/resume tests compare
  whole resumed runs with it.
* :func:`assert_matches_golden` — compare a finished algorithm + history
  (plus any extra digests the caller computed, e.g. of evaluation
  outputs) against one named case of a golden file.  Setting
  ``REPRO_UPDATE_GOLDENS=1`` regenerates the case in place instead of
  comparing (the capture workflow that previously lived in throwaway
  scripts).
* :func:`assert_vector_contract` — compare a ``vector``-backend run with
  its serial twin under the pinned ``VECTOR_*`` tolerance contract.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.fl.execution import VECTOR_ACC_ATOL, VECTOR_LOSS_RTOL, VECTOR_PARAM_RTOL

__all__ = [
    "DATA_DIR",
    "SIM_SECONDS_RTOL",
    "assert_matches_golden",
    "assert_vector_contract",
    "canonical_history",
    "capture_run",
    "compare_capture",
    "params_digest",
]

DATA_DIR = Path(__file__).parent / "data"

#: ``History.as_dict`` keys that measure host wall-clock time and can
#: therefore never be reproduced bit-for-bit.
WALL_CLOCK_KEYS = ("seconds", "setup_seconds")

#: golden keys compared with exact ``==``
EXACT_KEYS = (
    "accuracy", "train_loss", "cumulative_mb", "upload_bytes",
    "download_bytes", "extras",
)

#: digest keys compared with exact ``==`` when the pinned capture has them
DIGEST_KEYS = ("params_digest", "eval_digest")

#: the virtual clock accumulates globally in the event schedulers while
#: sync sums per-round maxima, so captures agree only to rounding
SIM_SECONDS_RTOL = 1e-12


def canonical_history(history) -> dict:
    """``History.as_dict()`` minus wall-clock fields.

    Everything left — round indices, accuracies, losses, metered
    traffic, simulated seconds, per-round extras — is a deterministic
    function of the run configuration, so two equivalent runs (e.g. a
    crashed-and-resumed run vs. its unbroken twin) must agree on it
    with plain ``==``.
    """
    d = history.as_dict()
    for key in WALL_CLOCK_KEYS:
        d.pop(key, None)
    return d


def params_digest(algo) -> str:
    """SHA-256 over every client's final evaluation parameters."""
    parts = [
        algo.eval_params_for_client(c) for c in range(algo.fed.num_clients)
    ]
    return hashlib.sha256(np.concatenate(parts).tobytes()).hexdigest()


def capture_run(algo, history) -> dict:
    """The JSON-serializable golden capture of one finished run."""
    d = canonical_history(history)
    out = {key: d[key] for key in EXACT_KEYS + ("sim_seconds",)}
    out["params_digest"] = params_digest(algo)
    return out


def compare_capture(golden: dict, got: dict, label: str = "run") -> None:
    """Assert a fresh capture reproduces a pinned one.

    Compares only the keys the pinned capture carries, so older goldens
    stay valid when captures grow new fields.
    """
    for key in EXACT_KEYS:
        if key in golden:
            assert got[key] == golden[key], f"{label}.{key} diverged"
    if "sim_seconds" in golden:
        np.testing.assert_allclose(
            got["sim_seconds"], golden["sim_seconds"],
            rtol=SIM_SECONDS_RTOL, err_msg=f"{label}.sim_seconds diverged",
        )
    for key in DIGEST_KEYS:
        if key in golden:
            assert got[key] == golden[key], f"{label}.{key} diverged"


def assert_matches_golden(
    golden_file: str, case: str, algo, history, **extra: str
) -> None:
    """Compare a finished run against ``tests/data/<golden_file>[case]``.

    ``extra`` adds fields to the capture (``eval_digest``, see
    :data:`DIGEST_KEYS`).  With ``REPRO_UPDATE_GOLDENS`` set in the
    environment, the case is (re)captured into the file instead — run
    the affected tests once with the flag, inspect the diff, and commit.
    """
    path = DATA_DIR / golden_file
    got = {**capture_run(algo, history), **extra}
    if os.environ.get("REPRO_UPDATE_GOLDENS", "").strip():
        data = json.loads(path.read_text()) if path.exists() else {}
        data[case] = got
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return
    data = json.loads(path.read_text())
    assert case in data, (
        f"no golden case {case!r} in {path.name}; regenerate with "
        f"REPRO_UPDATE_GOLDENS=1"
    )
    compare_capture(data[case], got, label=case)


def assert_vector_contract(serial, vector, label: str = "vector") -> None:
    """Assert a ``vector`` run stays within the pinned contract of serial.

    ``serial`` and ``vector`` are ``(history, algo)`` pairs of the same
    configuration; ``algo`` may be ``None`` to skip the parameter check
    (e.g. for a resumed run compared with an unbroken one).  Accuracy must
    agree within ``VECTOR_ACC_ATOL``, train loss within
    ``VECTOR_LOSS_RTOL`` and final per-client parameters and buffers
    (BatchNorm running stats) within ``VECTOR_PARAM_RTOL``; everything
    else in the canonical history —
    byte counters, ``sim_seconds``, per-round extras (deadline cuts,
    cancellations, population events) — exactly.
    """
    (hs, algo_s), (hv, algo_v) = serial, vector
    ds, dv = canonical_history(hs), canonical_history(hv)
    np.testing.assert_allclose(
        dv.pop("accuracy"), ds.pop("accuracy"), atol=VECTOR_ACC_ATOL,
        err_msg=f"{label}.accuracy outside the vector contract",
    )
    np.testing.assert_allclose(
        dv.pop("train_loss"), ds.pop("train_loss"), rtol=VECTOR_LOSS_RTOL,
        err_msg=f"{label}.train_loss outside the vector contract",
    )
    for key in ds:
        assert dv[key] == ds[key], f"{label}.{key} diverged from serial"
    if algo_s is not None and algo_v is not None:
        for cid in range(algo_s.fed.num_clients):
            np.testing.assert_allclose(
                algo_v.eval_params_for_client(cid),
                algo_s.eval_params_for_client(cid),
                rtol=VECTOR_PARAM_RTOL, atol=1e-8,
                err_msg=f"{label}: client {cid} params outside the contract",
            )
            state_s = algo_s.eval_state_for_client(cid)
            state_v = algo_v.eval_state_for_client(cid)
            assert state_v.keys() == state_s.keys()
            for key in state_s:
                np.testing.assert_allclose(
                    state_v[key], state_s[key],
                    rtol=VECTOR_PARAM_RTOL, atol=1e-8,
                    err_msg=f"{label}: client {cid} {key} outside the contract",
                )
