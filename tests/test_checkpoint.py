"""Checkpoint/resume: crash injection, bit-for-bit replay, format safety.

The contract under test (fl/checkpoint.py): a run killed at ANY
round/flush boundary and resumed from its last checkpoint produces a
History bit-for-bit identical to the unbroken run — across schedulers,
population models, codecs, and backends (a resume on the *other* backend
matches within the ``vector`` contract instead).  Four layers:

* ``TestCrashInjection`` — a subprocess (tests/crash_driver.py) is
  SIGKILLed the instant a chosen checkpoint hits disk, then resumed
  in-process from ``latest.ckpt`` via the runner's provenance path.
* ``TestResumeEquivalence`` — in-process sweep resuming from *every*
  boundary of a run, plus cross-backend resume.
* ``TestFormatProperties`` — Hypothesis: save→load→save is
  byte-identical; restored RNG streams emit the same next draws.
* ``TestRejection`` — mismatched configuration, version skew, and
  truncated/corrupt files all raise ``ValueError`` naming the problem.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import assert_vector_contract, canonical_history
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.runner import build_cell, resume_cell
from repro.fl.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    Checkpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.rng import RngFactory, generator_state, restore_generator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DRIVER = Path(__file__).with_name("crash_driver.py")

ROUNDS = 4


def _cell(config_overrides=None, fl_options=None, method="fedavg", seed=0):
    return build_cell(
        "cifar10", method, "label_skew_20", SMOKE_SCALE, seed=seed,
        config_overrides=config_overrides, fl_options=fl_options,
    )


#: unbroken-run canonical histories, cached per configuration — every
#: crash/resume case compares against one of these
_BASELINES: dict = {}


def _baseline(method="fedavg", fl_options=None, seed=0):
    key = (method, seed, tuple(sorted((fl_options or {}).items())))
    if key not in _BASELINES:
        algo = _cell({"rounds": ROUNDS}, fl_options, method=method, seed=seed)
        _BASELINES[key] = canonical_history(algo.run())
    return _BASELINES[key]


def _checkpointed_cell(tmp_path, fl_options=None, method="fedavg", seed=0):
    """A cell that checkpoints every boundary and copies each file aside.

    The Checkpointer prunes to the last few round files, so tests that
    resume from *early* boundaries must keep their own copies.
    """
    keep = tmp_path / "keep"
    keep.mkdir(exist_ok=True)
    algo = _cell(
        {"rounds": ROUNDS, "checkpoint_every": 1,
         "checkpoint_dir": str(tmp_path / "cks")},
        fl_options, method=method, seed=seed,
    )
    saved: dict[int, Path] = {}

    def keep_copy(round_idx, path):
        dst = keep / f"r{round_idx}.ckpt"
        shutil.copy(path, dst)
        saved[round_idx] = dst

    algo.on_checkpoint = keep_copy
    return algo, saved


# ----------------------------------------------------------------------
# crash injection (subprocess + SIGKILL)
# ----------------------------------------------------------------------
class TestCrashInjection:
    """Kill a real process mid-run; resume must replay bit-for-bit."""

    CASES = {
        "sync": ({"scheduler": "sync"}, 2),
        "sync-churn-topk": (
            {"scheduler": "sync", "population": "churn", "codec": "topk"}, 2,
        ),
        "semisync-stragglers-fp16": (
            {"scheduler": "semisync", "network": "stragglers",
             "codec": "fp16"}, 3,
        ),
        "buffered-stragglers-int8": (
            {"scheduler": "buffered:bs=2,sa=0.5", "network": "stragglers",
             "codec": "int8"}, 2,
        ),
        # None = a random boundary: the equivalence sweep proves every
        # boundary works, so a per-run draw adds coverage, not flakes
        "growth-random-boundary": (
            {"scheduler": "sync", "population": "growth"}, None,
        ),
        # mid-attack kill: the resumed run must re-derive the identical
        # adversary roster and replay the poisoned rounds bit-for-bit
        "sync-signflip-median": (
            {"scheduler": "sync", "attack": "signflip:frac=0.25",
             "aggregator": "median"}, 2,
        ),
    }

    def _crash(self, tmp_path, fl_options, kill_at):
        ckpt_dir = tmp_path / "cks"
        spec = {
            "dataset": "cifar10", "method": "fedavg",
            "setting": "label_skew_20", "seed": 0, "kill_at": kill_at,
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
        assert "COMPLETED" not in proc.stdout, "driver outlived its kill round"
        return ckpt_dir / "latest.ckpt"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sigkill_then_resume_is_bitwise_identical(self, case, tmp_path):
        fl_options, kill_at = self.CASES[case]
        if kill_at is None:
            rng = np.random.default_rng()  # deliberately unseeded
            kill_at = int(rng.integers(1, ROUNDS))
        latest = self._crash(tmp_path, fl_options, kill_at)
        assert latest.exists(), "no checkpoint survived the crash"
        ckpt = load_checkpoint(latest)
        assert ckpt.round == kill_at
        # the runner provenance stored in the checkpoint is enough to
        # rebuild and finish the cell — same path the resume CLI takes
        result = resume_cell(latest)
        assert canonical_history(result.history) == _baseline(
            fl_options=fl_options
        ), f"{case}: resume after SIGKILL at round {kill_at} diverged"

    def test_latest_checkpoint_loadable_after_kill(self, tmp_path):
        """Atomic writes: SIGKILL never leaves a torn latest.ckpt."""
        latest = self._crash(tmp_path, {"scheduler": "sync"}, 1)
        ckpt = load_checkpoint(latest)  # must not raise
        assert ckpt.round == 1
        assert ckpt.meta["dataset"] == "cifar10"


# ----------------------------------------------------------------------
# in-process resume equivalence (every boundary)
# ----------------------------------------------------------------------
class TestResumeEquivalence:
    SWEEP = {
        "sync-churn-topk": (
            "fedavg",
            {"scheduler": "sync", "population": "churn", "codec": "topk"},
        ),
        "semisync-stragglers": (
            "fedavg", {"scheduler": "semisync", "network": "stragglers"},
        ),
        "buffered-hetero-int8-churn": (
            "fedavg",
            {"scheduler": "buffered:bs=2,sa=0.5", "network": "hetero",
             "codec": "int8", "population": "churn"},
        ),
        "fedclust-growth": (
            "fedclust", {"scheduler": "sync", "population": "growth"},
        ),
        "scaffold": ("scaffold", {"scheduler": "sync"}),
        "fedclust-vector": (
            "fedclust", {"scheduler": "sync", "backend": "vector"},
        ),
        "fedclust-scale-trimmed": (
            "fedclust",
            {"scheduler": "sync", "attack": "scale:frac=0.25",
             "aggregator": "trimmed:trim=0.25"},
        ),
        "ifca-vector": ("ifca", {"scheduler": "sync", "backend": "vector"}),
    }

    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_resume_bitwise_at_every_boundary(self, name, tmp_path):
        method, fl_options = self.SWEEP[name]
        base = _baseline(method=method, fl_options=fl_options)
        algo, saved = _checkpointed_cell(tmp_path, fl_options, method=method)
        assert canonical_history(algo.run()) == base, (
            "checkpointing perturbed the run"
        )
        boundaries = sorted(saved)[:-1]  # final checkpoint = nothing left
        assert boundaries, "run saved no intermediate checkpoints"
        for r in boundaries:
            resumed = _cell({"rounds": ROUNDS}, fl_options, method=method)
            history = resumed.run(resume_from=str(saved[r]))
            assert canonical_history(history) == base, (
                f"{name}: resume at boundary {r} diverged"
            )

    def test_ifca_checkpoint_holds_cluster_state_only(self):
        """IFCA's scorer cohort is infrastructure rebuilt from
        ``model_fn``: the checkpoint keeps only the cluster state."""
        algo = _cell({"rounds": 1}, {"backend": "vector"}, method="ifca")
        algo.run()
        assert algo._scorer is not None
        assert sorted(algo.checkpoint_state()) == [
            "_init_params", "_init_state", "cluster_of", "cluster_params",
            "cluster_states", "k", "num_clusters",
        ]

    def test_resume_restores_attacker_roster(self, tmp_path):
        """A resumed attacked run re-derives the same roster; the
        checkpoint's copy cross-checks it (mismatch raises)."""
        fl_options = {"attack": "signflip:frac=0.25"}
        algo, saved = _checkpointed_cell(tmp_path, fl_options)
        algo.run()
        assert len(algo.attack.roster) == 2  # round(0.25 * 6)
        resumed = _cell({"rounds": ROUNDS}, fl_options)
        resumed.run(resume_from=str(saved[2]))
        assert resumed.attack.roster == algo.attack.roster
        # a checkpoint whose roster disagrees is refused
        ckpt = load_checkpoint(str(saved[2]))
        ckpt.state["attack"]["roster"] = [0]
        fresh = _cell({"rounds": ROUNDS}, fl_options)
        with pytest.raises(ValueError, match="roster"):
            fresh.run(resume_from=ckpt)

    @pytest.mark.parametrize("saved_on,resumed_on", [
        ("serial", "vector"), ("vector", "serial"),
    ])
    def test_cross_backend_resume(self, tmp_path, saved_on, resumed_on):
        """The backend is not part of the fingerprint, so a checkpoint from
        one backend legally resumes under the other; the result equals
        the unbroken run exactly."""
        algo, saved = _checkpointed_cell(tmp_path, {"backend": saved_on})
        unbroken = algo.run()
        resumed = _cell({"rounds": ROUNDS}, {"backend": resumed_on})
        history = resumed.run(resume_from=str(saved[2]))
        assert_vector_contract((unbroken, algo), (history, resumed))

    def test_resume_from_final_checkpoint_is_complete_history(self, tmp_path):
        base = _baseline(fl_options={"scheduler": "sync"})
        algo, saved = _checkpointed_cell(tmp_path, None)
        algo.run()
        resumed = _cell({"rounds": ROUNDS})
        history = resumed.run(resume_from=str(saved[ROUNDS]))
        assert canonical_history(history) == base

    def test_checkpointer_prunes_but_keeps_latest(self, tmp_path):
        algo, _ = _checkpointed_cell(tmp_path, None)
        algo.run()
        cks = tmp_path / "cks"
        names = sorted(p.name for p in cks.iterdir())
        assert "latest.ckpt" in names
        rounds = [n for n in names if n.startswith("round-")]
        assert rounds == [
            f"round-{r:06d}.ckpt" for r in range(ROUNDS - 2, ROUNDS + 1)
        ]


# ----------------------------------------------------------------------
# format properties (Hypothesis)
# ----------------------------------------------------------------------
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 40), 2 ** 40),
    st.floats(), st.text(max_size=12),
)
_values = st.recursive(
    _scalars,
    lambda c: st.one_of(
        st.lists(c, max_size=4),
        st.dictionaries(st.text(max_size=6), c, max_size=4),
    ),
    max_leaves=16,
)
_trees = st.dictionaries(st.text(max_size=8), _values, max_size=5)
_arrays = st.lists(st.floats(width=64), max_size=6).map(
    lambda xs: np.asarray(xs, dtype=np.float64)
)


class TestFormatProperties:
    @given(round_=st.integers(0, 10 ** 6), fp=_trees, state=_trees,
           meta=_trees, arr=_arrays)
    @settings(max_examples=30, deadline=None)
    def test_save_load_save_is_byte_identical(
        self, round_, fp, state, meta, arr
    ):
        state = dict(state, params=arr)  # arrays ride along like model state
        ckpt = Checkpoint(round=round_, fingerprint=fp, state=state, meta=meta)
        blob = checkpoint_bytes(ckpt)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ckpt"
            save_checkpoint(path, ckpt)
            assert path.read_bytes() == blob
            again = checkpoint_bytes(load_checkpoint(path))
        assert again == blob

    @given(seed=st.integers(0, 2 ** 32 - 1), burn=st.integers(0, 64),
           n=st.integers(1, 16),
           kind=st.sampled_from(["PCG64", "Philox", "SFC64", "MT19937"]))
    @settings(max_examples=30, deadline=None)
    def test_restored_generator_emits_same_next_draws(
        self, seed, burn, n, kind
    ):
        gen = np.random.Generator(getattr(np.random, kind)(seed))
        gen.random(burn)
        state = generator_state(gen)
        expect_f = gen.random(n)
        expect_i = gen.integers(0, 2 ** 31, size=n)
        clone = restore_generator(state)
        np.testing.assert_array_equal(clone.random(n), expect_f)
        np.testing.assert_array_equal(
            clone.integers(0, 2 ** 31, size=n), expect_i
        )

    @given(seed=st.integers(0, 2 ** 32 - 1), index=st.integers(0, 8),
           name=st.sampled_from(
               ["sampling", "network.link", "codec.int8", "population.churn"]
           ))
    @settings(max_examples=30, deadline=None)
    def test_keyed_streams_are_pure_functions_of_the_root_seed(
        self, seed, index, name
    ):
        """Why sampling/link/rounding RNGs need no checkpointing: a fresh
        factory reproduces any keyed stream from (seed, name, index)."""
        a = RngFactory(seed).make(name, index).random(8)
        b = RngFactory(seed).make(name, index).random(8)
        np.testing.assert_array_equal(a, b)

    def test_restore_generator_rejects_unknown_bit_generator(self):
        state = generator_state(np.random.default_rng(0))
        state = dict(state, bit_generator="NoSuchBitGenerator")
        with pytest.raises(ValueError, match="NoSuchBitGenerator"):
            restore_generator(state)


# ----------------------------------------------------------------------
# rejection: wrong config, version skew, damaged files
# ----------------------------------------------------------------------
class TestRejection:
    @pytest.fixture()
    def latest(self, tmp_path):
        ckpt_dir = tmp_path / "cks"
        algo = _cell({"rounds": 2, "checkpoint_every": 1,
                      "checkpoint_dir": str(ckpt_dir)})
        algo.run()
        return ckpt_dir / "latest.ckpt"

    def test_rejects_changed_config_field(self, latest):
        algo = _cell({"rounds": 2, "lr": 0.1})
        with pytest.raises(ValueError, match=r"lr"):
            algo.run(resume_from=str(latest))

    def test_rejects_changed_component(self, latest):
        algo = _cell({"rounds": 2}, {"codec": "int8"})
        with pytest.raises(ValueError, match=r"codec\.name"):
            algo.run(resume_from=str(latest))

    def test_rejects_changed_seed(self, latest):
        algo = _cell({"rounds": 2}, seed=1)
        with pytest.raises(ValueError, match=r"seed"):
            algo.run(resume_from=str(latest))

    def test_error_names_every_mismatched_field(self, latest):
        algo = _cell({"rounds": 2, "lr": 0.1, "sample_rate": 0.9})
        with pytest.raises(ValueError) as err:
            algo.run(resume_from=str(latest))
        assert "lr" in str(err.value) and "sample_rate" in str(err.value)

    def test_rejects_version_skew(self, latest, tmp_path):
        blob = latest.read_bytes()
        skewed = (MAGIC + struct.pack(">I", FORMAT_VERSION + 1)
                  + blob[len(MAGIC) + 4:])
        bad = tmp_path / "skew.ckpt"
        bad.write_bytes(skewed)
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(bad)

    def test_rejects_truncated_file(self, latest, tmp_path):
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(latest.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(bad)

    def test_rejects_corrupt_payload(self, latest, tmp_path):
        blob = bytearray(latest.read_bytes())
        blob[-1] ^= 0xFF
        bad = tmp_path / "corrupt.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load_checkpoint(bad)

    def test_rejects_non_checkpoint_file(self, tmp_path):
        bad = tmp_path / "nope.ckpt"
        bad.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            load_checkpoint(bad)

    def test_resume_cell_requires_runner_provenance(self, latest):
        ckpt = load_checkpoint(latest)
        bare = Checkpoint(round=ckpt.round, fingerprint=ckpt.fingerprint,
                          state=ckpt.state, meta={})
        with pytest.raises(ValueError, match="provenance"):
            resume_cell(bare)


# ----------------------------------------------------------------------
# resume CLI
# ----------------------------------------------------------------------
class TestResumeCLI:
    def test_resume_subcommand(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        ckpt_dir = tmp_path / "cks"
        algo = _cell({"rounds": 2, "checkpoint_every": 1,
                      "checkpoint_dir": str(ckpt_dir)})
        algo.run()
        assert main(["resume", "--checkpoint",
                     str(ckpt_dir / "latest.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "resumed run complete" in out
        assert "fedavg on cifar10" in out

    def test_resume_requires_checkpoint_flag(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["resume"])
