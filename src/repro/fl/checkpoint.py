"""Crash-tolerant checkpoint/resume with deterministic replay.

A long federation run carries far more state than the model: per-client
algorithm state (error-feedback residuals, SCAFFOLD controls, cluster
assignments), the history and communication meters, the population
roster with its pending session events and live per-client generators,
and — for the event-driven schedulers — a virtual clock with uploads
still in flight.  This module snapshots *all* of it into a versioned,
integrity-checked file so a run killed at any round (or flush) boundary
can resume and produce a :class:`~repro.fl.history.History` bit-for-bit
identical to the unbroken run.

Design
------

The engine's keyed-RNG discipline does most of the work: every draw
comes from ``rngs.make(name, index)``, a pure function of the root seed,
so sampling, dropout, codec noise, and network links need no RNG capture
at all — replaying round ``k+1`` re-derives their generators exactly.
The only long-lived sequential streams are the churn population's
per-client session generators, captured as numpy bit-generator states.
Everything else is plain data: the algorithm's mutable ``__dict__``
(minus engine infrastructure), the scheduler's event queue, and the
subsystem ``state_dict()`` snapshots.

File format
-----------

``MAGIC | format version (u32) | payload length (u64) | sha256 | pickle``
— the digest detects truncation and corruption, the version gates
cross-build skew, and saves go through a temp file + ``os.replace`` so a
crash mid-save never destroys the previous checkpoint.

Compatibility
-------------

A checkpoint embeds a *fingerprint* of the run configuration: algorithm
and dataset names, seed, federation size, the training scalars, and each
component family's registry-resolved implementation + options (so env
``REPRO_*`` influence is captured, not just the config object).  Resume
refuses a mismatched fingerprint with a :class:`ValueError` naming every
differing field.  The execution backend is deliberately *excluded*, so a
run crashed under ``serial`` may resume under ``vector`` and back.  A
resume is bit-for-bit either way: both backends are the one task runner
and compare exactly (:mod:`repro.fl.execution`).
``checkpoint_every`` / ``checkpoint_dir`` are excluded too — the save
cadence must not pin the resumed run's.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.fl import registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fl.server import FederatedAlgorithm

logger = logging.getLogger("repro.checkpoint")

__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "Checkpointer",
    "checkpoint_bytes",
    "save_checkpoint",
    "load_checkpoint",
    "run_fingerprint",
    "fingerprint_mismatches",
    "check_compatible",
    "capture",
    "restore",
]

#: leading bytes identifying a repro checkpoint file
MAGIC = b"REPROCKP"
#: bump on any incompatible change to the payload layout
FORMAT_VERSION = 1
#: header after MAGIC: format version, payload length, sha256 digest
_HEADER = struct.Struct(">IQ32s")

#: FLConfig scalars that must match between checkpoint and live run
_CONFIG_FIELDS = (
    "rounds",
    "sample_rate",
    "local_epochs",
    "batch_size",
    "lr",
    "momentum",
    "weight_decay",
    "eval_every",
    "dropout_rate",
    "eval_clients",
)
#: component families whose resolved (name, options) enter the fingerprint;
#: ``backend`` is excluded — how client tasks execute is not run state, so
#: resuming on the other backend is legal (and bit for bit)
_FINGERPRINT_FAMILIES = (
    "codec", "network", "scheduler", "population", "attack", "aggregator",
    "topology",
)
#: resolved options that may differ between the crashed and the resumed
#: run without changing the trajectory
_IGNORED_OPTIONS = frozenset({"checkpoint_every", "checkpoint_dir"})


@dataclass
class Checkpoint:
    """One resumable snapshot of a federation run.

    Attributes:
        round: completed rounds (``sync``/``semisync``) or flushes
            (``buffered``) at capture time; the resumed run continues at
            ``round + 1``.
        fingerprint: the run-configuration fingerprint
            (:func:`run_fingerprint`) the snapshot was taken under.
        state: per-subsystem state sections (algorithm, model buffers,
            history, comm, codec, population, eligibility, scheduler).
        meta: free-form provenance — the experiments runner stores the
            cell coordinates here so ``python -m repro.experiments
            resume`` can rebuild the run from the file alone.
    """

    round: int
    fingerprint: dict
    state: dict
    meta: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------
def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    """Serialize a checkpoint to its exact on-disk byte string."""
    payload = pickle.dumps(
        {
            "round": int(ckpt.round),
            "fingerprint": ckpt.fingerprint,
            "state": ckpt.state,
            "meta": ckpt.meta,
        },
        protocol=4,
    )
    digest = hashlib.sha256(payload).digest()
    return MAGIC + _HEADER.pack(FORMAT_VERSION, len(payload), digest) + payload


def _write_atomic(path: Path, blob: bytes) -> None:
    """Write via temp file + ``os.replace`` so a crash mid-write can never
    leave a torn file at ``path`` (the previous version survives)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(blob)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> Path:
    """Atomically write a checkpoint file and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, checkpoint_bytes(ckpt))
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint file.

    Raises:
        ValueError: if the file is not a repro checkpoint, was written by
            an unsupported format version, is truncated, or fails its
            integrity check.
    """
    path = Path(path)
    blob = path.read_bytes()
    head = len(MAGIC) + _HEADER.size
    if len(blob) < head or not blob.startswith(MAGIC):
        raise ValueError(f"{path} is not a repro checkpoint file")
    version, length, digest = _HEADER.unpack(blob[len(MAGIC) : head])
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path} has checkpoint format version {version}; this build "
            f"supports version {FORMAT_VERSION}"
        )
    payload = blob[head:]
    if len(payload) != length:
        raise ValueError(
            f"{path} is truncated: payload has {len(payload)} of {length} bytes"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path} is corrupt: payload checksum mismatch")
    try:
        data = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types on bad bytes
        raise ValueError(f"{path} is corrupt: {exc}") from exc
    return Checkpoint(
        round=int(data["round"]),
        fingerprint=data["fingerprint"],
        state=data["state"],
        meta=data.get("meta", {}),
    )


# ----------------------------------------------------------------------
# compatibility
# ----------------------------------------------------------------------
def run_fingerprint(algo: "FederatedAlgorithm") -> dict:
    """Fingerprint of everything that determines a run's trajectory.

    Must be computed *before* ``population.begin`` detaches any joiner
    pool, so ``num_clients`` means the full federation on both sides of
    a resume.
    """
    cfg = algo.config
    fp: dict[str, Any] = {
        "algorithm": algo.name,
        "dataset": algo.fed.name,
        "num_clients": int(algo.fed.num_clients),
        "seed": int(algo.seed),
    }
    for name in _CONFIG_FIELDS:
        fp[name] = getattr(cfg, name)
    for family in _FINGERPRINT_FAMILIES:
        r = registry.resolve(family, config=cfg)
        fp[family] = {
            "name": r.name,
            "options": {
                k: v for k, v in r.options.items() if k not in _IGNORED_OPTIONS
            },
        }
    # algorithm knobs (prox_mu, ifca_k, clust_*...); prefix-namespaced
    # component knobs reappear here alongside the resolved options above,
    # which is harmless for an equality check.  Telemetry knobs are
    # excluded: observation never changes the trajectory, so a run
    # checkpointed without telemetry may resume with it (and vice versa)
    fp["extra"] = {
        k: v for k, v in cfg.extra.items() if not k.startswith("tele_")
    }
    return fp


def _flatten(tree: dict, prefix: str = "") -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key in sorted(tree):
        value = tree[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, path + "."))
        else:
            out[path] = value
    return out


def fingerprint_mismatches(saved: dict, live: dict) -> list[str]:
    """Human-readable descriptions of every differing fingerprint field."""
    a, b = _flatten(saved), _flatten(live)
    missing = object()
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, missing), b.get(key, missing)
        if type(va) is type(vb) and va == vb:
            continue
        sa = "<absent>" if va is missing else repr(va)
        sb = "<absent>" if vb is missing else repr(vb)
        out.append(f"{key} (checkpoint {sa} != live {sb})")
    return out


def check_compatible(ckpt: Checkpoint, algo: "FederatedAlgorithm") -> None:
    """Refuse to resume under a configuration the checkpoint did not run.

    Raises:
        ValueError: naming every mismatched fingerprint field.
    """
    live = getattr(algo, "_fingerprint", None) or run_fingerprint(algo)
    mismatches = fingerprint_mismatches(ckpt.fingerprint, live)
    if mismatches:
        raise ValueError(
            "checkpoint is incompatible with the live run configuration; "
            "mismatched fields: " + "; ".join(mismatches)
        )


# ----------------------------------------------------------------------
# capture / restore
# ----------------------------------------------------------------------
def capture(algo: "FederatedAlgorithm", scheduler_state: dict) -> Checkpoint:
    """Snapshot a running federation at a round/flush boundary.

    Called by the scheduler on the main thread after the boundary's
    aggregation and record are committed; ``scheduler_state`` is the
    scheduler's own :meth:`~repro.fl.scheduler.Scheduler.state_dict`.
    """
    state = {
        "algorithm": algo.checkpoint_state(),
        "model": {k: v.copy() for k, v in algo.model.state().items()},
        "history": algo.history.state_dict(),
        "comm": algo.comm.state_dict(),
        "codec": algo.codec.state_dict(),
        "population": algo.population.state_dict(),
        "attack": algo.attack.state_dict(),
        "eligible": (
            sorted(algo._eligible) if algo._eligible is not None else None
        ),
        "scheduler": scheduler_state,
        # edge assignment is a pure function of the seed, so the section
        # is a verification probe rather than replayable state
        "topology": algo.topology.state_dict(),
    }
    resident = getattr(algo.fed, "resident_ids", None)
    if resident is not None:
        # lazy dataset: the resident shard set (contents re-materialize
        # purely from the seed; the ids restore the LRU's working set)
        state["residency"] = [int(c) for c in resident()]
    return Checkpoint(
        round=int(scheduler_state["round"]),
        fingerprint=dict(algo._fingerprint),
        state=state,
        meta=dict(algo.checkpoint_meta),
    )


def restore(algo: "FederatedAlgorithm", ckpt: Checkpoint) -> dict:
    """Install a checkpoint into a freshly-built (but not yet run) engine.

    The caller has already built the run's components exactly as a fresh
    run would (population ``begin`` included), so the deterministic parts
    — dataset shards, joiner pools, network link draws — are rebuilt from
    the seed; this function overwrites only the accumulated state.

    Returns:
        The scheduler resume dict to pass to ``Scheduler.run(resume=...)``.
    """
    state = ckpt.state
    algo.population.load_state_dict(state["population"], algo)
    algo._eligible = (
        {int(c) for c in state["eligible"]}
        if state["eligible"] is not None
        else None
    )
    algo.load_checkpoint_state(state["algorithm"])
    if state["model"]:
        algo.model.load_state(state["model"])
    algo.history.load_state_dict(state["history"])
    algo.comm.load_state_dict(state["comm"])
    algo.codec.load_state_dict(state["codec"])
    # the attacker roster re-derives from the seed; the saved copy
    # cross-checks it (absent in pre-attack checkpoints: nothing to do)
    algo.attack.load_state_dict(state.get("attack", {}))
    # topology: verify the resumed run's seeded edge assignment agrees
    # (absent in pre-topology checkpoints: nothing to do)
    algo.topology.load_state_dict(state.get("topology") or {})
    residency = state.get("residency")
    if residency is not None and hasattr(algo.fed, "warm"):
        # re-materialize the crashed run's resident shard set so the
        # resumed LRU starts from the identical working set
        algo.fed.warm(int(c) for c in residency)
    return dict(state["scheduler"])


# ----------------------------------------------------------------------
# periodic saves
# ----------------------------------------------------------------------
class Checkpointer:
    """Writes periodic checkpoints for one run.

    Saves ``round-NNNNNN.ckpt`` plus an always-current ``latest.ckpt``
    into the configured directory, pruning old round files beyond
    ``keep``.  Both writes are atomic, so a SIGKILL at any instant leaves
    a loadable ``latest.ckpt`` (the previous one, at worst).
    """

    def __init__(self, directory: str | Path, every: int = 1, keep: int = 3):
        if every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {every}")
        self.directory = Path(directory)
        self.every = int(every)
        self.keep = int(keep)

    @classmethod
    def from_config(cls, config) -> "Checkpointer | None":
        """Build from ``FLConfig`` / ``REPRO_CHECKPOINT_*``; ``None`` when
        checkpointing is disabled (no ``checkpoint_every``)."""
        every = registry.resolve_field_option(
            "scheduler", "checkpoint_every", config
        )
        if not every:
            return None
        directory = registry.resolve_field_option(
            "scheduler", "checkpoint_dir", config
        )
        return cls(directory or "checkpoints", every=int(every))

    def save(self, algo: "FederatedAlgorithm", scheduler_state: dict) -> Path:
        """Capture and write one checkpoint; returns the round file's path."""
        tele = algo.telemetry
        with tele.span(
            "checkpoint", cat="checkpoint", round=int(scheduler_state["round"])
        ):
            ckpt = capture(algo, scheduler_state)
            blob = checkpoint_bytes(ckpt)
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"round-{ckpt.round:06d}.ckpt"
            _write_atomic(path, blob)
            _write_atomic(self.directory / "latest.ckpt", blob)
        tele.emit(
            "checkpoint", round=int(ckpt.round), path=str(path),
            bytes=len(blob),
        )
        logger.info(
            "checkpoint saved: round %d -> %s (%d bytes)",
            ckpt.round, path, len(blob),
        )
        self._prune()
        return path

    def _prune(self) -> None:
        if self.keep <= 0:
            return
        rounds = sorted(self.directory.glob("round-*.ckpt"))
        for stale in rounds[: -self.keep]:
            try:
                stale.unlink()
                logger.debug("checkpoint pruned: %s", stale)
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Checkpointer({str(self.directory)!r}, every={self.every})"
