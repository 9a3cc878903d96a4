"""Persistence of training histories (.json).

The experiment harness persists histories for later table rendering
without re-running federations.  Resumable run state lives in
:mod:`repro.fl.checkpoint`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fl.history import History, RoundRecord

__all__ = ["save_history", "load_history"]


def save_history(history: History, path: str | Path) -> None:
    """Write a training history as JSON."""
    Path(path).write_text(json.dumps(history.as_dict(), indent=2))


def load_history(path: str | Path) -> History:
    """Read a history written by :func:`save_history`.

    Timing fields are restored when present (histories written before
    per-round timing load with all-zero ``seconds``).
    """
    data = json.loads(Path(path).read_text())
    h = History(data["algorithm"], data["dataset"])
    n = len(data["rounds"])
    seconds = data.get("seconds") or [0.0] * n
    up = data.get("upload_bytes") or [0] * n
    down = data.get("download_bytes") or [0] * n
    sim = data.get("sim_seconds") or [0.0] * n
    extras = data.get("extras") or [{} for _ in range(n)]
    h.setup_seconds = float(data.get("setup_seconds", 0.0))
    for r, acc, loss, mb, sec, ub, db, ss, ex in zip(
        data["rounds"], data["accuracy"], data["train_loss"], data["cumulative_mb"],
        seconds, up, down, sim, extras,
    ):
        h.append(
            RoundRecord(
                round=int(r), accuracy=acc, train_loss=loss, cumulative_mb=mb,
                seconds=float(sec), upload_bytes=int(ub), download_bytes=int(db),
                sim_seconds=float(ss), extras=dict(ex),
            )
        )
    return h
