"""Tests for history persistence."""

from __future__ import annotations

import numpy as np

from repro.fl import History, RoundRecord
from repro.utils.io import load_history, save_history


class TestHistoryPersistence:
    def test_roundtrip(self, tmp_path):
        h = History("fedclust", "cifar10")
        for i in range(5):
            h.append(RoundRecord(round=i + 1, accuracy=0.1 * i, train_loss=1.0 - 0.1 * i,
                                 cumulative_mb=float(i)))
        path = tmp_path / "hist.json"
        save_history(h, path)
        h2 = load_history(path)
        assert h2.algorithm == "fedclust"
        assert h2.dataset == "cifar10"
        np.testing.assert_allclose(h2.accuracies, h.accuracies)
        np.testing.assert_allclose(h2.cumulative_mb, h.cumulative_mb)
        assert h2.rounds_to_target(0.3) == h.rounds_to_target(0.3)
