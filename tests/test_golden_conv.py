"""Goldens that run the conv kernels: the benchmark's three recipes, pinned.

The MLP cases of ``tests/data/golden_registry.json`` run only Flatten,
Dense and ReLU.  These cases run the three benchmark cells, shrunk to
``SMOKE_SCALE``, through the experiments runner:

* LeNet-5 FedClust and LeNet-5 IFCA on CIFAR-10 label skew (Conv2d,
  MaxPool2d, Dense, ReLU);
* ResNet-9 FedAvg on CIFAR-100 label skew with the top-k codec, the
  hetero network and the semisync scheduler (Conv2d, BatchNorm,
  ``Residual``, MaxPool2d, GlobalAvgPool2d).

Each recipe is captured on ``serial`` and on ``vector`` and compared
exactly to its own capture in ``tests/data/golden_conv.json``.  The two
captures of a recipe are also equal to each other: Conv2d's cohort
columns come in the serial im2col order, so every cohort kernel these
recipes run sums in the serial order, at least on the BLAS build the
captures were made with.  A kernel change that reorders sums re-pins
these cases with ``REPRO_UPDATE_GOLDENS=1`` and records the measured
difference.

Training reaches the capture through losses and parameter digests, but
evaluation would reach it only through accuracies and IFCA's cluster
choices, which a last-bit change seldom moves.  So each capture also
pins ``eval_digest`` (:func:`eval_digest`): the final eval-mode logits
of every client through the case's own backend, and IFCA's scoring-loss
table.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from golden import DATA_DIR

from repro.algorithms import ifca
from repro.experiments import SMOKE_SCALE
from repro.experiments.runner import run_cell
from repro.nn.layers import Conv2d
from repro.nn.model import CohortModel
from repro.nn.serialization import unflatten_params

#: case -> (dataset, method, engine options), as in the benchmark cells
RECIPES = {
    "fedclust-lenet": ("cifar10", "fedclust", {}),
    "ifca-lenet": ("cifar10", "ifca", {}),
    "fedavg-resnet-topk": (
        "cifar100", "fedavg",
        {"codec": "topk", "network": "hetero", "scheduler": "semisync"},
    ),
}


def eval_logits(algo, backend: str) -> list[np.ndarray]:
    """Every client's final eval-mode logits on its local test set, in
    client order, through ``backend``'s evaluation kernels:
    ``Sequential.predict`` on the work model for ``serial``, one
    ``CohortModel.predict`` per equal-shape group of clients for
    ``vector``."""
    fed = algo.fed
    ids = range(fed.num_clients)
    if backend == "serial":
        logits = []
        for cid in ids:
            unflatten_params(algo.model, algo.eval_params_for_client(cid))
            algo.model.load_state(algo.eval_state_for_client(cid))
            logits.append(algo.model.predict(fed[cid].test_x))
        return logits
    groups: dict[tuple, list[int]] = {}
    for cid in ids:
        groups.setdefault(fed[cid].test_x.shape, []).append(cid)
    by_client = {}
    for members in groups.values():
        cm = CohortModel(algo.model_fn(algo.rngs.make("model_init")), len(members))
        cm.load_flat(np.stack([algo.eval_params_for_client(c) for c in members]))
        if cm.has_state():
            cm.load_states([algo.eval_state_for_client(c) for c in members])
        out = cm.predict(np.stack([fed[c].test_x for c in members]))
        by_client.update(zip(members, out))
    return [by_client[cid] for cid in ids]


def ifca_score_table(algo) -> np.ndarray:
    """IFCA's ``(k, clients)`` scoring-loss table over every client, as
    the one ``evaluate_loss`` call of a whole-federation assignment pass
    returns it."""
    tables = []

    def spy(*args, **kwargs):
        tables.append(real(*args, **kwargs))
        return tables[-1]

    real = ifca.evaluate_loss
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ifca, "evaluate_loss", spy)
        algo._best_clusters(list(range(algo.fed.num_clients)))
    (table,) = tables
    return table


def eval_digest(algo, backend: str) -> str:
    """SHA-256 over, for IFCA, :func:`ifca_score_table`, then over
    :func:`eval_logits`."""
    digest = hashlib.sha256()
    if isinstance(algo, ifca.IFCA):
        digest.update(ifca_score_table(algo).tobytes())
    for logits in eval_logits(algo, backend):
        digest.update(logits.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("backend", ["serial", "vector"])
@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_recipe_matches_capture(recipe, backend, golden_compare):
    dataset, method, options = RECIPES[recipe]
    res = run_cell(
        dataset, method, "label_skew_20", SMOKE_SCALE, seed=0,
        fl_options={**options, "backend": backend},
    )
    assert any(isinstance(layer, Conv2d) for layer in res.algorithm.model.layers)
    golden_compare(
        "golden_conv.json", f"{recipe}-{backend}", res.algorithm, res.history,
        eval_digest=eval_digest(res.algorithm, backend),
    )


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_vector_capture_equals_serial(recipe):
    """Each recipe's vector capture is its serial capture, field for
    field, parameter and eval digests included."""
    captures = json.loads((DATA_DIR / "golden_conv.json").read_text())
    assert captures[f"{recipe}-vector"] == captures[f"{recipe}-serial"]
