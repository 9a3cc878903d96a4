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
exactly to its own capture in ``tests/data/golden_conv.json``: each
backend is deterministic on one host, while the two differ from each
other within the ``VECTOR_*`` contract only (the cohort kernels reorder
float sums).  A kernel change that reorders sums re-pins these cases
with ``REPRO_UPDATE_GOLDENS=1`` and records the measured difference.
"""

from __future__ import annotations

import pytest

from repro.experiments import SMOKE_SCALE
from repro.experiments.runner import run_cell
from repro.nn.layers import Conv2d

#: case -> (dataset, method, engine options), as in the benchmark cells
RECIPES = {
    "fedclust-lenet": ("cifar10", "fedclust", {}),
    "ifca-lenet": ("cifar10", "ifca", {}),
    "fedavg-resnet-topk": (
        "cifar100", "fedavg",
        {"codec": "topk", "network": "hetero", "scheduler": "semisync"},
    ),
}


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
        "golden_conv.json", f"{recipe}-{backend}", res.algorithm, res.history
    )
