"""Experiment configurations: scales, per-dataset models, per-method knobs.

``PAPER_SCALE`` states the paper's actual parameters (100 clients, 200
rounds, 10 local epochs, LeNet-5 / ResNet-9).  ``BENCH_SCALE`` /
``SMOKE_SCALE`` are CPU-feasible reductions used by the benchmark harness
and tests; both run the *identical* code path, only smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.data import build_federated_dataset, make_dataset
from repro.fl import registry
from repro.fl.config import FLConfig
from repro.nn.models import build_model

__all__ = [
    "ExperimentScale",
    "PAPER_SCALE",
    "BENCH_SCALE",
    "SMOKE_SCALE",
    "DATASET_MODEL",
    "method_extras",
    "NONIID_SETTINGS",
    "ALL_METHODS",
    "FIG3_METHODS",
    "make_federation",
    "make_model_fn",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs shared by every experiment at a given fidelity."""

    name: str
    num_clients: int
    n_samples: int
    image_size: int
    rounds: int
    sample_rate: float
    local_epochs: int
    batch_size: int
    lr: float
    momentum: float
    eval_every: int
    model_width: float
    #: multiplier on n_samples for the 100-class dataset
    cifar100_factor: float = 2.0
    #: extra width multiplier for ResNet-9 (the heavy architecture)
    resnet_width_factor: float = 1.0
    #: distinct label sets in label-skew partitions (None = independent
    #: per-client draws).  The paper's 100-client scale collides naturally;
    #: small scales pool label sets to keep the latent cluster structure
    #: comparable (see label_skew_partition).
    label_set_pool: int | None = None

    def fl_config(self, **overrides) -> FLConfig:
        """The scale's :class:`~repro.fl.config.FLConfig`.

        Any field can be overridden by keyword — including the
        client-execution backend (``backend="vector"``), which changes
        wall-clock time and nothing else.
        """
        base = dict(
            rounds=self.rounds,
            sample_rate=self.sample_rate,
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            eval_every=self.eval_every,
        )
        base.update(overrides)
        return FLConfig(**base)

    def scaled(self, **kwargs) -> "ExperimentScale":
        return replace(self, **kwargs)


#: The paper's setup (Section 5.1) — runnable, but hours on CPU.
PAPER_SCALE = ExperimentScale(
    name="paper",
    num_clients=100,
    n_samples=50_000,
    image_size=16,
    rounds=200,
    sample_rate=0.1,
    local_epochs=10,
    batch_size=10,
    lr=0.01,
    momentum=0.5,
    eval_every=10,
    model_width=1.0,
)

#: The default scale for the benchmark harness: minutes on CPU.
BENCH_SCALE = ExperimentScale(
    name="bench",
    num_clients=20,
    n_samples=1000,
    image_size=8,
    rounds=8,
    sample_rate=0.3,
    local_epochs=2,
    batch_size=10,
    lr=0.05,
    momentum=0.5,
    eval_every=2,
    model_width=0.25,
    resnet_width_factor=0.5,
    label_set_pool=5,
)

#: For tests: seconds on CPU.
SMOKE_SCALE = ExperimentScale(
    name="smoke",
    num_clients=6,
    n_samples=400,
    image_size=8,
    rounds=3,
    sample_rate=0.5,
    local_epochs=1,
    batch_size=10,
    lr=0.05,
    momentum=0.5,
    eval_every=1,
    model_width=0.25,
    label_set_pool=3,
)


#: Paper §5.1: LeNet-5 for CIFAR-10/FMNIST/SVHN, ResNet-9 for CIFAR-100.
DATASET_MODEL = {
    "cifar10": "lenet5",
    "fmnist": "lenet5",
    "svhn": "lenet5",
    "cifar100": "resnet9",
}

#: The paper's three heterogeneity settings (Tables 1, 2, 3).
NONIID_SETTINGS = {
    "label_skew_20": ("label_skew", {"frac_labels": 0.2}),
    "label_skew_30": ("label_skew", {"frac_labels": 0.3}),
    "dirichlet_0.1": ("dirichlet", {"alpha": 0.1}),
    # Homogeneous control (not in the paper's tables): client updates are
    # exchangeable, which is the regime where robust aggregation's
    # guarantees hold — the adversarial bench runs here.
    "iid": ("iid", {}),
}

ALL_METHODS = [
    "local",
    "fedavg",
    "fedprox",
    "fednova",
    "lg",
    "perfedavg",
    "cfl",
    "ifca",
    "pacfl",
    "fedclust",
]

#: Fig. 3 compares the personalized / clustered methods only.
FIG3_METHODS = ["fedclust", "lg", "perfedavg", "pacfl", "ifca", "cfl"]


def method_extras(method: str, dataset: str, scale: ExperimentScale) -> dict:
    """Per-method ``FLConfig.extra`` knobs (paper §5.1 hyper-parameters).

    Derived from each algorithm's registry declaration
    (``extras_defaults`` in its ``@register("algorithm", ...)`` — e.g.
    FedClust's λ="auto" largest-gap cut, IFCA's k=4, PACFL's p=3,
    FedProx's μ=0.01).  The :data:`~repro.fl.registry.SCALE_LR` sentinel
    is substituted with the running scale's learning rate (Per-FedAvg's
    outer step β).
    """
    spec = registry.get_family("algorithm").impls.get(method)
    if spec is None:
        return {}
    return {
        key: (scale.lr if value is registry.SCALE_LR else value)
        for key, value in spec.extras_defaults.items()
    }


def make_federation(
    dataset: str,
    setting: str,
    scale: ExperimentScale,
    seed: int = 0,
):
    """Dataset + partition for one experiment cell."""
    scheme, params = NONIID_SETTINGS[setting]
    params = dict(params)
    if scheme == "label_skew" and scale.label_set_pool is not None:
        params["num_label_sets"] = scale.label_set_pool
    n = scale.n_samples
    if dataset == "cifar100":
        n = int(n * scale.cifar100_factor)
    ds = make_dataset(dataset, seed=seed, n_samples=n, size=scale.image_size)
    return build_federated_dataset(
        ds, scheme, num_clients=scale.num_clients, rng=seed, **params
    )


def make_model_fn(dataset: str, fed, scale: ExperimentScale):
    """Model factory for a dataset at a scale (paper's architecture map)."""
    arch = DATASET_MODEL[dataset]
    width = scale.model_width
    if arch == "resnet9":
        width *= scale.resnet_width_factor

    def model_fn(rng: np.random.Generator):
        return build_model(arch, fed.num_classes, fed.input_shape, rng=rng, width=width)

    return model_fn
