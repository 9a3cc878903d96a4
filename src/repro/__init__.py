"""repro — a full reproduction of FedClust (ICPP'24).

Weight-driven one-shot clustered federated learning, plus every substrate
the paper's evaluation depends on: a from-scratch NumPy deep-learning
framework, synthetic non-IID image benchmarks, an exact-metering FL
simulation engine, a from-scratch hierarchical clustering implementation,
and nine baseline algorithms.

Quickstart::

    from repro import make_dataset, build_federated_dataset, FLConfig
    from repro import FedClust, lenet5

    ds = make_dataset("cifar10", seed=0)
    fed = build_federated_dataset(ds, "label_skew", num_clients=20,
                                  frac_labels=0.2, rng=0)
    cfg = FLConfig(rounds=10).with_extra(lam=1.0)
    model_fn = lambda rng: lenet5(fed.num_classes, fed.input_shape, rng=rng)
    history = FedClust(fed, model_fn, cfg, seed=0).run()
    print(history.final_accuracy())
"""

from repro.algorithms import (
    CFL,
    IFCA,
    PACFL,
    FedAvg,
    FedNova,
    FedProx,
    LGFedAvg,
    Local,
    PerFedAvg,
    build_algorithm,
)
from repro.core import (
    FedClust,
    NewcomerResult,
    incorporate_newcomer,
    incorporate_newcomers,
    select_weights,
)
from repro.data import (
    DATASET_SPECS,
    Dataset,
    FederatedDataset,
    build_federated_dataset,
    grouped_label_partition,
    make_dataset,
)
from repro.fl import FLConfig, History
from repro.nn import build_model, lenet5, mlp, resnet9, vgg_mini

__version__ = "1.0.0"

__all__ = [
    "FedClust",
    "NewcomerResult",
    "incorporate_newcomer",
    "incorporate_newcomers",
    "select_weights",
    "build_algorithm",
    "Local",
    "FedAvg",
    "FedProx",
    "FedNova",
    "LGFedAvg",
    "PerFedAvg",
    "CFL",
    "IFCA",
    "PACFL",
    "Dataset",
    "DATASET_SPECS",
    "make_dataset",
    "FederatedDataset",
    "build_federated_dataset",
    "grouped_label_partition",
    "FLConfig",
    "History",
    "mlp",
    "lenet5",
    "resnet9",
    "vgg_mini",
    "build_model",
    "__version__",
]
