"""Baseline federated-learning algorithms and the algorithm registry.

Each algorithm class registers itself (and its ``FLConfig.extra`` knobs)
with the component registry via ``@register("algorithm", name, ...)`` in
its own module (:mod:`repro.fl.registry`); importing this package loads
them all, so ``registry.classes("algorithm")`` lists every one.
"""

from repro.algorithms.cfl import CFL
from repro.algorithms.clustered import ClusteredAlgorithm
from repro.algorithms.extensions import FedDyn, Scaffold
from repro.algorithms.global_baselines import FedAvg, FedNova, FedProx
from repro.algorithms.ifca import IFCA
from repro.algorithms.lg_fedavg import LGFedAvg
from repro.algorithms.local import Local
from repro.algorithms.pacfl import PACFL
from repro.algorithms.perfedavg import PerFedAvg
from repro.core.fedclust import FedClust  # noqa: F401 - registers "fedclust"
from repro.fl import registry


def build_algorithm(name: str, fed, model_fn, config, seed: int = 0):
    """Instantiate a registered algorithm by name."""
    impls = registry.get_family("algorithm").impls
    try:
        cls = impls[name].cls
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(impls)}"
        ) from None
    return cls(fed, model_fn, config, seed=seed)


__all__ = [
    "Local",
    "FedAvg",
    "FedProx",
    "FedNova",
    "LGFedAvg",
    "PerFedAvg",
    "CFL",
    "IFCA",
    "PACFL",
    "Scaffold",
    "FedDyn",
    "ClusteredAlgorithm",
    "build_algorithm",
]
