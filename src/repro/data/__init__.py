"""Synthetic datasets, non-IID partitioners, and federated containers."""

from repro.data.datasets import DATASET_SPECS, Dataset, DatasetSpec, make_dataset
from repro.data.federated import (
    ClientData,
    FederatedDataset,
    LazyFederatedDataset,
    build_federated_dataset,
    grouped_label_partition,
)
from repro.data.partition import (
    PARTITIONERS,
    BlockIndices,
    Partition,
    contiguous_partition,
    dirichlet_partition,
    iid_partition,
    label_skew_partition,
    make_partition,
    quantity_skew_partition,
)
from repro.data.synthetic import make_prototypes, sample_class_images, smooth_field

__all__ = [
    "Dataset",
    "DatasetSpec",
    "DATASET_SPECS",
    "make_dataset",
    "ClientData",
    "FederatedDataset",
    "LazyFederatedDataset",
    "build_federated_dataset",
    "grouped_label_partition",
    "Partition",
    "BlockIndices",
    "PARTITIONERS",
    "iid_partition",
    "label_skew_partition",
    "dirichlet_partition",
    "quantity_skew_partition",
    "contiguous_partition",
    "make_partition",
    "make_prototypes",
    "sample_class_images",
    "smooth_field",
]
