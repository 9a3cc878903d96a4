"""Shared utilities: deterministic RNG management and small math helpers."""

from repro.utils.rng import RngFactory, as_generator
from repro.utils.maths import (
    emd_heterogeneity,
    label_histogram,
    pairwise_sq_euclidean,
    softmax,
)

__all__ = [
    "RngFactory",
    "as_generator",
    "emd_heterogeneity",
    "label_histogram",
    "pairwise_sq_euclidean",
    "softmax",
]
