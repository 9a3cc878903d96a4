"""PACFL (Vahidian et al., 2022): clustering by principal angles between
client data subspaces.

Before federation each client applies truncated SVD to its local data
matrix and sends the top-``p`` right singular vectors to the server.  The
proximity between two clients is the sum of principal angles between their
subspaces; hierarchical clustering on that proximity yields the clusters,
after which training proceeds per-cluster like FedClust.  This is the
strongest baseline in the paper's tables.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.clustered import ClusteredAlgorithm
from repro.clustering.hierarchical import agglomerative, largest_gap_threshold
from repro.fl.registry import opt, register

__all__ = ["PACFL", "principal_angle_matrix", "client_subspace"]


def client_subspace(x: np.ndarray, p: int) -> np.ndarray:
    """Top-``p`` right singular vectors of the client's flattened data.

    Returns an orthonormal (p, d) basis of the local data subspace.
    """
    flat = np.asarray(x, dtype=np.float64).reshape(x.shape[0], -1)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    p_eff = min(p, *flat.shape)
    # full_matrices=False: we only need the leading rows (HPC guide: ask
    # LAPACK for the economy SVD).
    _, _, vt = np.linalg.svd(flat, full_matrices=False)
    return vt[:p_eff]


def principal_angle_matrix(bases: list[np.ndarray]) -> np.ndarray:
    """Pairwise sum of principal angles (degrees) between subspace bases."""
    m = len(bases)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            sv = np.linalg.svd(bases[i] @ bases[j].T, compute_uv=False)
            angles = np.degrees(np.arccos(np.clip(sv, -1.0, 1.0)))
            out[i, j] = out[j, i] = float(angles.sum())
    return out


@register("algorithm", "pacfl", options=[
    opt("p", int, 3, low=1,
        help="number of left singular vectors spanning each client's "
             "data subspace"),
    opt("angle_threshold", float, "auto", choices=("auto",), low=0.0,
        help="dendrogram cut in summed principal-angle degrees, or "
             "'auto' for the largest-gap heuristic"),
    opt("linkage", str, "average",
        help="agglomerative linkage for the principal-angle clustering"),
], extras_defaults={"p": 3, "angle_threshold": "auto", "linkage": "average"})
class PACFL(ClusteredAlgorithm):
    """Pre-federation clustering by principal angles between client data
    subspaces (see module docstring); knobs: ``p``, ``angle_threshold``."""

    name = "pacfl"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Paper §5.1 uses p = 3 everywhere; the clustering threshold is in
        # degrees (sum of principal angles).
        self.p = int(self.options["p"])
        # "auto" cuts at the largest merge-height gap (PACFL's original
        # threshold is in degrees and tuned per dataset).
        threshold = self.options["angle_threshold"]
        auto = str(threshold).strip().lower() == "auto"
        self.threshold: float | str = "auto" if auto else float(threshold)
        self.linkage = str(self.options["linkage"])

    def setup(self) -> None:
        bases = [
            client_subspace(self.fed[cid].train_x, self.p)
            for cid in range(self.fed.num_clients)
        ]
        # Round-0 upload: p singular vectors per client (float32 on the wire).
        d = bases[0].shape[1]
        for cid in range(self.fed.num_clients):
            self.comm.record_upload(0, bases[cid].shape[0] * d * 4)
        proximity = principal_angle_matrix(bases)
        dend = agglomerative(proximity, self.linkage)
        if self.threshold == "auto":
            t = largest_gap_threshold(dend, min_clusters=2)
        else:
            t = self.threshold
        self.init_clusters(dend.cut(t))
