"""Federated dataset containers: per-client train/test shards.

The paper's headline metric is the *average final local test accuracy over
all clients*: every client evaluates on a held-out split of its **own**
(non-IID) data.  ``FederatedDataset`` owns that per-client train/test split
and the partition statistics the experiments report.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset
from repro.data.partition import Partition, make_partition
from repro.utils.maths import emd_heterogeneity, label_histogram
from repro.utils.rng import as_generator

__all__ = [
    "ClientData",
    "FederatedDataset",
    "LazyFederatedDataset",
    "build_federated_dataset",
    "grouped_label_partition",
]


@dataclass
class ClientData:
    """One client's local shard, already split into train and test."""

    client_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def n_train(self) -> int:
        return int(self.train_y.size)

    @property
    def n_test(self) -> int:
        return int(self.test_y.size)

    def label_hist(self, num_classes: int) -> np.ndarray:
        return label_histogram(self.train_y, num_classes)


class FederatedDataset:
    """All clients' shards plus global metadata.

    Iterable and indexable by client id.  Slicing utilities support the
    newcomer experiment (Table 6): ``split_newcomers(k)`` removes the last
    ``k`` clients from the federation and returns them separately.
    """

    def __init__(
        self,
        clients: list[ClientData],
        num_classes: int,
        input_shape: tuple[int, int, int],
        partition: Partition | None = None,
        name: str = "federated",
    ):
        if not clients:
            raise ValueError("FederatedDataset needs at least one client")
        self.clients = clients
        self.num_classes = num_classes
        self.input_shape = input_shape
        self.partition = partition
        self.name = name

    def __len__(self) -> int:
        return len(self.clients)

    def __getitem__(self, i: int) -> ClientData:
        return self.clients[i]

    def __iter__(self):
        return iter(self.clients)

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def total_train_samples(self) -> int:
        return sum(c.n_train for c in self.clients)

    def label_hists(self) -> np.ndarray:
        """(clients, classes) matrix of local train label distributions."""
        return np.stack([c.label_hist(self.num_classes) for c in self.clients])

    def heterogeneity(self) -> float:
        """Scalar EMD-style label-skew index (0 = IID)."""
        return emd_heterogeneity(self.label_hists())

    def ground_truth_groups(self) -> np.ndarray | None:
        """Cluster ground truth from label sets, when the partitioner
        recorded them: clients with identical label sets share a group id."""
        if self.partition is None or self.partition.client_label_sets is None:
            return None
        seen: dict[frozenset, int] = {}
        out = np.empty(len(self.clients), dtype=np.int64)
        # Index label sets by the preserved client_id so views produced by
        # split_newcomers() still map correctly.
        for i, client in enumerate(self.clients):
            s = self.partition.client_label_sets[client.client_id]
            out[i] = seen.setdefault(s, len(seen))
        return out

    def detach_joiners(self, k: int) -> list[ClientData]:
        """Hold out the last ``k`` clients as a late-joiner pool.

        Unlike :meth:`split_newcomers` (which builds two independent
        dataset views for the post-hoc Table-6 protocol), this mutates
        the dataset in place for a *running* federation with a dynamic
        population (:mod:`repro.fl.population`): the detached clients'
        shards stay materialised but leave the roster — ``num_clients``,
        iteration, and the headline all-client accuracy metric reflect
        only clients the server has met — until :meth:`attach` folds
        each one back in at its join time.  The partition metadata is
        split alongside (:meth:`repro.data.partition.Partition.split_tail`)
        so ``sizes()``/``validate_disjoint`` keep describing the active
        roster.

        Args:
            k: pool size, in ``(0, num_clients)``.

        Returns:
            The detached clients, in ascending id order.
        """
        if not 0 < k < len(self.clients):
            raise ValueError(
                f"k must be in (0, {len(self.clients)}), got {k}"
            )
        pool = self.clients[-k:]
        self.clients = self.clients[:-k]
        self._detached_partition: Partition | None = None
        if self.partition is not None and self.partition.num_clients >= len(
            self.clients
        ) + k:
            self.partition, self._detached_partition = self.partition.split_tail(k)
        return pool

    def attach(self, client: ClientData) -> None:
        """Fold a detached (or brand-new) client back into the roster.

        Ids must stay contiguous — ``client.client_id`` has to be the
        next id — so every ``range(num_clients)`` sweep (evaluation,
        setup) remains valid.

        Args:
            client: the joining client's shard.

        Raises:
            ValueError: if the id would break contiguity.
        """
        if client.client_id != len(self.clients):
            raise ValueError(
                f"client_id {client.client_id} breaks id contiguity; "
                f"expected {len(self.clients)}"
            )
        self.clients.append(client)
        detached = getattr(self, "_detached_partition", None)
        if self.partition is not None and detached is not None and detached.client_indices:
            self.partition = Partition(
                self.partition.client_indices + detached.client_indices[:1],
                self.partition.scheme,
                dict(self.partition.params),
                client_label_sets=self.partition.client_label_sets,
            )
            self._detached_partition = Partition(
                detached.client_indices[1:],
                detached.scheme,
                dict(detached.params),
                client_label_sets=detached.client_label_sets,
            )

    def split_newcomers(self, k: int) -> tuple["FederatedDataset", "FederatedDataset"]:
        """Hold out the last ``k`` clients as post-federation newcomers."""
        if not 0 < k < len(self.clients):
            raise ValueError(
                f"k must be in (0, {len(self.clients)}), got {k}"
            )
        base = FederatedDataset(
            self.clients[:-k], self.num_classes, self.input_shape, self.partition,
            name=f"{self.name}.base",
        )
        new = FederatedDataset(
            self.clients[-k:], self.num_classes, self.input_shape, self.partition,
            name=f"{self.name}.newcomers",
        )
        return base, new


#: domain-separation constant keying per-client shard permutations in
#: :class:`LazyFederatedDataset` (mixed into the ``default_rng`` seed
#: tuple so shard draws never collide with any other keyed stream)
_SHARD_KEY = 0x5A4D


class LazyFederatedDataset(FederatedDataset):
    """On-demand client shards with LRU page-out — memory O(resident set).

    The eager :class:`FederatedDataset` materializes every client's
    train/test arrays up front, which is O(population) memory and the
    reason the seed engine topped out at a few thousand clients.  This
    container keeps only the *partition description* (ideally a lazy one
    — :class:`repro.data.partition.BlockIndices`) plus the underlying
    dataset, and synthesizes ``ClientData`` shards the moment a client
    is touched (training, evaluation), caching at most ``cache_clients``
    of them in an LRU.

    Shard contents are a **pure function** of ``(seed, client_id)``:
    each client's train/test permutation comes from its own keyed
    ``default_rng((seed, _SHARD_KEY, client_id))`` stream, so a paged-out
    shard re-materializes bit-for-bit identical and eviction order cannot
    affect results.  Note this per-client keying intentionally differs
    from the eager builder's single shared split generator — the two
    containers are distinct components, not bitwise aliases; pinned
    goldens all use the eager builder.

    Residency is derivable, not state: a checkpoint records resident
    *ids* so a resume can re-warm the working set (see
    :mod:`repro.fl.checkpoint`).
    """

    def __init__(
        self,
        dataset: Dataset,
        partition: Partition,
        test_fraction: float = 0.2,
        seed: int = 0,
        cache_clients: int = 1024,
        name: str | None = None,
    ):
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(
                f"test_fraction must be in (0, 1), got {test_fraction}"
            )
        if cache_clients < 1:
            raise ValueError(
                f"cache_clients must be >= 1, got {cache_clients}"
            )
        if partition.num_clients < 1:
            raise ValueError("partition must describe at least one client")
        self._dataset = dataset
        self.partition = partition
        self.num_classes = dataset.num_classes
        self.input_shape = dataset.input_shape
        self.test_fraction = float(test_fraction)
        self.seed = int(seed)
        self.cache_clients = int(cache_clients)
        self.name = name or f"{dataset.name}.lazy"
        #: active roster size (shrinks under detach_joiners, grows on attach)
        self._active = partition.num_clients
        self._cache: OrderedDict[int, ClientData] = OrderedDict()

    # ------------------------------------------------------------------
    # materialization and residency
    # ------------------------------------------------------------------
    def _materialize(self, cid: int) -> ClientData:
        """Build one client's shard from its keyed permutation (pure)."""
        idx = np.asarray(self.partition.client_indices[cid])
        rng = np.random.default_rng((self.seed, _SHARD_KEY, int(cid)))
        idx = rng.permutation(idx)
        n_test = min(
            max(1, int(round(self.test_fraction * idx.size))), idx.size - 1
        )
        test_ix, train_ix = idx[:n_test], idx[n_test:]
        ds = self._dataset
        return ClientData(
            client_id=int(cid),
            train_x=ds.x[train_ix],
            train_y=ds.y[train_ix],
            test_x=ds.x[test_ix],
            test_y=ds.y[test_ix],
        )

    def __getitem__(self, i: int) -> ClientData:
        cid = int(i)
        if cid < 0:
            cid += self._active
        if not 0 <= cid < self._active:
            raise IndexError(f"client {i} out of range (roster {self._active})")
        shard = self._cache.get(cid)
        if shard is not None:
            self._cache.move_to_end(cid)
            return shard
        shard = self._materialize(cid)
        self._cache[cid] = shard
        while len(self._cache) > self.cache_clients:
            self._cache.popitem(last=False)  # page out, LRU first
        return shard

    def __len__(self) -> int:
        return self._active

    def __iter__(self):
        for cid in range(self._active):
            yield self[cid]

    @property
    def num_clients(self) -> int:
        return self._active

    def resident_shards(self) -> int:
        """How many shards are materialized right now (telemetry gauge)."""
        return len(self._cache)

    def resident_ids(self) -> list[int]:
        """Sorted resident client ids (checkpointed so a resume re-warms)."""
        return sorted(self._cache)

    def warm(self, ids) -> None:
        """Pre-materialize ``ids`` (resume path; respects the LRU cap)."""
        for cid in ids:
            self[int(cid)]

    def drop_cache(self) -> None:
        """Page out every resident shard (tests, memory pressure)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # metadata without materialization
    # ------------------------------------------------------------------
    def total_train_samples(self) -> int:
        total = 0
        for n in self.partition.sizes()[: self._active]:
            n = int(n)
            total += n - min(max(1, int(round(self.test_fraction * n))), n - 1)
        return total

    def label_hists(self) -> np.ndarray:
        """(clients, classes) train label histograms — touches only ``y``
        (per-client index permutations, never the feature arrays)."""
        out = np.zeros((self._active, self.num_classes), dtype=np.float64)
        y = self._dataset.y
        for cid in range(self._active):
            idx = np.asarray(self.partition.client_indices[cid])
            rng = np.random.default_rng((self.seed, _SHARD_KEY, cid))
            idx = rng.permutation(idx)
            n_test = min(
                max(1, int(round(self.test_fraction * idx.size))), idx.size - 1
            )
            out[cid] = label_histogram(y[idx[n_test:]], self.num_classes)
        return out

    def ground_truth_groups(self) -> np.ndarray | None:
        if self.partition.client_label_sets is None:
            return None
        seen: dict[frozenset, int] = {}
        out = np.empty(self._active, dtype=np.int64)
        for cid in range(self._active):
            s = self.partition.client_label_sets[cid]
            out[cid] = seen.setdefault(s, len(seen))
        return out

    # ------------------------------------------------------------------
    # dynamic populations
    # ------------------------------------------------------------------
    def detach_joiners(self, k: int) -> list[ClientData]:
        """Hold out the tail ``k`` ids; their shards stay lazy (pure), so
        detaching costs one materialization per joiner and nothing is
        copied — the partition is never split (indexing is by id)."""
        if not 0 < k < self._active:
            raise ValueError(f"k must be in (0, {self._active}), got {k}")
        pool = [self[cid] for cid in range(self._active - k, self._active)]
        self._active -= k
        return pool

    def attach(self, client: ClientData) -> None:
        if client.client_id != self._active:
            raise ValueError(
                f"client_id {client.client_id} breaks id contiguity; "
                f"expected {self._active}"
            )
        self._active += 1
        # the joiner's shard is already materialized; keep it warm
        self._cache[int(client.client_id)] = client
        self._cache.move_to_end(int(client.client_id))
        while len(self._cache) > self.cache_clients:
            self._cache.popitem(last=False)

    def split_newcomers(self, k: int):
        raise NotImplementedError(
            "split_newcomers builds two eager dataset views; use "
            "build_federated_dataset for the Table-6 newcomer protocol"
        )


def build_federated_dataset(
    dataset: Dataset,
    scheme: str,
    num_clients: int,
    rng: int | np.random.Generator = 0,
    test_fraction: float = 0.2,
    **partition_params,
) -> FederatedDataset:
    """Partition ``dataset`` and split each client shard into train/test.

    The split is stratified-ish by shuffling within the client shard; every
    client keeps at least one train and (when possible) one test sample.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = as_generator(rng)
    part = make_partition(scheme, dataset.y, num_clients, rng=rng, **partition_params)
    part.validate_disjoint(len(dataset))
    clients = []
    for cid, idx in enumerate(part.client_indices):
        idx = rng.permutation(idx)
        n_test = min(max(1, int(round(test_fraction * idx.size))), idx.size - 1)
        test_ix, train_ix = idx[:n_test], idx[n_test:]
        clients.append(
            ClientData(
                client_id=cid,
                train_x=dataset.x[train_ix],
                train_y=dataset.y[train_ix],
                test_x=dataset.x[test_ix],
                test_y=dataset.y[test_ix],
            )
        )
    return FederatedDataset(
        clients, dataset.num_classes, dataset.input_shape, part, name=dataset.name
    )


def grouped_label_partition(
    dataset: Dataset,
    groups: list[list[int]],
    clients_per_group: int,
    rng: int | np.random.Generator = 0,
    test_fraction: float = 0.2,
) -> FederatedDataset:
    """The Fig.-1 motivation setting: explicit client groups by label list.

    ``groups`` is a list of disjoint label lists (e.g. ``[[0..4], [5..9]]``);
    each group is served by ``clients_per_group`` clients that share its
    label pool IID.
    """
    rng = as_generator(rng)
    all_labels = [lab for g in groups for lab in g]
    if len(set(all_labels)) != len(all_labels):
        raise ValueError("groups must have disjoint label sets")
    clients: list[ClientData] = []
    label_sets: list[frozenset] = []
    cid = 0
    for group in groups:
        mask = np.isin(dataset.y, group)
        idx = rng.permutation(np.flatnonzero(mask))
        shards = np.array_split(idx, clients_per_group)
        for shard in shards:
            shard = rng.permutation(shard)
            n_test = min(max(1, int(round(test_fraction * shard.size))), shard.size - 1)
            clients.append(
                ClientData(
                    client_id=cid,
                    train_x=dataset.x[shard[n_test:]],
                    train_y=dataset.y[shard[n_test:]],
                    test_x=dataset.x[shard[:n_test]],
                    test_y=dataset.y[shard[:n_test]],
                )
            )
            label_sets.append(frozenset(int(v) for v in group))
            cid += 1
    part = Partition(
        [np.array([], dtype=np.int64)] * len(clients),
        "grouped",
        {"groups": groups, "clients_per_group": clients_per_group},
        client_label_sets=label_sets,
    )
    return FederatedDataset(
        clients, dataset.num_classes, dataset.input_shape, part, name=dataset.name
    )
