"""Hyper-parameter configuration for federated training runs."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.fl import registry

__all__ = ["FLConfig"]


@dataclass(frozen=True)
class FLConfig:
    """Federation hyper-parameters (paper §5.1 defaults, scaled).

    The paper trains 100 clients for 200 rounds with 10% sampling, 10 local
    epochs, batch size 10, SGD.  Those values are expressible here; the
    library's tests and benches default to smaller, CPU-friendly numbers.

    Component selection (``backend`` / ``codec`` / ``network`` /
    ``scheduler``) and the components' knobs are declared once in the
    component registry (:mod:`repro.fl.registry`), which derives this
    class's validation: each spec field accepts a registered name,
    ``"auto"`` (resolve from the family's ``REPRO_*`` environment
    variable), or an inline spec string such as ``"topk:frac=0.05"`` /
    ``"buffered:bs=8,sa=0.5"``.
    """

    rounds: int = 20
    sample_rate: float = 0.1
    local_epochs: int = 2
    batch_size: int = 10
    lr: float = 0.05
    momentum: float = 0.5
    weight_decay: float = 0.0
    #: evaluate average local test accuracy every ``eval_every`` rounds
    eval_every: int = 1
    #: probability that a sampled client drops out before reporting its
    #: update (paper §4.2: unreliable client communication).  The server
    #: still pays the download; the upload never happens.
    dropout_rate: float = 0.0
    #: client-execution backend (:mod:`repro.fl.execution`): ``"serial"``
    #: (a plain loop over the clients), ``"vector"`` (cohort-batched
    #: kernels, within a pinned tolerance of serial), or ``"auto"``
    #: (resolve from ``REPRO_BACKEND``, defaulting to serial)
    backend: str = "auto"
    #: upload codec (:mod:`repro.fl.codecs`): ``"none"``, ``"fp16"``,
    #: ``"int8"``, ``"topk"``, ``"auto"`` (resolve from ``REPRO_CODEC``,
    #: defaulting to ``none`` — the seed's raw-float64 wire format), or
    #: an inline spec (``"topk:frac=0.05"``)
    codec: str = "auto"
    #: fraction of delta entries the ``topk`` codec transmits per round
    topk_frac: float = 0.05
    #: simulated network profile (:mod:`repro.fl.network`): ``"ideal"``,
    #: ``"uniform"``, ``"hetero"``, ``"stragglers"``, ``"flaky"``,
    #: ``"auto"`` (resolve from ``REPRO_NETWORK``, defaulting to ideal),
    #: or an inline spec (``"stragglers:straggler_factor=8"``)
    network: str = "auto"
    #: per-round deadline in *simulated* seconds: clients whose simulated
    #: download + compute + upload exceeds it are cut off and the server
    #: aggregates the partial cohort.  ``None`` disables the deadline
    #: (``REPRO_DEADLINE`` can still enable it globally).  The
    #: ``buffered`` scheduler has no rounds to cut and rejects it.
    deadline: float | None = None
    #: control-loop scheduler (:mod:`repro.fl.scheduler`): ``"sync"``
    #: (the seed round loop), ``"semisync"`` (over-select, aggregate the
    #: first quorum arrivals, cancel the tail), ``"buffered"`` (async
    #: buffered aggregation with staleness discounts), ``"auto"``
    #: (resolve from ``REPRO_SCHEDULER``, defaulting to sync), or an
    #: inline spec (``"buffered:bs=8,sa=0.5"``)
    scheduler: str = "auto"
    #: arrivals per ``buffered`` flush; 0 picks half the concurrency,
    #: min 2, capped at the concurrency.  ``buffer_size == cohort`` with
    #: ``staleness_alpha == 0`` reduces ``buffered`` to ``sync``
    #: bit-for-bit.
    buffer_size: int = 0
    #: staleness-discount strength for ``buffered`` aggregation weights
    #: (``(1 + staleness) ** -alpha`` in the default polynomial mode;
    #: 0 disables discounting)
    staleness_alpha: float = 0.5
    #: extra fraction of the cohort the ``semisync`` scheduler
    #: over-selects (it aggregates the first nominal-cohort arrivals and
    #: cancels the rest)
    over_select_frac: float = 0.25
    #: client-population model (:mod:`repro.fl.population`): ``"static"``
    #: (the seed behaviour — the round-0 roster never changes),
    #: ``"churn"`` (seeded per-client up/down sessions), ``"growth"``
    #: (held-out clients join at configured sim-times through the
    #: newcomer-assignment path), ``"trace"`` (explicit event list),
    #: ``"auto"`` (resolve from ``REPRO_POPULATION``, defaulting to
    #: static), or an inline spec (``"churn:session=20,gap=5"``)
    population: str = "auto"
    #: run observability (:mod:`repro.fl.telemetry`): ``"off"`` (the
    #: default — a shared no-op sink), ``"on"`` (span tracer + metrics
    #: registry + replayable event log; per-record metric deltas land in
    #: ``RoundRecord.extras["metrics"]``), ``"auto"`` (resolve from
    #: ``REPRO_TELEMETRY``, defaulting to off), or an inline spec
    #: (``"on:progress=1"``).  Paths (``tele_dir``/``tele_*_out``) go in
    #: ``extra`` or the ``REPRO_TELEMETRY_*`` env vars.  Never affects
    #: results, and is excluded from the checkpoint fingerprint.
    telemetry: str = "auto"
    #: byzantine-attack model (:mod:`repro.fl.attacks`): ``"none"`` (the
    #: default — every client honest, a shared no-op object), or
    #: ``"signflip"`` / ``"scale"`` — a seeded ``atk_frac`` subset of the
    #: roster poisons its uploads before the wire layer; ``"auto"``
    #: resolves from ``REPRO_ATTACK``, and inline specs work
    #: (``"signflip:frac=0.2"``).  Adversary knobs (``atk_*``) go in
    #: ``extra`` or the ``REPRO_ATK_*`` env vars.
    attack: str = "auto"
    #: server aggregation rule (:mod:`repro.fl.aggregation`):
    #: ``"weighted"`` (the default — the seed's n_samples-weighted mean,
    #: bit-for-bit), ``"median"``, ``"trimmed"``, ``"auto"`` (resolve
    #: from ``REPRO_AGGREGATOR``), or an inline spec
    #: (``"trimmed:trim=0.2"``).  Applied per cluster by the clustered
    #: methods; ``agg_*`` knobs go in ``extra``.
    aggregator: str = "auto"
    #: aggregation topology (:mod:`repro.fl.topology`): ``"flat"`` (the
    #: default — the scheduler hands the delivered cohort straight to
    #: the algorithm, bit-for-bit the seed path), ``"hier"`` (two-tier:
    #: ``topo_edges`` seeded edge aggregators reduce their members with
    #: the configured ``aggregator`` and forward one summary each, with
    #: the edge→cloud hop metered), ``"auto"`` (resolve from
    #: ``REPRO_TOPOLOGY``), or an inline spec (``"hier:edges=4"``).
    #: Only plain-combine algorithms (FedAvg/FedProx) accept ``hier``
    #: with two or more edges.
    topology: str = "auto"
    #: clients evaluated per ``evaluate()`` call: 0 (the default)
    #: evaluates every client — the seed behaviour, bit-for-bit — while
    #: a positive value draws that many clients with a keyed seeded
    #: generator per evaluation (million-client runs cannot afford a
    #: full sweep)
    eval_clients: int = 0
    #: save a resumable checkpoint (:mod:`repro.fl.checkpoint`) every N
    #: completed rounds (flushes, for ``buffered``).  ``None`` disables
    #: checkpointing (``REPRO_CHECKPOINT_EVERY`` can still enable it
    #: globally).
    checkpoint_every: int | None = None
    #: directory periodic checkpoints are written to (``round-NNNNNN.ckpt``
    #: plus an always-current ``latest.ckpt``); ``None`` resolves from
    #: ``REPRO_CHECKPOINT_DIR``, then defaults to ``"checkpoints"``
    checkpoint_dir: str | None = None
    #: algorithm-specific knobs (e.g. FedProx mu, IFCA k, FedClust lambda)
    #: plus prefix-namespaced component knobs (``net_*``, ``sched_*``),
    #: validated against the registry's declared option names
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {self.sample_rate}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        if self.eval_clients < 0:
            raise ValueError(
                f"eval_clients must be >= 0, got {self.eval_clients}"
            )
        # Component specs, their option fields, and the extra-dict prefix
        # namespaces all validate against the registry declarations — one
        # code path for every family, replacing the per-family ladders.
        registry.validate_config(self)

    def with_extra(self, **kwargs) -> "FLConfig":
        """A copy with algorithm-specific knobs merged into ``extra``."""
        merged = dict(self.extra)
        merged.update(kwargs)
        return replace(self, extra=merged)

    def with_options(self, **fl_options) -> "FLConfig":
        """A copy with flat registry options applied.

        Accepts any key :func:`repro.fl.registry.apply_options` knows:
        family names (``codec="topk"``), option names
        (``topk_frac=0.1``, ``net_mbps=10.0``), or algorithm knobs
        (``prox_mu=0.01``) — fields and ``extra`` entries are updated
        accordingly.
        """
        config_overrides, extra_overrides = registry.apply_options(fl_options)
        merged = dict(self.extra)
        merged.update(extra_overrides)
        return replace(self, extra=merged, **config_overrides)
