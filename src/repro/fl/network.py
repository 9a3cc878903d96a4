"""Simulated client networks: bandwidth, latency, stragglers, availability.

The seed engine's wire was ideal — infinitely fast, always up.  This
module gives every client a *link* (uplink/downlink bandwidth, latency)
and a *compute speed factor*, all drawn once per run from the federation's
root seed, plus a per-round availability draw.  The engine uses them to

* skip unavailable clients before any transfer happens,
* compute each participant's **simulated round time**
  (``latency + download + compute + latency + upload``),
* enforce an optional per-round **deadline** that cuts off late clients
  (the server aggregates the partial cohort; the cut client's upload is
  never metered, and ``History`` records who was dropped), and
* record the simulated duration of every round alongside the real
  wall-clock timing from the execution backends.

Everything here runs on the main thread with named-key randomness
(:class:`repro.utils.rng.RngFactory`), so enabling a network model keeps
runs bit-for-bit identical across execution backends.

Profiles
--------

========== =============================================================
``ideal``    infinite bandwidth, zero latency, uniform compute, always up
``uniform``  one shared finite link for every client (honest baseline)
``hetero``   log-normal per-client bandwidth/compute, uniform latency
``stragglers`` ``hetero`` plus a slow tail: a fraction of clients compute
             ``straggler_factor`` times slower
``flaky``    ``hetero`` plus Bernoulli per-round availability
========== =============================================================

Knobs come from ``FLConfig.extra`` (prefix ``net_``): ``net_mbps`` (mean
link speed, megabits/s), ``net_latency_s``, ``net_step_seconds`` (compute
seconds per local SGD step at speed factor 1), ``net_sigma`` (log-normal
spread), ``net_straggler_frac`` / ``net_straggler_factor``, and
``net_availability`` (default 1.0; ``flaky`` declares its own 0.8).
:func:`make_network` resolves them through the registry and hands the
profile the resolved options.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.fl import registry
from repro.fl.registry import opt, register
from repro.utils.rng import RngFactory

__all__ = [
    "ClientLink",
    "NetworkModel",
    "IdealNetwork",
    "UniformNetwork",
    "HeterogeneousNetwork",
    "StragglerNetwork",
    "FlakyNetwork",
    "make_network",
    "resolve_deadline",
]

#: bytes per second per Mbit/s (decimal, like the paper's Mb)
_BYTES_PER_MBPS = 1_000_000.0 / 8.0

#: per-round reachability; ``flaky`` redeclares it with its own default
_AVAILABILITY = opt(
    "net_availability", float, 1.0, low=0.0, high=1.0, low_inclusive=False,
    env="REPRO_NET_AVAILABILITY", alias="availability",
    help="probability a client is reachable in any given round",
)

#: ``FLConfig.extra`` knobs every network profile understands, declared
#: once for the family.  The ``net_`` prefix namespaces them; an unknown
#: key with that prefix is a typo and rejected by ``FLConfig``
#: validation (derived via :func:`repro.fl.registry.known_prefix_keys`).
registry.family_options("network", [
    opt("net_mbps", float, 20.0,
        env="REPRO_NET_MBPS", alias="mbps",
        help="mean link speed, megabits/s (decimal, like the paper's Mb)"),
    opt("net_latency_s", float, 0.05,
        env="REPRO_NET_LATENCY_S", alias="latency_s",
        help="one-way link latency, simulated seconds"),
    opt("net_step_seconds", float, 0.01,
        env="REPRO_NET_STEP_SECONDS", alias="step_seconds",
        help="compute seconds per local SGD step at speed factor 1"),
    opt("net_sigma", float, 0.5,
        env="REPRO_NET_SIGMA", alias="sigma",
        help="log-normal spread of per-client bandwidth/compute draws"),
    _AVAILABILITY,
    opt("deadline", float, None,
        low=0.0, low_inclusive=False, optional=True,
        env="REPRO_DEADLINE", cli="deadline", field="deadline",
        inline=False, env_mode="fill",
        help="per-round deadline in simulated seconds (late clients are "
             "cut from aggregation)"),
])


class ClientLink:
    """One client's static link and compute characteristics."""

    __slots__ = ("down_bps", "up_bps", "latency_s", "compute_factor")

    def __init__(
        self,
        down_bps: float,
        up_bps: float,
        latency_s: float,
        compute_factor: float,
    ):
        self.down_bps = float(down_bps)  # bytes / second
        self.up_bps = float(up_bps)
        self.latency_s = float(latency_s)
        self.compute_factor = float(compute_factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientLink(down={self.down_bps:.0f}B/s, up={self.up_bps:.0f}B/s, "
            f"lat={self.latency_s * 1e3:.1f}ms, x{self.compute_factor:.2f})"
        )


class NetworkModel:
    """Base class: per-client links drawn lazily from the run's root seed.

    Subclasses override :meth:`_draw_link`.  Draws are keyed per client
    id, so a client's link does not depend on how many other clients
    were ever asked about.
    """

    #: registry name; subclasses set this
    name: str = "base"

    def __init__(self, num_clients: int, rngs: RngFactory, options: dict):
        self.num_clients = int(num_clients)
        self.rngs = rngs
        #: the profile's resolved ``net_*`` knobs (:func:`make_network`)
        self.options = options
        self.mean_bps = float(options["net_mbps"]) * _BYTES_PER_MBPS
        self.latency_s = float(options["net_latency_s"])
        #: simulated seconds one local SGD step costs at compute factor 1
        self.step_seconds = float(options["net_step_seconds"])
        self.sigma = float(options["net_sigma"])
        #: probability a client is reachable in any given round (1.0 = always)
        self.availability = float(options["net_availability"])
        self._links: dict[int, ClientLink] = {}

    # -- static per-client draws ---------------------------------------
    def link(self, client_id: int) -> ClientLink:
        """The client's link, drawn once per run from a client-keyed RNG."""
        cid = int(client_id)
        got = self._links.get(cid)
        if got is None:
            got = self._draw_link(self.rngs.make("network.link", cid))
            self._links[cid] = got
        return got

    def _draw_link(self, rng: np.random.Generator) -> ClientLink:
        return ClientLink(self.mean_bps, self.mean_bps, self.latency_s, 1.0)

    # -- per-round draws -----------------------------------------------
    def available_mask(self, round_idx: int, client_ids: np.ndarray) -> np.ndarray:
        """Boolean availability of ``client_ids`` for one round.

        One round-keyed generator serves the whole cohort, drawn in the
        (sorted) selection order — deterministic on any backend.
        """
        if self.availability >= 1.0:
            return np.ones(len(client_ids), dtype=bool)
        rng = self.rngs.make("network.avail", round_idx)
        return rng.random(len(client_ids)) < self.availability

    # -- timing --------------------------------------------------------
    def client_seconds(
        self, client_id: int, down_nbytes: int, up_nbytes: int, steps: int
    ) -> float:
        """Simulated seconds for one client's full round trip."""
        ln = self.link(client_id)
        transfer = down_nbytes / ln.down_bps + up_nbytes / ln.up_bps
        compute = steps * self.step_seconds * ln.compute_factor
        return 2.0 * ln.latency_s + transfer + compute

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(clients={self.num_clients})"


@register("network", "ideal")
class IdealNetwork(NetworkModel):
    """The seed behaviour: free, instant, always available."""

    name = "ideal"

    def _draw_link(self, rng: np.random.Generator) -> ClientLink:
        return ClientLink(np.inf, np.inf, 0.0, 1.0)

    def client_seconds(self, client_id, down_nbytes, up_nbytes, steps) -> float:
        return steps * self.step_seconds  # compute is never free

    def available_mask(self, round_idx, client_ids) -> np.ndarray:
        return np.ones(len(client_ids), dtype=bool)


@register("network", "uniform")
class UniformNetwork(NetworkModel):
    """Every client shares one finite link (``net_mbps``/``net_latency_s``)."""

    name = "uniform"


@register("network", "hetero")
class HeterogeneousNetwork(NetworkModel):
    """Log-normal per-client bandwidth and compute speed.

    Bandwidths are ``mean_bps * exp(sigma * z - sigma^2 / 2)`` (median
    below mean, heavy fast tail — the usual shape of measured client
    uplinks), and compute factors an independent log-normal with the same
    spread, so slow networks and slow CPUs are uncorrelated.
    """

    name = "hetero"

    def _draw_link(self, rng: np.random.Generator) -> ClientLink:
        z = rng.standard_normal(3)
        adjust = -0.5 * self.sigma**2
        down = self.mean_bps * float(np.exp(self.sigma * z[0] + adjust))
        up = self.mean_bps * float(np.exp(self.sigma * z[1] + adjust))
        compute = float(np.exp(self.sigma * z[2] - adjust))
        latency = self.latency_s * float(rng.uniform(0.5, 1.5))
        return ClientLink(down, up, latency, compute)


@register("network", "stragglers", options=[
    opt("net_straggler_frac", float, 0.25,
        low=0.0, high=1.0,
        env="REPRO_NET_STRAGGLER_FRAC", alias="straggler_frac",
        only_for=("stragglers",),
        help="fraction of clients in the slow compute tail"),
    opt("net_straggler_factor", float, 8.0,
        env="REPRO_NET_STRAGGLER_FACTOR", alias="straggler_factor",
        only_for=("stragglers",),
        help="compute slow-down multiplier for straggler clients"),
])
class StragglerNetwork(HeterogeneousNetwork):
    """``hetero`` plus a slow tail of compute stragglers.

    ``net_straggler_frac`` of clients (Bernoulli per client) compute
    ``net_straggler_factor`` times slower — the population a per-round
    deadline is designed to cut.
    """

    name = "stragglers"

    def __init__(self, num_clients, rngs, options):
        super().__init__(num_clients, rngs, options)
        self.straggler_frac = float(options["net_straggler_frac"])
        self.straggler_factor = float(options["net_straggler_factor"])

    def _draw_link(self, rng: np.random.Generator) -> ClientLink:
        ln = super()._draw_link(rng)
        if rng.random() < self.straggler_frac:
            ln.compute_factor *= self.straggler_factor
        return ln


@register("network", "flaky", options=[replace(_AVAILABILITY, default=0.8)])
class FlakyNetwork(HeterogeneousNetwork):
    """``hetero`` with per-round Bernoulli availability (default 0.8)."""

    name = "flaky"


def make_network(
    config=None,
    num_clients: int = 0,
    rngs: RngFactory | None = None,
    network: str | None = None,
) -> NetworkModel:
    """Build the simulated network for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying the
            ``network`` knob and ``extra`` profile parameters (optional).
        num_clients: federation size (for availability vectors).
        rngs: the run's :class:`~repro.utils.rng.RngFactory` (a fresh
            seed-0 factory when omitted, for standalone use in tests).
        network: explicit profile spec overriding the config — a
            registered name, ``"auto"``, or an inline spec like
            ``"stragglers:straggler_factor=8"``.

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_NETWORK`` (default ``ideal``), and ``net_*``
    knobs may come from ``FLConfig.extra``, ``REPRO_NET_*`` env vars, or
    inline assignments, most specific last.  The profile is built from
    the resolved options alone.

    Returns:
        A fresh :class:`NetworkModel` bound to the run's seed.
    """
    r = registry.resolve("network", spec=network, config=config)
    return r.impl.cls(num_clients, rngs or RngFactory(0), r.options)


def resolve_deadline(config=None) -> float | None:
    """The run's per-round deadline in simulated seconds (None = none).

    ``FLConfig.deadline`` wins; when unset, the ``REPRO_DEADLINE``
    environment variable applies (so the experiments CLI can switch every
    cell of a table at once).  Declared as a registry option of the
    network family; this helper delegates to
    :func:`repro.fl.registry.resolve_field_option`.
    """
    return registry.resolve_field_option("network", "deadline", config)
