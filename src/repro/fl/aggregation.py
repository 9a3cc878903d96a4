"""Server aggregation rules: the FedAvg weighted mean and robust variants.

The seed engine hard-wires one aggregation rule — the n_samples-weighted
mean (``weighted_average``, FedAvg's rule) — into every algorithm's
``aggregate``.  That rule is optimal under honest clients and collapses
under byzantine ones: a single adversary controlling one update can move
the weighted mean arbitrarily far.  This module makes the rule a
pluggable component family so the classic robust baselines can be
swapped in beneath *every* algorithm:

``weighted``
    The default: exactly the seed's sample-weighted mean
    (:func:`weighted_average` / :func:`average_states`), bit-for-bit.

``median``
    Coordinate-wise weighted (lower) median — Yin et al. (ICML 2018).
    Each coordinate independently takes the smallest value whose
    cumulative normalized weight reaches one half, so up to half the
    total weight may be adversarial without moving any coordinate
    outside the honest range.

``trimmed``
    Coordinate-wise trimmed mean (Yin et al., ICML 2018): per
    coordinate, the ``agg_trim_frac`` fraction of values is dropped
    from *each* end and the survivors are weight-averaged.  ``trim=0``
    reduces to the weighted mean.

Algorithms route their parameter averaging through
:meth:`FederatedAlgorithm.combine <repro.fl.server.FederatedAlgorithm.combine>`,
which delegates here — so FedClust/IFCA apply the rule *per cluster*,
and the buffered scheduler's staleness discounts (which scale each
update's ``n_samples``) compose through the weights for every rule that
uses them.  FedNova and FedDyn keep their own normalization-based
aggregation (their update algebra is the algorithm, not a swappable
rule) and are unaffected by this family.

Aggregators are stateless, so checkpoints carry no aggregator section —
the fingerprint pins the resolved rule and its knobs.
"""

from __future__ import annotations

import numpy as np

from repro.fl import registry
from repro.fl.registry import opt, register

__all__ = [
    "weighted_average",
    "average_states",
    "AggregationAccumulator",
    "StreamingMeanAccumulator",
    "Aggregator",
    "WeightedAggregator",
    "MedianAggregator",
    "TrimmedMeanAggregator",
    "WEIGHTED",
    "make_aggregator",
]

def weighted_average(vectors: list[np.ndarray], weights: list[float]) -> np.ndarray:
    """Sample-size-weighted average of flat parameter vectors (FedAvg rule).

    Args:
        vectors: flat parameter vectors of identical shape.
        weights: non-negative weights, one per vector, with a positive sum
            (normalized internally).

    Returns:
        The float64 weighted average vector.

    Raises:
        ValueError: on empty input, length mismatch, or invalid weights.
    """
    if not vectors:
        raise ValueError("nothing to average")
    if len(vectors) != len(weights):
        raise ValueError(f"{len(vectors)} vectors vs {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    w = w / w.sum()
    out = np.zeros_like(vectors[0], dtype=np.float64)
    for v, wi in zip(vectors, w):
        out += wi * v
    return out


def average_states(
    states: list[dict[str, np.ndarray]], weights: list[float]
) -> dict[str, np.ndarray]:
    """Weighted average of non-trainable buffers (batch-norm stats).

    Args:
        states: per-client state dicts sharing one key set.
        weights: non-negative weights, one per state (normalized
            internally).

    Returns:
        A new state dict of float64 weighted averages (empty if ``states``
        is empty).
    """
    if not states:
        return {}
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    keys = states[0].keys()
    out: dict[str, np.ndarray] = {}
    for key in keys:
        acc = np.zeros_like(states[0][key], dtype=np.float64)
        for s, wi in zip(states, w):
            acc += wi * s[key]
        out[key] = acc
    return out


def _stack(vectors: list[np.ndarray], weights: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Validate like :func:`weighted_average` and stack into an (n, d)
    matrix plus normalized weights."""
    if not vectors:
        raise ValueError("nothing to average")
    if len(vectors) != len(weights):
        raise ValueError(f"{len(vectors)} vectors vs {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    matrix = np.stack([np.asarray(v, dtype=np.float64) for v in vectors])
    return matrix, w / w.sum()


class AggregationAccumulator:
    """Streaming view of one aggregation: feed members one at a time.

    Obtained from :meth:`Aggregator.accumulator`; callers ``update`` each
    member (vector, weight, optional state dict) as it arrives — dropping
    their own reference immediately — and ``finalize`` once to get the
    combined ``(params, state)`` pair.

    This base implementation buffers the members and delegates to the
    rule's ``combine``/``combine_states`` at finalize, so it is **exactly**
    (bit-for-bit) the batch result for every rule.  Robust rules (median,
    trimmed) inherently need the full member set, so their memory stays
    O(members); the weighted mean overrides this with a true O(1)-memory
    running sum (:class:`StreamingMeanAccumulator`).
    """

    def __init__(self, agg: "Aggregator"):
        self._agg = agg
        self._vectors: list[np.ndarray] = []
        self._weights: list[float] = []
        self._states: list[dict | None] = []
        #: members fed so far
        self.count = 0

    def update(
        self,
        vector: np.ndarray,
        weight: float,
        state: dict[str, np.ndarray] | None = None,
    ) -> None:
        """Feed one member's flat parameter vector (and optional state)."""
        self._vectors.append(vector)
        self._weights.append(float(weight))
        self._states.append(state)
        self.count += 1

    def finalize(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Combine everything fed so far into one ``(params, state)``.

        Raises:
            ValueError: if no member was fed.
        """
        if not self.count:
            raise ValueError("nothing to aggregate")
        params = self._agg.combine(self._vectors, self._weights)
        state: dict[str, np.ndarray] = {}
        if self._states[0]:
            state = self._agg.combine_states(
                [s or {} for s in self._states], self._weights
            )
        return params, state


class StreamingMeanAccumulator(AggregationAccumulator):
    """O(1)-memory running weighted mean (the ``weighted`` rule).

    Keeps ``acc += w_i * v_i`` and divides by ``sum(w)`` at finalize.
    :func:`weighted_average` normalizes the weights *before* summing, so
    the streaming result can differ from the batch one by float64
    round-off (documented tolerance ~1e-12 relative); the topology layer
    therefore only uses accumulators on the genuinely hierarchical path,
    never on the bitwise ``flat``/degenerate one.
    """

    def update(self, vector, weight, state=None):
        w = float(weight)
        if w < 0:
            raise ValueError(f"negative weight: {w}")
        if self.count == 0:
            self._acc = np.asarray(vector, dtype=np.float64) * w
            self._wsum = w
            self._state_acc = (
                {k: np.asarray(v, dtype=np.float64) * w
                 for k, v in state.items()}
                if state else None
            )
        else:
            self._acc += w * np.asarray(vector, dtype=np.float64)
            self._wsum += w
            if self._state_acc is not None and state:
                for k in self._state_acc:
                    self._state_acc[k] += w * state[k]
        self.count += 1

    def finalize(self):
        if not self.count:
            raise ValueError("nothing to aggregate")
        if self._wsum <= 0:
            raise ValueError("weights must have a positive sum")
        params = self._acc / self._wsum
        state = (
            {k: v / self._wsum for k, v in self._state_acc.items()}
            if self._state_acc is not None else {}
        )
        return params, state


class Aggregator:
    """Base class: how a list of client updates becomes one vector.

    One instance serves one run, built by ``FederatedAlgorithm.run``
    (``make_aggregator``) and called from ``aggregate`` on the main
    thread.  ``combine`` merges flat parameter vectors; ``combine_states``
    merges the matching non-trainable buffer dicts with the same rule.
    """

    #: registry name; subclasses set this
    name: str = "base"

    def __init__(self, options: dict | None = None):
        #: the rule's resolved ``agg_*`` knobs (:func:`make_aggregator`)
        self.options = dict(options or {})

    def combine(
        self, vectors: list[np.ndarray], weights: list[float]
    ) -> np.ndarray:
        """Merge flat parameter vectors into one.

        Args:
            vectors: flat float64 parameter vectors of identical shape.
            weights: non-negative aggregation weights (``n_samples``,
                already staleness-discounted by ``merge``).
        """
        raise NotImplementedError

    def combine_states(
        self, states: list[dict[str, np.ndarray]], weights: list[float]
    ) -> dict[str, np.ndarray]:
        """Merge non-trainable buffers with the same rule, key by key."""
        if not states:
            return {}
        out: dict[str, np.ndarray] = {}
        for key in states[0]:
            flat = [np.asarray(s[key], dtype=np.float64).ravel() for s in states]
            out[key] = self.combine(flat, weights).reshape(states[0][key].shape)
        return out

    def accumulator(self) -> AggregationAccumulator:
        """A fresh streaming accumulator over one aggregation.

        The base accumulator buffers members and reproduces ``combine``
        bit-for-bit; ``weighted`` overrides it with a true O(1)-memory
        running mean (documented float64 round-off vs. the batch rule).
        """
        return AggregationAccumulator(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@register("aggregator", "weighted")
class WeightedAggregator(Aggregator):
    """The seed rule: the n_samples-weighted mean (FedAvg), bit-for-bit."""

    name = "weighted"

    def combine(self, vectors, weights):
        return weighted_average(vectors, weights)

    def combine_states(self, states, weights):
        return average_states(states, weights)

    def accumulator(self):
        return StreamingMeanAccumulator(self)


@register("aggregator", "median")
class MedianAggregator(Aggregator):
    """Coordinate-wise weighted median (Yin et al., ICML 2018).

    Per coordinate: sort the values, take the smallest whose cumulative
    normalized weight reaches one half (the weighted *lower* median).
    Robust while adversaries hold less than half the total weight;
    identical updates are a fixed point.
    """

    name = "median"

    def combine(self, vectors, weights):
        matrix, w = _stack(vectors, weights)
        order = np.argsort(matrix, axis=0, kind="stable")
        values = np.take_along_axis(matrix, order, axis=0)
        cum = np.cumsum(w[order], axis=0)
        # first sorted index whose cumulative weight reaches one half
        # (epsilon absorbs cumsum round-off on exact .5 boundaries)
        idx = np.argmax(cum >= 0.5 - 1e-12, axis=0)
        return values[idx, np.arange(matrix.shape[1])]


@register("aggregator", "trimmed", options=[
    opt("agg_trim_frac", float, 0.1, low=0.0, high=0.5,
        high_inclusive=False,
        env="REPRO_AGG_TRIM_FRAC", alias="trim", only_for=("trimmed",),
        help="fraction of values trimmed from each end of every "
             "coordinate before averaging (0 = the plain weighted mean)"),
])
class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise trimmed mean (Yin et al., ICML 2018).

    Per coordinate, drops the ``agg_trim_frac`` fraction of values from
    each end (``floor(trim * n)`` values per side) and weight-averages
    the survivors.  ``trim=0`` keeps everyone and reduces to the
    weighted mean.
    """

    name = "trimmed"

    def combine(self, vectors, weights):
        matrix, w = _stack(vectors, weights)
        n = matrix.shape[0]
        k = int(np.floor(float(self.options["agg_trim_frac"]) * n))
        if 2 * k >= n:  # never trim everyone (tiny cohorts)
            k = (n - 1) // 2
        order = np.argsort(matrix, axis=0, kind="stable")
        keep = order[k : n - k]
        values = np.take_along_axis(matrix, keep, axis=0)
        wk = w[keep]
        wk = wk / wk.sum(axis=0, keepdims=True)
        return (values * wk).sum(axis=0)


#: shared default instance: the seed rule, used by algorithms whose
#: hooks are exercised without ``run()`` (direct calls in tests).  It is
#: stateless, so sharing one instance across algorithm objects is safe;
#: ``run()`` always builds a fresh per-run instance via
#: :func:`make_aggregator`.
WEIGHTED = WeightedAggregator()


def make_aggregator(config=None, aggregator: str | None = None) -> Aggregator:
    """Build the aggregation rule for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying the
            ``aggregator`` knob and ``agg_*`` extra parameters
            (optional).
        aggregator: explicit rule spec overriding the config — a
            registered name, ``"auto"``, or an inline spec like
            ``"trimmed:trim=0.2"``.

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_AGGREGATOR`` (default ``weighted`` — the
    seed rule, bit-for-bit), and ``agg_*`` knobs may come from
    ``FLConfig.extra``, ``REPRO_AGG_*`` env vars, or inline assignments;
    the rule is built from the resolved options.

    Returns:
        A fresh :class:`Aggregator`.
    """
    r = registry.resolve("aggregator", spec=aggregator, config=config)
    return r.impl.cls(r.options)
