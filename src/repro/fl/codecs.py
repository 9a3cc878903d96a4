"""Communication codecs: what actually crosses the simulated wire.

The paper's headline systems claim is communication efficiency (Table 5
reports Mb to a target accuracy), and the seed engine metered every
transfer — but always as the raw parameter arrays.  This module makes the
*representation* of a client's upload pluggable: a codec encodes the
client's parameter delta into a compressed payload with an exact byte
count, the tracker meters those compressed bytes, and the server decodes
and aggregates **what was actually transmitted**, so lossy codecs degrade
accuracy exactly as they would in a real federation.

Codecs
------

A codec's size has two bases.  Against the float64 delta it encodes
(``Encoded.logical_nbytes``, 8 bytes an entry) ``fp16`` is 4x and
``int8`` ~8x smaller.  Against what a run meters under ``none`` — the
parameters in their own dtype, 4 bytes each for the float32 model zoo —
they are 2x and ~4x smaller.

``identity`` (name ``"none"``)
    Uncompressed pass-through.  The engine short-circuits it entirely (a
    run never calls its ``encode``) and meters ``upload_bytes()``, the
    parameters in their own dtype, so the default configuration is
    bit-for-bit the seed behaviour.

``fp16``
    Deterministic cast of the delta to IEEE float16 (4x fewer bytes than
    the float64 delta, 2x fewer than ``none`` meters for float32 models).

``int8``
    Stochastic uniform quantization to int8 with a per-vector scale
    (~8x fewer bytes than the float64 delta, ~4x fewer than ``none``
    meters for float32 models).  Rounding is randomized (unbiased) from a
    round/client-keyed generator, so all execution backends draw the
    identical noise.

``topk``
    Magnitude top-k sparsification with per-client **error-feedback
    residuals**: what a round's truncation discards is added to the next
    round's delta, so the transmitted sequence telescopes to the true
    update sum (minus the final residual).  Payload is ``k`` (value,
    index) pairs.

Purity contract
---------------

``encode`` is a pure function of ``(delta, residual, rng)`` — it never
mutates codec state.  A payload's size depends on the delta's length
alone, never on its values: :meth:`Codec.wire_nbytes` states it, and
``encode`` reports exactly that as ``Encoded.nbytes``, so the scheduler
plans every upload's simulated arrival before the client trains.  The
engine calls ``encode`` on the main thread after a round's client tasks
return, and folds the error-feedback residual in via :meth:`Codec.commit`
**only for clients whose upload was actually delivered** (a
deadline-dropped client keeps its residual untouched, exactly like a
real client whose transmission never completed).  This keeps every
backend bit-for-bit identical with any codec enabled.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.fl import registry
from repro.fl.registry import opt, register
from repro.fl.telemetry import NULL_TELEMETRY

__all__ = [
    "Encoded",
    "Codec",
    "IdentityCodec",
    "Fp16Codec",
    "Int8Codec",
    "TopKCodec",
    "make_codec",
]

#: bytes of per-message framing a non-identity codec pays (vector length
#: as uint64) — kept explicit so ``wire_nbytes`` is exact, not modeled
_HEADER_BYTES = 8


@dataclass(frozen=True)
class Encoded:
    """One encoded upload payload.

    Attributes:
        payload: codec-specific arrays (quantized values, indices, ...).
        nbytes: exact wire size of the payload, headers included.
        logical_nbytes: size the same payload would be as raw float64.
        residual_after: for error-feedback codecs, the residual the client
            would keep *if this transmission is delivered*; ``None`` for
            stateless codecs.  The engine commits it via
            :meth:`Codec.commit` only on delivery.
    """

    payload: dict[str, np.ndarray]
    nbytes: int
    logical_nbytes: int
    residual_after: np.ndarray | None = field(default=None, repr=False)


class Codec(ABC):
    """Encodes/decodes the flat parameter delta a client uploads."""

    #: registry name; subclasses set this
    name: str = "base"
    #: the run's telemetry sink (the engine swaps in its own at run
    #: start); :meth:`traced_encode`/:meth:`traced_decode` span through it
    telemetry = NULL_TELEMETRY

    @abstractmethod
    def encode(
        self, client_id: int, delta: np.ndarray, rng: np.random.Generator
    ) -> Encoded:
        """Encode one client's upload delta (pure — no state writes).

        Args:
            client_id: the uploading client (keys error-feedback state).
            delta: flat float64 difference between the trained and the
                downloaded parameter vector.
            rng: round/client-keyed generator for stochastic codecs.

        Returns:
            The :class:`Encoded` payload with its exact byte count.
        """

    @abstractmethod
    def decode(self, encoded: Encoded) -> np.ndarray:
        """Reconstruct the float64 delta the server receives."""

    @abstractmethod
    def wire_nbytes(self, n: int) -> int:
        """Exact wire size of an ``n``-entry delta's payload, headers
        included: what :meth:`encode` reports as ``Encoded.nbytes``."""

    def traced_encode(
        self, client_id: int, delta: np.ndarray, rng: np.random.Generator
    ) -> Encoded:
        """:meth:`encode` inside a telemetry ``encode`` span."""
        with self.telemetry.span(
            "encode", cat="codec", codec=self.name, client=int(client_id)
        ):
            return self.encode(client_id, delta, rng)

    def traced_decode(
        self, encoded: Encoded, client_id: int | None = None
    ) -> np.ndarray:
        """:meth:`decode` inside a telemetry ``decode`` span."""
        with self.telemetry.span(
            "decode", cat="codec", codec=self.name,
            client=None if client_id is None else int(client_id),
        ):
            return self.decode(encoded)

    def commit(self, client_id: int, encoded: Encoded) -> None:
        """Fold a *delivered* transfer's error-feedback state in.

        Called by the engine on the main thread, after the deadline check,
        for each client whose upload actually arrived.  Stateless codecs
        ignore it.
        """

    def reset(self) -> None:
        """Drop accumulated per-client state (for reuse across runs)."""

    def state_dict(self) -> dict:
        """Picklable snapshot of accumulated per-client state
        (checkpointing); stateless codecs return ``{}``."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (no-op when stateless)."""
        self.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@register("codec", "none")
class IdentityCodec(Codec):
    """Uncompressed pass-through — the seed wire format.

    A run never calls :meth:`encode`: the scheduler short-circuits
    ``none`` and meters ``upload_bytes()``, the parameters in their own
    dtype (4 bytes each for a float32 model).  :meth:`encode` and
    :meth:`wire_nbytes` state the float64 delta (8 bytes an entry), the
    logical base the other codecs' ratios are also quoted against; they
    serve direct use of the codec.
    """

    name = "none"

    def encode(self, client_id, delta, rng) -> Encoded:
        return Encoded(
            payload={"values": delta},
            nbytes=self.wire_nbytes(delta.size),
            logical_nbytes=int(delta.nbytes),
        )

    def decode(self, encoded: Encoded) -> np.ndarray:
        return encoded.payload["values"]

    def wire_nbytes(self, n: int) -> int:
        return 8 * int(n)


@register("codec", "fp16")
class Fp16Codec(Codec):
    """Deterministic float16 cast: 4x smaller than the float64 delta, and
    2x smaller than the uploads ``none`` meters for a float32 model.

    Entries are clipped to the float16 finite range (±65504) before the
    cast: a delta entry beyond it would otherwise become ±inf, the
    decode would propagate it, and a single divergent client would
    poison the aggregated model with non-finite parameters.  Saturating
    is what a real fixed-width wire format does; NaN entries (a fully
    diverged client) encode as zero — that coordinate simply contributes
    nothing.
    """

    name = "fp16"

    #: largest finite float16 magnitude — the saturation bound
    _F16_MAX = float(np.finfo(np.float16).max)

    def encode(self, client_id, delta, rng) -> Encoded:
        values = np.nan_to_num(
            delta, nan=0.0, posinf=self._F16_MAX, neginf=-self._F16_MAX
        )
        values = np.clip(values, -self._F16_MAX, self._F16_MAX).astype(np.float16)
        return Encoded(
            payload={"values": values},
            nbytes=self.wire_nbytes(delta.size),
            logical_nbytes=int(delta.nbytes),
        )

    def decode(self, encoded: Encoded) -> np.ndarray:
        return encoded.payload["values"].astype(np.float64)

    def wire_nbytes(self, n: int) -> int:
        return 2 * int(n) + _HEADER_BYTES


@register("codec", "int8")
class Int8Codec(Codec):
    """Stochastic uniform int8 quantization with a per-vector scale.

    Each entry is mapped to ``delta / scale`` with ``scale =
    max|delta| / 127`` and rounded *stochastically*: up with probability
    equal to the fractional part, down otherwise.  The rounding is
    therefore unbiased (``E[decode(encode(d))] = d``) and the absolute
    error of any entry is at most ``scale``.

    A non-finite peak (an inf/NaN delta from a divergent client) would
    make ``scale`` non-finite and decode to an all-NaN vector; such an
    upload is **zero-encoded** instead — it crosses the wire but
    contributes nothing — and the client id is recorded in
    :attr:`nonfinite_clients` when the transfer is delivered.
    """

    name = "int8"

    #: scratch shapes cached per codec (a run sees one or two delta sizes)
    _SCRATCH_MAX = 8

    def __init__(self):
        #: client ids whose delivered uploads were zero-encoded because
        #: their delta had a non-finite peak (appended at commit time,
        #: so deadline-cut uploads never record)
        self.nonfinite_clients: list[int] = []
        #: pre-allocated float64/bool work buffers keyed by delta size —
        #: encode's intermediates (scaled, floor, noise, mask) never leave
        #: the codec, so one set serves every upload of that size
        self._scratch: dict[int, dict[str, np.ndarray]] = {}

    def _scratch_for(self, size: int) -> dict[str, np.ndarray]:
        """The reusable encode work buffers for a ``size``-entry delta.

        Repeated calls with the same size return the *same arrays*
        (asserted by the workspace-reuse tests) — no per-encode
        allocation of the float64 intermediates.
        """
        ws = self._scratch.get(size)
        if ws is None:
            if len(self._scratch) >= self._SCRATCH_MAX:
                self._scratch.pop(next(iter(self._scratch)))
            ws = {
                "scaled": np.empty(size, dtype=np.float64),
                "low": np.empty(size, dtype=np.float64),
                "rand": np.empty(size, dtype=np.float64),
                "frac": np.empty(size, dtype=np.float64),
                "mask": np.empty(size, dtype=bool),
            }
            self._scratch[size] = ws
        return ws

    def encode(self, client_id, delta, rng) -> Encoded:
        peak = float(np.max(np.abs(delta))) if delta.size else 0.0
        if not math.isfinite(peak):
            return Encoded(
                payload={
                    "q": np.zeros(delta.shape, dtype=np.int8),
                    "scale": np.float64(0.0),
                    "nonfinite": True,
                },
                nbytes=self.wire_nbytes(delta.size),
                logical_nbytes=int(delta.nbytes),
            )
        scale = peak / 127.0
        if scale == 0.0:
            q = np.zeros(delta.shape, dtype=np.int8)
        elif delta.ndim == 1:
            # Scratch-buffer path: identical arithmetic to the allocating
            # path below, expressed with explicit ``out=`` targets.
            # ``rng.random(out=...)`` consumes the same stream as
            # ``rng.random(shape)`` for float64, so the quantization noise
            # is bit-for-bit unchanged.
            ws = self._scratch_for(delta.size)
            scaled = np.divide(delta, scale, out=ws["scaled"])
            low = np.floor(scaled, out=ws["low"])
            rng.random(out=ws["rand"])
            frac = np.subtract(scaled, low, out=ws["frac"])
            mask = np.less(ws["rand"], frac, out=ws["mask"])
            q64 = np.add(low, mask, out=ws["scaled"])
            np.clip(q64, -127, 127, out=q64)
            q = q64.astype(np.int8)
        else:
            scaled = delta / scale
            low = np.floor(scaled)
            q = low + (rng.random(delta.shape) < (scaled - low))
            q = np.clip(q, -127, 127).astype(np.int8)
        return Encoded(
            payload={"q": q, "scale": np.float64(scale)},
            nbytes=self.wire_nbytes(delta.size),
            logical_nbytes=int(delta.nbytes),
        )

    def decode(self, encoded: Encoded) -> np.ndarray:
        return encoded.payload["q"].astype(np.float64) * float(encoded.payload["scale"])

    def wire_nbytes(self, n: int) -> int:
        return int(n) + 8 + _HEADER_BYTES  # +8: the scale

    def commit(self, client_id: int, encoded: Encoded) -> None:
        if encoded.payload.get("nonfinite"):
            self.nonfinite_clients.append(int(client_id))

    def reset(self) -> None:
        self.nonfinite_clients.clear()

    def state_dict(self) -> dict:
        return {"nonfinite_clients": list(self.nonfinite_clients)}

    def load_state_dict(self, state: dict) -> None:
        self.nonfinite_clients = [int(c) for c in state["nonfinite_clients"]]


@register("codec", "topk", options=[
    opt("topk_frac", float, 0.05,
        low=0.0, high=1.0, low_inclusive=False,
        env="REPRO_TOPK_FRAC", cli="topk-frac", field="topk_frac",
        alias="frac", only_for=("topk",),
        help="fraction of delta entries the `topk` codec transmits"),
])
class TopKCodec(Codec):
    """Magnitude top-k sparsification with error-feedback residuals.

    Per round the client transmits only the ``k = ceil(frac * n)``
    largest-magnitude entries of ``delta + residual`` as (int32 index,
    float64 value) pairs; everything truncated becomes the client's next
    residual.  Ties break toward the lower index, so the selection is
    deterministic and backend-independent.

    Selection is O(n): one ``np.partition`` finds the k-th largest
    magnitude, every entry above it is kept, and the lowest-index entries
    equal to it fill the remaining slots.  That is exactly the first k of
    a full sort by (magnitude descending, index ascending).  A NaN ranks
    last, below every number (±inf ranks first), so a NaN is sent only
    when fewer than k entries are numbers.
    """

    name = "topk"

    #: scratch shapes cached per codec (a run sees one or two delta sizes)
    _SCRATCH_MAX = 8

    def __init__(self, frac: float = 0.05):
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"topk_frac must be in (0, 1], got {frac}")
        self.frac = float(frac)
        self._residuals: dict[int, np.ndarray] = {}
        #: pre-allocated selection work buffers keyed by delta size: the
        #: compensated delta, its negated magnitudes (the partition key)
        #: and the selection mask — none of which leave the codec
        self._scratch: dict[int, dict[str, np.ndarray]] = {}

    def residual(self, client_id: int, size: int) -> np.ndarray:
        """The client's current error-feedback residual (zeros initially)."""
        r = self._residuals.get(int(client_id))
        return r if r is not None else np.zeros(size, dtype=np.float64)

    def _scratch_for(self, size: int) -> dict[str, np.ndarray]:
        """The reusable encode work buffers for a ``size``-entry delta
        (same arrays on every call with that size)."""
        ws = self._scratch.get(size)
        if ws is None:
            if len(self._scratch) >= self._SCRATCH_MAX:
                self._scratch.pop(next(iter(self._scratch)))
            ws = {
                "comp": np.empty(size, dtype=np.float64),
                "negabs": np.empty(size, dtype=np.float64),
                "keep": np.empty(size, dtype=bool),
            }
            self._scratch[size] = ws
        return ws

    def encode(self, client_id, delta, rng) -> Encoded:
        delta = delta.ravel()
        ws = self._scratch_for(delta.size)
        compensated = np.add(
            delta, self.residual(client_id, delta.size), out=ws["comp"]
        )
        k = self._k(delta.size)
        if k >= delta.size:
            idx = np.arange(delta.size, dtype=np.int32)
        else:
            # Ascending -|a| orders by descending magnitude, NaN last
            # (partition places NaN after every number, as sort does);
            # t is the k-th key.
            negabs = np.abs(compensated, out=ws["negabs"])
            np.negative(negabs, out=negabs)
            t = np.partition(negabs, k - 1)[k - 1]
            keep = ws["keep"]
            if math.isnan(t):  # fewer than k numbers: all, then NaNs
                np.isnan(negabs, out=keep)
                tied = np.flatnonzero(keep)
                np.logical_not(keep, out=keep)
            else:
                np.equal(negabs, t, out=keep)
                tied = np.flatnonzero(keep)
                np.less(negabs, t, out=keep)
            keep[tied[: k - np.count_nonzero(keep)]] = True
            idx = np.flatnonzero(keep).astype(np.int32)
        values = compensated[idx]
        residual_after = compensated.copy()
        residual_after[idx] = 0.0
        return Encoded(
            payload={"idx": idx, "values": values, "n": np.int64(delta.size)},
            nbytes=self.wire_nbytes(delta.size),
            logical_nbytes=int(delta.nbytes),
            residual_after=residual_after,
        )

    def _k(self, n: int) -> int:
        """``k`` for an ``n``-entry delta (``encode`` sends all n when k >= n)."""
        return max(1, math.ceil(self.frac * n))

    def wire_nbytes(self, n: int) -> int:
        # (int32 index, float64 value) per transmitted entry
        return 12 * min(self._k(n), int(n)) + _HEADER_BYTES

    def decode(self, encoded: Encoded) -> np.ndarray:
        out = np.zeros(int(encoded.payload["n"]), dtype=np.float64)
        out[encoded.payload["idx"]] = encoded.payload["values"]
        return out

    def commit(self, client_id: int, encoded: Encoded) -> None:
        self._residuals[int(client_id)] = encoded.residual_after

    def reset(self) -> None:
        self._residuals.clear()

    def state_dict(self) -> dict:
        return {
            "residuals": {int(c): r.copy() for c, r in self._residuals.items()}
        }

    def load_state_dict(self, state: dict) -> None:
        self._residuals = {
            int(c): np.asarray(r, dtype=np.float64)
            for c, r in state["residuals"].items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TopKCodec(frac={self.frac})"



def make_codec(config=None, codec: str | None = None) -> Codec:
    """Build the upload codec for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying default
            ``codec`` / ``topk_frac`` knobs (optional).
        codec: explicit codec spec overriding the config — a registered
            name, ``"auto"``, or an inline spec like ``"topk:frac=0.05"``.

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_CODEC`` (default ``none``) and
    ``REPRO_TOPK_FRAC``, and inline spec strings work uniformly in the
    config field, the env var, and here.

    Returns:
        A fresh :class:`Codec`; one codec instance serves one run (top-k
        holds per-client residual state).
    """
    r = registry.resolve("codec", spec=codec, config=config)
    if r.impl.cls is TopKCodec:
        return TopKCodec(frac=r.options["topk_frac"])
    return r.impl.cls()
