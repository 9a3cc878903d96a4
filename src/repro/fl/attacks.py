"""Byzantine client attacks: seeded adversaries poisoning their uploads.

The engine's threat model so far is *benign* unreliability — dropouts,
stragglers, churn.  This module adds the adversarial half: a seeded,
deterministic subset of the roster is marked **byzantine** at run start
and poisons what it sends the server, so the robust aggregation rules
(:mod:`repro.fl.aggregation`) have something to defend against.

Attack models
-------------

``none``
    The default: the shared :data:`NULL_ATTACK` no-op singleton.  Every
    engine hook short-circuits, so default runs stay bit-for-bit the
    seed behaviour.

``labelflip``
    Data poisoning: adversaries train on flipped targets
    (``y → num_classes - 1 - y``) inside ``local_train``, so the
    poisoned gradient is baked into an otherwise honest-looking update.

``signflip``
    Model poisoning: the adversary reports ``ref - delta`` instead of
    ``ref + delta`` — its training progress, reversed.

``noise``
    Gaussian noise of scale ``atk_noise_std`` added to the update's
    delta (drawn from a client/round-keyed generator, so replays are
    deterministic).

``scale``
    Model-replacement boosting: the delta is multiplied by
    ``atk_scale``, the classic single-shot takeover of a mean-based
    aggregator.

Adversary assignment
--------------------

Exactly ``round(atk_frac * num_clients)`` clients are adversaries,
drawn as a seeded permutation prefix over the **full** id space —
including clients a churn/growth population holds out to join later, so
a newcomer's allegiance is decided the moment it appears, identically
across schedulers, backends, and crash/resume boundaries.  The roster
is a pure function of the run's root seed; checkpoints carry it only to
cross-check the resumed run (:meth:`AttackModel.load_state_dict`).

Where poisoning happens
-----------------------

Delta attacks run at the top of ``Scheduler.encode_upload`` — *before*
the codec — so lossy codecs, wire metering, and the simulated network all
see the poisoned update, identically across the sync/semisync/buffered
schedulers.  ``labelflip`` instead acts inside the client's training task
(a pure read of the immutable roster, the same under ``serial`` and
``vector``).  Each poisoned upload emits a ``poisoned_update`` telemetry
event and bumps the ``poisoned_updates`` counter; assignments are emitted
as ``attack_assign`` events at run start.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING

import numpy as np

from repro.fl import registry
from repro.fl.registry import opt, register
from repro.fl.telemetry import NULL_TELEMETRY
from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fl.server import ClientUpdate, FederatedAlgorithm

__all__ = [
    "AttackModel",
    "NoAttack",
    "NULL_ATTACK",
    "LabelFlipAttack",
    "SignFlipAttack",
    "NoiseAttack",
    "ScaleAttack",
    "make_attack",
]

#: the actual attacks (everything but ``none``) — the shared adversary
#: knobs apply to these
_ADVERSARIAL = ("labelflip", "signflip", "noise", "scale")

#: ``FLConfig.extra`` knobs shared across attack models, declared once
#: for the family (prefix ``atk_``; unknown ``atk_*`` keys are rejected
#: by ``FLConfig`` validation).
registry.family_options("attack", [
    opt("atk_frac", float, 0.2, low=0.0, high=1.0,
        env="REPRO_ATK_FRAC", alias="frac", only_for=_ADVERSARIAL,
        help="fraction of the full federation that is byzantine; "
             "exactly round(frac * num_clients) clients, drawn as a "
             "seeded permutation prefix over the full id space"),
    opt("atk_start", int, 1, low=0,
        env="REPRO_ATK_START", alias="start", only_for=_ADVERSARIAL,
        help="first round (dispatch cycle, for `buffered`) the attack "
             "is active; earlier uploads stay honest"),
])


class AttackModel:
    """Base class: who is byzantine, and what they do to their uploads.

    One instance serves one run, built by ``FederatedAlgorithm.run``
    before the population detaches any joiner pool (so held-out late
    joiners are covered).  The roster is immutable after construction —
    adversary checks are pure reads, safe inside client tasks.
    """

    #: registry name; subclasses set this
    name: str = "base"
    #: False → the engine skips every attack hook (the ``none`` model)
    enabled: bool = True
    #: True → ``local_train`` flips this adversary's training targets
    flips_labels: bool = False

    def __init__(self, num_clients: int, rngs: RngFactory, extra: dict | None = None):
        self.num_clients = int(num_clients)
        self.rngs = rngs
        extra = extra or {}
        self.frac = float(extra.get("atk_frac", 0.2))
        if not 0.0 <= self.frac <= 1.0:
            raise ValueError(f"atk_frac must be in [0, 1], got {self.frac}")
        self.start = int(extra.get("atk_start", 1))
        if self.start < 0:
            raise ValueError(f"atk_start must be >= 0, got {self.start}")
        #: run observability; the engine swaps in the live sink at run()
        self.telemetry = NULL_TELEMETRY
        #: sorted adversary ids — a pure function of the root seed
        self.roster: tuple[int, ...] = self._draw_roster()
        self._adversaries = frozenset(self.roster)

    def _draw_roster(self) -> tuple[int, ...]:
        k = int(round(self.frac * self.num_clients))
        if k == 0:
            return ()
        perm = self.rngs.make("attack.assign").permutation(self.num_clients)
        return tuple(sorted(int(c) for c in perm[:k]))

    # ------------------------------------------------------------------
    def is_adversary(self, client_id: int) -> bool:
        """Whether the client is byzantine (pure read)."""
        return int(client_id) in self._adversaries

    def poisons(self, client_id: int, key_idx: int) -> bool:
        """Whether this client's upload at this round/cycle is poisoned."""
        return key_idx >= self.start and self.is_adversary(client_id)

    def poison_upload(
        self, algo: "FederatedAlgorithm", u: "ClientUpdate", key_idx: int
    ) -> "ClientUpdate":
        """Poison one upload before it enters the wire layer.

        Called by every scheduler at the top of ``encode_upload`` (while
        the server still holds the reference the client downloaded).  Honest uploads pass through untouched; poisoned
        ones are *replaced* (never mutated in place — asynchronous
        schedulers may still hold the original).
        """
        if not self.poisons(u.client_id, key_idx):
            return u
        ref = algo.wire_reference(u, key_idx)
        poisoned = self.poison_params(algo, u, ref, key_idx)
        self.telemetry.emit(
            "poisoned_update",
            client=int(u.client_id), key=int(key_idx), attack=self.name,
        )
        self.telemetry.count("poisoned_updates")
        if poisoned is None:  # labelflip: the damage is already inside
            return u
        return dataclass_replace(u, params=poisoned)

    def poison_params(
        self,
        algo: "FederatedAlgorithm",
        u: "ClientUpdate",
        ref: np.ndarray,
        key_idx: int,
    ) -> np.ndarray | None:
        """The poisoned parameter vector (``None``: keep the update's own)."""
        return None

    def flip_labels(self, y: np.ndarray, num_classes: int) -> np.ndarray:
        """The ``labelflip`` target map: ``y → num_classes - 1 - y``."""
        return (num_classes - 1) - np.asarray(y)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The roster, for cross-checking a resume (it re-derives from
        the seed; the fingerprint already pins ``atk_*``)."""
        return {"roster": [int(c) for c in self.roster]}

    def load_state_dict(self, state: dict) -> None:
        """Verify the resumed run re-derived the checkpoint's roster."""
        saved = [int(c) for c in state.get("roster", [])]
        if saved != list(self.roster):
            raise ValueError(
                f"checkpoint attacker roster {saved} does not match the "
                f"resumed run's {list(self.roster)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(adversaries={list(self.roster)})"


@register("attack", "none")
class NoAttack(AttackModel):
    """Every client is honest (the default); all hooks short-circuit."""

    name = "none"
    enabled = False

    def __init__(self, num_clients: int = 0, rngs: RngFactory | None = None,
                 extra: dict | None = None):
        self.num_clients = int(num_clients)
        self.rngs = rngs
        self.frac = 0.0
        self.start = 0
        self.telemetry = NULL_TELEMETRY
        self.roster = ()
        self._adversaries = frozenset()

    def poisons(self, client_id: int, key_idx: int) -> bool:
        return False

    def poison_upload(self, algo, u, key_idx):
        return u

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        return


#: the shared no-op attack — engine hooks call through unconditionally,
#: like :data:`~repro.fl.telemetry.NULL_TELEMETRY`
NULL_ATTACK = NoAttack()


@register("attack", "labelflip")
class LabelFlipAttack(AttackModel):
    """Data poisoning: adversaries train on flipped targets.

    ``local_train`` maps the adversary's training labels through
    ``y → num_classes - 1 - y`` before SGD, so the poisoned gradient is
    baked into an otherwise ordinary update — the attack the wire layer
    cannot see, only robust aggregation can absorb.
    """

    name = "labelflip"
    flips_labels = True


@register("attack", "signflip")
class SignFlipAttack(AttackModel):
    """Model poisoning: report the training delta with its sign reversed
    (``ref - delta`` instead of ``ref + delta``) — steady, targeted
    regress that collapses a mean-based aggregator."""

    name = "signflip"

    def poison_params(self, algo, u, ref, key_idx):
        return 2.0 * ref - u.params


@register("attack", "noise", options=[
    opt("atk_noise_std", float, 1.0, low=0.0, low_inclusive=False,
        env="REPRO_ATK_NOISE_STD", alias="std", only_for=("noise",),
        help="std of the Gaussian added to an adversary's update delta"),
])
class NoiseAttack(AttackModel):
    """Gaussian noise on the update delta, from a client/round-keyed
    generator (deterministic across schedulers and crash/resume)."""

    name = "noise"

    def __init__(self, num_clients, rngs, extra=None):
        super().__init__(num_clients, rngs, extra)
        self.noise_std = float((extra or {}).get("atk_noise_std", 1.0))
        if self.noise_std <= 0:
            raise ValueError(
                f"atk_noise_std must be positive, got {self.noise_std}"
            )

    def poison_params(self, algo, u, ref, key_idx):
        rng = self.rngs.make(f"attack.client{u.client_id}", key_idx)
        return u.params + rng.normal(0.0, self.noise_std, size=u.params.shape)


@register("attack", "scale", options=[
    opt("atk_scale", float, 10.0, low=0.0, low_inclusive=False,
        env="REPRO_ATK_SCALE", alias="factor", only_for=("scale",),
        help="model-replacement boost: the adversary's delta is "
             "multiplied by this factor"),
])
class ScaleAttack(AttackModel):
    """Model-replacement boosting: scale the delta so one adversary
    dominates a mean-based aggregation (Bagdasaryan et al., 2020)."""

    name = "scale"

    def __init__(self, num_clients, rngs, extra=None):
        super().__init__(num_clients, rngs, extra)
        self.scale = float((extra or {}).get("atk_scale", 10.0))
        if self.scale <= 0:
            raise ValueError(f"atk_scale must be positive, got {self.scale}")

    def poison_params(self, algo, u, ref, key_idx):
        return ref + self.scale * (u.params - ref)



def make_attack(
    config=None,
    num_clients: int = 0,
    rngs: RngFactory | None = None,
    attack: str | None = None,
) -> AttackModel:
    """Build the byzantine-attack model for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying the
            ``attack`` knob and ``atk_*`` extra parameters (optional).
        num_clients: total federation size, *including* any clients a
            joining population will hold out (allegiance must be decided
            over the full id space).
        rngs: the run's :class:`~repro.utils.rng.RngFactory` (a fresh
            seed-0 factory when omitted, for standalone use in tests).
        attack: explicit attack spec overriding the config — a
            registered name, ``"auto"``, or an inline spec like
            ``"signflip:frac=0.2"``.

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_ATTACK`` (default ``none``), and ``atk_*``
    knobs may come from ``FLConfig.extra``, ``REPRO_ATK_*`` env vars, or
    inline assignments.

    Returns:
        A fresh :class:`AttackModel` bound to the run's seed.
    """
    r = registry.resolve("attack", spec=attack, config=config)
    if rngs is None:
        rngs = RngFactory(0)
    extra = getattr(config, "extra", None) if config is not None else None
    if r.provided_extra:
        extra = {**(extra or {}), **r.provided_extra}
    return r.impl.cls(num_clients, rngs, extra)
