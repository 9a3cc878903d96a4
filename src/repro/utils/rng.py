"""Deterministic random-number management.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` handed to it explicitly.  This module
centralizes how those generators are derived from a single root seed so that
an experiment config plus one integer reproduces an entire federation
bit-for-bit, including client sampling, data synthesis, partitioning, and
weight initialization.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RngFactory",
    "as_generator",
    "generator_state",
    "restore_generator",
]


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def generator_state(gen: np.random.Generator) -> dict:
    """Snapshot a generator's exact position as a plain, picklable dict.

    The dict is numpy's own ``bit_generator.state`` mapping (bit-generator
    name plus integer state words), so a generator restored from it via
    :func:`restore_generator` emits the identical draw sequence.
    """
    return gen.bit_generator.state


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_state` snapshot.

    Raises:
        ValueError: if the snapshot names a bit generator this numpy
            build does not provide.
    """
    name = state.get("bit_generator") if isinstance(state, dict) else None
    cls = getattr(np.random, str(name), None) if name else None
    if cls is None:
        raise ValueError(f"cannot restore unknown bit generator {name!r}")
    bit_gen = cls()
    bit_gen.state = state
    return np.random.Generator(bit_gen)


class RngFactory:
    """Derives named, reproducible generators from a single root seed.

    Each distinct ``name`` (plus optional integer ``index``) maps to a fixed
    child of the root :class:`~numpy.random.SeedSequence`, so components can
    ask for "their" generator without coordinating global draw order:

    >>> rngs = RngFactory(0)
    >>> a = rngs.make("client", 3)
    >>> b = RngFactory(0).make("client", 3)
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int):
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def make(self, name: str, index: int = 0) -> np.random.Generator:
        """Return the generator for component ``name`` / ``index``."""
        key = self._key(name, index)
        return np.random.default_rng(np.random.SeedSequence([self._seed, *key]))

    def make_many(self, name: str, n: int) -> list[np.random.Generator]:
        """Return generators for indices ``0..n-1`` of component ``name``."""
        return [self.make(name, i) for i in range(n)]

    @staticmethod
    def _key(name: str, index: int) -> Sequence[int]:
        # Stable string -> entropy mapping (hash() is salted per process).
        digest: Iterable[int] = name.encode("utf-8")
        acc = 2166136261
        for byte in digest:
            acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
        return (acc, int(index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self._seed})"
