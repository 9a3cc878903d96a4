"""Dataset synthesis is pinned byte for byte, and its memory is bounded.

``tests/data/golden_synthesis.json`` holds SHA-256 digests of what
:func:`repro.data.make_dataset` and :func:`repro.data.make_prototypes`
return for every ``DATASET_SPECS`` entry, at 8x8 and 16x16, at two seeds,
with sample counts below one synthesis chunk and across several chunks
with a remainder.  Every experiment starts from these bytes, so a change
to the synthesis that is not bitwise moves every golden downstream; this
module fails first and names the dataset.  ``REPRO_UPDATE_GOLDENS=1``
rewrites the file, like the other goldens.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from golden import pinned_case
from repro.data import DATASET_SPECS, make_dataset, make_prototypes, sample_class_images
from repro.data import synthetic

#: (n_samples, image size, seeds): one count below a chunk and one across
#: several chunks with a remainder, per size (see test_cases_cross_chunks)
DATASET_CASES = (
    (120, 8, (0,)),
    (6000, 8, (0, 3)),
    (120, 16, (0,)),
    (1500, 16, (0, 3)),
)


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def _check(case: str, got) -> None:
    golden = pinned_case("golden_synthesis.json", case, got)
    if golden is not None:
        assert got == golden, f"{case} bytes diverged"


def _dataset_cases():
    for name in sorted(DATASET_SPECS):
        for n, size, seeds in DATASET_CASES:
            for seed in seeds:
                yield name, n, size, seed


@pytest.mark.parametrize("name, n, size, seed", list(_dataset_cases()))
def test_dataset_bytes_are_pinned(name, n, size, seed):
    ds = make_dataset(name, seed=seed, n_samples=n, size=size)
    _check(f"dataset/{name}/n{n}/{size}x{size}/seed{seed}", {"x": _sha(ds.x), "y": _sha(ds.y)})


@pytest.mark.parametrize("name", sorted(DATASET_SPECS))
@pytest.mark.parametrize("size", [8, 16])
@pytest.mark.parametrize("seed", [0, 3])
def test_prototype_bytes_are_pinned(name, size, seed):
    spec = DATASET_SPECS[name]
    protos = make_prototypes(
        spec.num_classes,
        (spec.channels, size, size),
        seed,
        spec.class_sep,
        spec.coarse,
        confusable_groups=spec.confusable_groups,
        confusable_mix=spec.confusable_mix,
    )
    _check(f"prototypes/{name}/{size}x{size}/seed{seed}", _sha(protos))


@pytest.mark.parametrize(
    "noise, lowfreq_noise", [(1.0, 0.7), (1.0, 0.0), (0.0, 0.7)]
)
def test_sampler_keeps_its_draws(noise, lowfreq_noise):
    """The images and the generator's position after the call are pinned:
    every grid is drawn first, then every pixel-noise value, and a zero
    scale draws nothing."""
    protos = make_prototypes(10, (3, 8, 8), rng=1)
    labels = np.random.default_rng(2).integers(10, size=1500)
    rng = np.random.default_rng(5)
    x = sample_class_images(protos, labels, rng, noise=noise, lowfreq_noise=lowfreq_noise)
    _check(
        f"sampler/noise{noise}/lowfreq{lowfreq_noise}",
        {"x": _sha(x), "next_draw": int(rng.integers(2**62))},
    )


@pytest.mark.parametrize("shape, coarse", [((3, 8, 8), 4), ((2, 5, 7), 3), ((1, 31, 31), 6)])
def test_bytes_do_not_depend_on_the_chunk_size(monkeypatch, shape, coarse):
    """One image per chunk, the default, and the whole array as one chunk
    give the same images and leave the generator in the same state."""
    protos = make_prototypes(4, shape, rng=0, coarse=coarse)
    labels = np.random.default_rng(1).integers(4, size=700)
    outs = []
    for chunk_values in (1, synthetic.CHUNK_VALUES, labels.size * protos[0].size):
        monkeypatch.setattr(synthetic, "CHUNK_VALUES", chunk_values)
        rng = np.random.default_rng(2)
        x = sample_class_images(protos, labels, rng, noise=0.9, lowfreq_noise=0.6, coarse=coarse)
        assert x.flags.c_contiguous and x.dtype == np.float32
        outs.append((_sha(x), int(rng.integers(2**62))))
    assert outs[0] == outs[1] == outs[2]


def test_cases_cross_chunks():
    """At the current ``CHUNK_VALUES``, each spec and size has a pinned case
    inside one chunk and one spanning several chunks with a partial last
    one, so a new chunk size cannot leave the pins short of a boundary."""
    for spec in DATASET_SPECS.values():
        for size in (8, 16):
            step = max(1, synthetic.CHUNK_VALUES // (spec.channels * size * size))
            ns = [n for n, s, _ in DATASET_CASES if s == size]
            assert min(ns) < step
            assert any(n // step >= 2 and n % step for n in ns)


@pytest.mark.parametrize("name, n, size", [("cifar10", 8000, 8), ("cifar100", 2000, 16)])
def test_synthesis_memory_is_bounded(name, n, size):
    """make_dataset allocates a few dataset-sized arrays at most: the
    output and the standardization's temporary, plus chunk-sized temporaries.
    numpy reports its buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ds = make_dataset(name, seed=0, n_samples=n, size=size)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * ds.x.nbytes, f"peak {peak / ds.x.nbytes:.1f}x the dataset"
