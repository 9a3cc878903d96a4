"""Class-prototype synthetic image generator.

The environment has no network access, so the four benchmark datasets the
paper evaluates (CIFAR-10/100, FMNIST, SVHN) are substituted with synthetic
class-conditional image distributions:

* each class ``k`` gets a smooth random *prototype* image (a coarse random
  grid upsampled bilinearly — low-frequency structure like real photographs);
* a sample of class ``k`` is ``prototype_k + low-frequency noise + pixel
  noise``, standardized per-dataset.

Why this preserves the paper's phenomena: every claim in the evaluation is
about behaviour under *label-distribution skew*, which is produced by the
partitioner, not by pixel statistics.  Clients holding different label sets
fit different classifier heads — exactly the weight-space geometry FedClust
exploits — regardless of whether classes are frogs or Gaussian prototypes.
The ``class_sep``/``noise`` knobs reproduce the datasets' relative
difficulty ordering (FMNIST easiest, CIFAR-100 hardest).

Bytes and memory.  Every golden downstream starts from these arrays, so
the synthesis is bitwise stable: ``tests/test_synthesis.py`` pins the
SHA-256 of each registry dataset and prototype table.

* :func:`sample_class_images` draws every image's coarse grid first, then
  every pixel-noise value, and fills its float32 output in chunks of
  :data:`CHUNK_VALUES` values.  Its temporaries are chunk-sized, so a
  dataset costs little more than its own bytes; the paper-scale CIFAR-100
  stand-in (100,000 images of 3x16x16) builds in well under 1 GB.
* :func:`smooth_field` and :func:`make_prototypes` keep their original
  form.  ``smooth_field``'s fancy indexing leaves its output
  non-contiguous (channel axis innermost), and ``make_prototypes`` reduces
  the prototype norms over axes (1, 2, 3) in that memory order.  A
  C-contiguous stack, or fields from the separable upsampler, hold equal
  values in another order; the norms then sum in another order and the
  prototype bytes change.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["smooth_field", "make_prototypes", "sample_class_images"]

#: values :func:`sample_class_images` synthesizes per chunk, rounded down to
#: whole images (at least one): about 1 MB per float64 temporary at any
#: image size
CHUNK_VALUES = 1 << 17


def smooth_field(
    rng: np.random.Generator,
    shape: tuple[int, int, int],
    coarse: int = 4,
    dtype=np.float32,
) -> np.ndarray:
    """A smooth random image: coarse Gaussian grid, bilinearly upsampled.

    ``shape`` is (C, H, W); ``coarse`` is the resolution of the underlying
    random grid (smaller = smoother).
    """
    c, h, w = shape
    if min(c, h, w) <= 0 or coarse <= 0:
        raise ValueError(f"invalid field shape {shape} / coarse {coarse}")
    grid = rng.normal(size=(c, coarse, coarse))
    # Bilinear upsample via linear interpolation along each axis (vectorized).
    ys = np.linspace(0, coarse - 1, h)
    xs = np.linspace(0, coarse - 1, w)
    y0 = np.clip(np.floor(ys).astype(int), 0, coarse - 2)
    x0 = np.clip(np.floor(xs).astype(int), 0, coarse - 2)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    g00 = grid[:, y0][:, :, x0]
    g01 = grid[:, y0][:, :, x0 + 1]
    g10 = grid[:, y0 + 1][:, :, x0]
    g11 = grid[:, y0 + 1][:, :, x0 + 1]
    top = g00 * (1 - wx) + g01 * wx
    bot = g10 * (1 - wx) + g11 * wx
    return (top * (1 - wy) + bot * wy).astype(dtype)


def make_prototypes(
    num_classes: int,
    shape: tuple[int, int, int],
    rng: int | np.random.Generator,
    class_sep: float = 1.0,
    coarse: int = 4,
    confusable_groups: int = 0,
    confusable_mix: float = 0.0,
) -> np.ndarray:
    """Per-class prototype images, shape ``(num_classes, C, H, W)``.

    ``class_sep`` scales prototype magnitude relative to the unit-variance
    sampling noise, i.e. it is the signal-to-noise knob controlling dataset
    difficulty.

    ``confusable_groups``/``confusable_mix`` model a key property of the
    real benchmarks: some classes are *mutually similar* (FMNIST's
    shirt/pullover, CIFAR-100's superclasses).  Classes are arranged into
    ``confusable_groups`` groups; each prototype is a blend of a shared
    group template (weight ``confusable_mix``) and a class-unique field.
    A global model must discriminate near-identical classes and suffers
    under non-IID drift, while a client that holds only one member of a
    confusable pair is unaffected — the asymmetry that makes label skew
    hurt global FL on the real datasets.
    """
    if num_classes <= 0:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    if not 0.0 <= confusable_mix < 1.0:
        raise ValueError(f"confusable_mix must be in [0, 1), got {confusable_mix}")
    rng = as_generator(rng)
    uniques = np.stack([smooth_field(rng, shape, coarse) for _ in range(num_classes)])
    if confusable_groups > 0 and confusable_mix > 0.0:
        g = min(confusable_groups, num_classes)
        centers = np.stack([smooth_field(rng, shape, coarse) for _ in range(g)])
        # Consecutive classes share a group (like CIFAR-100's superclass
        # ordering): classes 0,1 are confusable, 2,3 are confusable, ...
        group_of = np.arange(num_classes) * g // num_classes
        protos = (
            confusable_mix * centers[group_of] + (1.0 - confusable_mix) * uniques
        )
    else:
        protos = uniques
    # Normalize prototype energy so class_sep is comparable across configs.
    norms = np.sqrt((protos**2).mean(axis=(1, 2, 3), keepdims=True))
    return (protos / np.maximum(norms, 1e-8) * class_sep).astype(np.float32)


def sample_class_images(
    prototypes: np.ndarray,
    labels: np.ndarray,
    rng: int | np.random.Generator,
    noise: float = 1.0,
    lowfreq_noise: float = 0.5,
    coarse: int = 4,
) -> np.ndarray:
    """Draw images for an integer label vector given class prototypes.

    Each image = prototype + ``lowfreq_noise`` * smooth field (instance
    variation, like pose/lighting) + ``noise`` * i.i.d. pixel noise.
    A zero scale leaves its term out and draws nothing for it.

    Draw order: every image's coarse grid first, then every pixel-noise
    value, each in image order.  The output is a C-contiguous array of the
    prototypes' dtype (float32 from :func:`make_prototypes`), filled in
    chunks of :data:`CHUNK_VALUES` values (whole images), so every
    temporary is chunk-sized rather than dataset-sized.
    ``Generator.normal`` yields the same stream in consecutive chunks as
    in one call, and no value's arithmetic depends on the chunk it falls
    in, so the bytes and the generator's final state do not depend on the
    chunk size.

    Raises:
        ValueError: for a negative or non-finite ``noise`` or
            ``lowfreq_noise``, or labels that are not a 1-D integer array
            of classes in the prototype table.
    """
    for arg, scale in (("noise", noise), ("lowfreq_noise", lowfreq_noise)):
        if not 0.0 <= scale < np.inf:
            raise ValueError(f"{arg} must be a finite scale >= 0, got {scale}")
    rng = as_generator(rng)
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    if labels.size and (labels.min() < 0 or labels.max() >= prototypes.shape[0]):
        raise ValueError("labels reference classes outside the prototype table")
    n = labels.size
    c, h, w = prototypes.shape[1:]
    x = np.empty((n, c, h, w), dtype=prototypes.dtype)
    step = max(1, CHUNK_VALUES // (c * h * w))
    chunks = [slice(i, min(i + step, n)) for i in range(0, n, step)]
    y0, wy = _bilinear_taps(coarse, h)
    x0, wx = _bilinear_taps(coarse, w)
    wy = wy[:, None]
    for chunk in chunks:
        xc = x[chunk]
        xc[...] = prototypes[labels[chunk]]
        if lowfreq_noise > 0:
            grids = rng.normal(size=(xc.shape[0] * c, coarse, coarse))
            fields = _upsample(grids, y0, wy, x0, wx)
            # scaled in float32, after the rounding: the pinned bytes need it
            fields *= lowfreq_noise
            xc += fields.reshape(xc.shape)
    if noise > 0:
        for chunk in chunks:
            xc = x[chunk]
            xc += rng.normal(0.0, noise, size=xc.shape).astype(np.float32)
    return x


def _bilinear_taps(g: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left neighbour and its right weight for ``n`` samples across ``g``
    grid points, the same float64 values :func:`smooth_field` uses."""
    s = np.linspace(0, g - 1, n)
    i0 = np.clip(np.floor(s).astype(int), 0, g - 2)
    return i0, s - i0


def _upsample(
    grids: np.ndarray, y0: np.ndarray, wy: np.ndarray, x0: np.ndarray, wx: np.ndarray
) -> np.ndarray:
    """Bilinearly upsample ``(B, g, g)`` float64 grids to float32 ``(B, h, w)``.

    Separable: along x on the ``g`` coarse rows, then along y between the
    two interpolated rows around each output row.  An interpolated row is
    the value :func:`smooth_field` computes as ``top``/``bot``, so every
    output value is the same float64 expression, rounded once to float32.
    """
    rows = grids[:, :, x0] * (1 - wx) + grids[:, :, x0 + 1] * wx
    top = rows[:, y0]
    top *= 1 - wy
    bot = rows[:, y0 + 1]
    bot *= wy
    return np.add(top, bot, out=np.empty(top.shape, dtype=np.float32))
