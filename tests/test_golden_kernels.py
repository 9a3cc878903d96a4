"""Every image layer's kernels are pinned byte for byte, NaN payloads aside.

``tests/data/golden_kernels.json`` holds digests of what each image layer
(Conv2d, BatchNorm, MaxPool2d, ReLU, GlobalAvgPool2d, Flatten, a
ResNet-9 ``Residual`` block, and LeNet-5 and ResNet-9 whole) returns
through a :class:`~repro.nn.model.CohortModel`, whose ``(C, N, ch, H, W)``
interface does not depend on the layers' internal layout: the output, the
input gradient, every parameter gradient and BatchNorm's running
statistics over two training steps, then the evaluation output on each
member's own rows and on one shared ``(1, N, ...)`` input (IFCA's
scoring pass).  A few cases also run a layer's one-model
``forward``/``backward`` on NCHW arrays.

The model goldens train only 8x8 inputs, so these cases sweep what they
miss: maps from 1x1 to 16x16, 12x12 among them (144 cells, past numpy's
128-value pairwise block) and odd sizes; k 3 and 5; pad 0, 1 and 2;
stride 1 and 2; cohorts of 1 and 3; a single-feature BatchNorm; and
values with ties, +-0.0, NaN and +-inf.  Two summation orders are what a
layout change is most likely to move: BatchNorm's per-channel sums (numpy
adds each row's cells pairwise and the rows in order from +0.0, and with
one feature one pairwise run over rows and cells), and Conv2d's bias
gradient on one-cell maps (the rows in order).

A digest is the SHA-256 of an array's dtype, shape and bytes, with every
NaN replaced by one canonical NaN first: which payload a NaN+NaN sum
keeps is up to numpy's inner loop.  ``REPRO_UPDATE_GOLDENS=1`` rewrites
the file, like the other goldens.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from golden import pinned_case
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    ReLU,
)
from repro.nn.model import CohortModel, Residual, Sequential
from repro.nn.models import lenet5, resnet9

GOLDEN_FILE = "golden_kernels.json"


def _digest(a: np.ndarray) -> str:
    a = np.asarray(a)
    if a.dtype.kind == "f":
        a = np.where(np.isnan(a), np.array(np.nan, a.dtype), a)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(a).tobytes()).hexdigest()[:24]


def _draw(rng, shape, dtype, values):
    """``normal`` draws; ``ties``: integers in [-2, 2] with a third of
    the zeros negative; ``edge``: normal draws with sparse NaNs in every
    fourth channel, +-inf in the next, and +-0.0 and subnormals filling
    half of the one after (whole channels of them would make every
    BatchNorm statistic NaN)."""
    dtype = np.dtype(dtype)
    if values == "ties":
        x = rng.integers(-2, 3, size=shape).astype(dtype)
        x[(x == 0) & (rng.random(shape) < 0.35)] = -0.0
        return x
    x = rng.standard_normal(shape).astype(dtype)
    if values == "edge":
        chans = x.shape[2] if x.ndim >= 3 else 1
        tiny = np.finfo(dtype).smallest_subnormal
        for j in range(chans):
            sl = x[:, :, j] if x.ndim >= 3 else x
            kind = j % 4
            if kind == 3:
                continue
            share = 0.5 if kind == 2 else 0.02
            where = rng.random(sl.shape) < share
            specials = {
                0: [np.nan, -np.nan],
                1: [np.inf, -np.inf],
                2: [0.0, -0.0, tiny, -tiny, 3 * tiny],
            }[kind]
            picks = np.array(specials, dtype)[
                rng.integers(0, len(specials), int(where.sum()))
            ]
            sl[where] = picks
    return x


def _set_params(cm: CohortModel, rng, scale=0.3):
    for p in cm.parameters():
        p.many[:] = (rng.standard_normal(p.many.shape) * scale).astype(p.many.dtype)
    for buf in cm.state_many().values():
        buf += rng.uniform(0.0, 0.5, buf.shape)


def _run(layers, cohort, x_shape, dtype, values, seed, steps=2):
    """Digests of two training steps and two evaluation forwards of
    ``layers`` as one ``cohort``-member model."""
    rng = np.random.default_rng(seed)
    cm = CohortModel(Sequential(*layers), cohort)
    _set_params(cm, rng)
    got = {}
    with np.errstate(all="ignore"):
        for step in range(steps):
            cm.zero_grad()
            x = _draw(rng, (cohort, *x_shape), dtype, values)
            out = cm.forward(x, train=True)
            dout = _draw(rng, out.shape, dtype, values)
            dx = cm.backward(dout, need_input_grad=True)
            got[f"step{step}/out"] = _digest(out)
            got[f"step{step}/dx"] = _digest(dx)
            for i, p in enumerate(cm.parameters()):
                got[f"step{step}/grad{i}"] = _digest(p.grad_many)
            for key, buf in sorted(cm.state_many().items()):
                got[f"step{step}/{key}"] = _digest(buf)
        xe = _draw(rng, (cohort, *x_shape), dtype, values)
        got["eval/out"] = _digest(cm.forward(xe, train=False))
        got["eval_shared/out"] = _digest(cm.forward(xe[:1], train=False))
    return got


def _check(case: str, got: dict) -> None:
    golden = pinned_case(GOLDEN_FILE, case, got)
    if golden is not None:
        diverged = sorted(k for k in golden if got.get(k) != golden[k])
        assert not diverged, f"{case}: {diverged} diverged"


#: (in_ch, out_ch, k, stride, pad, map size, cohort, batch, dtype, values)
CONV_CASES = [
    (4, 5, 3, 1, 1, 1, 3, 10, "f4", "normal"),  # ResNet-9's 1x1 stage
    (4, 5, 3, 1, 1, 1, 1, 10, "f4", "edge"),
    (4, 5, 3, 1, 1, 2, 3, 10, "f4", "normal"),  # ResNet-9's 2x2 stage
    (3, 4, 3, 1, 1, 3, 3, 4, "f4", "edge"),
    (3, 4, 3, 1, 1, 8, 3, 10, "f4", "normal"),
    (2, 3, 3, 1, 1, 12, 1, 10, "f4", "normal"),
    (2, 3, 3, 1, 1, 16, 3, 6, "f4", "edge"),
    (3, 6, 5, 1, 2, 16, 3, 5, "f4", "normal"),  # LeNet-5's conv1
    (6, 4, 5, 1, 2, 8, 3, 10, "f4", "edge"),  # LeNet-5's conv2
    (6, 4, 5, 1, 2, 4, 1, 10, "f4", "normal"),
    (2, 3, 3, 2, 1, 7, 3, 4, "f4", "normal"),  # stride 2, odd map
    (2, 3, 5, 2, 2, 9, 3, 4, "f8", "normal"),
    (2, 3, 3, 1, 0, 5, 3, 10, "f4", "normal"),  # pad 0
    (2, 3, 3, 2, 0, 6, 1, 4, "f8", "edge"),
    (3, 4, 5, 1, 0, 5, 3, 10, "f4", "normal"),  # pad 0 to a one-cell map
    (2, 3, 3, 1, 2, 3, 3, 4, "f4", "normal"),  # pad 2: the map grows
    (2, 3, 1, 1, 0, 5, 3, 4, "f4", "ties"),  # 1x1 kernel
]


@pytest.mark.parametrize(
    "cin,cout,k,stride,pad,hw,cohort,n,dtype,values", CONV_CASES
)
def test_conv2d(cin, cout, k, stride, pad, hw, cohort, n, dtype, values):
    layer = Conv2d(
        cin, cout, k, np.random.default_rng(0), stride=stride, pad=pad, dtype=dtype
    )
    case = f"conv/{cin}-{cout}/k{k}s{stride}p{pad}/{hw}x{hw}/C{cohort}N{n}/{dtype}/{values}"
    _check(case, _run([layer], cohort, (n, cin, hw, hw), dtype, values, seed=len(case)))


#: (features, map size, cohort, batch, dtype, values); map size 0 is a
#: Dense activation (C, N, F)
BN_CASES = [
    (4, 1, 3, 10, "f4", "normal"),
    (4, 1, 3, 12, "f4", "ties"),
    (4, 2, 3, 10, "f4", "normal"),
    (4, 2, 1, 10, "f4", "edge"),
    (5, 3, 3, 6, "f4", "normal"),
    (4, 5, 3, 4, "f8", "ties"),
    (4, 7, 1, 3, "f4", "edge"),
    (8, 8, 3, 10, "f4", "normal"),
    (4, 8, 3, 10, "f4", "edge"),
    (4, 12, 3, 10, "f4", "normal"),  # 144 cells: past the 128-value block
    (4, 12, 1, 3, "f4", "ties"),
    (3, 16, 3, 5, "f4", "normal"),
    (4, 16, 1, 4, "f4", "edge"),
    (1, 1, 3, 10, "f4", "normal"),  # one feature: one fused run
    (1, 2, 3, 10, "f4", "ties"),
    (1, 3, 3, 10, "f4", "normal"),
    (1, 8, 1, 10, "f4", "normal"),
    (1, 12, 3, 3, "f4", "normal"),
    (1, 16, 3, 4, "f8", "normal"),
    (4, 0, 3, 10, "f4", "normal"),
    (1, 0, 3, 12, "f4", "ties"),
]


@pytest.mark.parametrize("features,hw,cohort,n,dtype,values", BN_CASES)
def test_batchnorm(features, hw, cohort, n, dtype, values):
    layer = BatchNorm(features, dtype=dtype)
    shape = (n, features, hw, hw) if hw else (n, features)
    case = f"bn/F{features}/{hw}x{hw}/C{cohort}N{n}/{dtype}/{values}"
    _check(case, _run([layer], cohort, shape, dtype, values, seed=len(case)))


#: (size, stride, map size, channels, cohort, batch, dtype, values)
POOL_CASES = [
    (2, 2, 2, 4, 3, 10, "f4", "ties"),
    (2, 2, 8, 3, 3, 10, "f4", "ties"),
    (2, 2, 8, 4, 1, 6, "f4", "edge"),
    (2, 2, 16, 3, 3, 5, "f4", "normal"),
    (2, 2, 7, 2, 3, 4, "f8", "ties"),  # odd map: the last row and column drop
    (3, 2, 7, 2, 3, 4, "f4", "ties"),  # overlapping windows
    (3, 2, 9, 4, 1, 3, "f4", "edge"),
    (2, 1, 5, 2, 3, 4, "f4", "ties"),
    (3, 3, 9, 2, 3, 4, "f4", "ties"),
    (2, 3, 8, 2, 3, 4, "f4", "edge"),  # gaps between windows
    (3, 3, 3, 4, 3, 10, "f4", "normal"),  # one window per map
]


@pytest.mark.parametrize("size,stride,hw,ch,cohort,n,dtype,values", POOL_CASES)
def test_maxpool(size, stride, hw, ch, cohort, n, dtype, values):
    case = f"pool/{size}s{stride}/{hw}x{hw}/ch{ch}/C{cohort}N{n}/{dtype}/{values}"
    _check(case, _run(
        [MaxPool2d(size, stride)], cohort, (n, ch, hw, hw), dtype, values,
        seed=len(case),
    ))


@pytest.mark.parametrize("hw", [1, 2, 5, 8])
@pytest.mark.parametrize(
    "name,factory", [("relu", ReLU), ("gap", GlobalAvgPool2d), ("flatten", Flatten)]
)
def test_parameter_free(name, factory, hw):
    case = f"{name}/{hw}x{hw}/C3N10/f4/edge"
    _check(case, _run([factory()], 3, (10, 4, hw, hw), "f4", "edge", seed=hw))


def _block(ch, rng):
    body = []
    for name in ("a", "b"):
        body += [
            Conv2d(ch, ch, 3, rng, pad=1, name=name),
            BatchNorm(ch, name=f"{name}.bn"),
            ReLU(),
        ]
    return Residual(*body)


@pytest.mark.parametrize("hw", [1, 2, 4])
@pytest.mark.parametrize("cohort", [1, 3])
def test_residual_block(hw, cohort):
    case = f"residual/ch6/{hw}x{hw}/C{cohort}N10/f4/normal"
    layers = [_block(6, np.random.default_rng(0))]
    _check(case, _run(layers, cohort, (10, 6, hw, hw), "f4", "normal", seed=hw))


@pytest.mark.parametrize(
    "name,build,hw",
    [
        ("lenet5", lambda hw: lenet5(10, (3, hw, hw), width=0.5, rng=0), 16),
        ("lenet5", lambda hw: lenet5(10, (3, hw, hw), rng=0), 8),
        ("resnet9", lambda hw: resnet9(10, (3, hw, hw), width=0.125, rng=0), 16),
        ("resnet9", lambda hw: resnet9(10, (3, hw, hw), width=0.125, rng=0), 12),
    ],
)
def test_model(name, build, hw):
    case = f"model/{name}/{hw}x{hw}/C3N10/f4/normal"
    model = build(hw)
    _check(case, _run(model.layers, 3, (10, 3, hw, hw), "f4", "normal", seed=hw))


@pytest.mark.parametrize(
    "name,factory,shape",
    [
        ("conv-k3p1", lambda: Conv2d(3, 4, 3, np.random.default_rng(0), pad=1), (10, 3, 1, 1)),
        ("conv-k5p2", lambda: Conv2d(3, 4, 5, np.random.default_rng(0), pad=2), (5, 3, 8, 8)),
        ("bn", lambda: BatchNorm(4), (10, 4, 3, 3)),
        ("pool", lambda: MaxPool2d(2), (6, 3, 8, 8)),
        ("pool-3s2", lambda: MaxPool2d(3, 2), (4, 2, 7, 7)),
        ("gap", GlobalAvgPool2d, (10, 4, 2, 2)),
    ],
)
def test_one_model_nchw(name, factory, shape):
    """A layer's own ``forward``/``backward`` on one model's NCHW arrays."""
    layer = factory()
    rng = np.random.default_rng(len(name))
    for p in layer.parameters():
        p.data[:] = rng.standard_normal(p.shape).astype(p.data.dtype)
    x = _draw(rng, shape, "f4", "ties" if "pool" in name else "normal")
    out = layer.forward(x)
    dx = layer.backward(_draw(rng, out.shape, "f4", "normal"))
    got = {"out": _digest(out), "dx": _digest(dx)}
    got.update({f"grad{i}": _digest(p.grad) for i, p in enumerate(layer.parameters())})
    got["eval/out"] = _digest(layer.forward(x, train=False))
    _check(f"one_model/{name}", got)
