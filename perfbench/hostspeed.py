"""Host-speed probe: fixed work timed while benchmark cells run.

On a shared host, other tenants slow every cell down by 1.3-2x in
stretches that last from seconds to minutes.  Interpreter-bound code
slows down more than GEMM-bound code, so the probe times three fixed
parts that together have the instruction mix of a cell:

- ``gemm``: LeNet-sized im2col convolutions through float32 GEMMs,
  forward and backward, on one client's batch of 10 and on a stack of 2
  such batches;
- ``numpy``: many small-array numpy calls (softmax, ReLU, pooling), where
  dispatch overhead dominates, as on the serial kernel path;
- ``python``: a pure-Python dict and string loop, like the engine's glue.

A reading is the mean over the parts of ``part time / REFERENCE_S[part]``,
the slowdown relative to the uncontended development host.  The probe is
the benchmark's own code, the same on every commit, so it scales a
parent and a change alike.  :class:`HostMeter` takes readings before a
cell, between its rounds and after it, so that the cell's times can be
read at the reference speed::

    host_scale = 1 / mean(readings spanning the cell)
    time at reference speed = wall time * host_scale
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["REFERENCE_S", "HostProbe", "HostMeter"]

#: seconds per part on the 2-vCPU development host when nothing contends
#: with it (one BLAS thread); they fix the reference speed the time
#: metrics are read at
REFERENCE_S = {"gemm": 0.0141, "numpy": 0.0101, "python": 0.0086}


def _conv(x: np.ndarray, w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """'Same' k x k convolution by im2col + GEMM; returns output and columns."""
    n, c, h, wd = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(n * h * wd, c * k * k)
    out = cols @ w.T
    return out.reshape(n, h, wd, -1).transpose(0, 3, 1, 2), cols


def _pool(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


class HostProbe:
    """Fixed work in three parts, on fixed data."""

    def __init__(self):
        rng = np.random.default_rng(20240101)
        self.small = rng.standard_normal((10, 3, 32, 32)).astype(np.float32)
        self.stack = rng.standard_normal((20, 3, 32, 32)).astype(np.float32)
        self.w1 = (rng.standard_normal((6, 3 * 25)) * 0.1).astype(np.float32)
        self.w2 = (rng.standard_normal((16, 6 * 25)) * 0.1).astype(np.float32)
        self.w3 = (rng.standard_normal((16 * 8 * 8, 10)) * 0.1).astype(np.float32)
        self.a = rng.standard_normal((10, 84)).astype(np.float32)
        self.w4 = rng.standard_normal((84, 10)).astype(np.float32)
        self.x = rng.standard_normal((10, 6, 14, 14)).astype(np.float32)
        for _ in range(3):  # first-call allocations are not part of a reading
            self.reading()

    def _step(self, x: np.ndarray) -> float:
        n = len(x)
        h1, _ = _conv(x, self.w1, 5)
        p1 = _pool(np.maximum(h1, 0))
        h2, cols2 = _conv(np.ascontiguousarray(p1), self.w2, 5)
        a2 = np.maximum(h2, 0)
        p2 = _pool(a2).reshape(n, -1)
        logits = p2 @ self.w3
        g = logits - logits.mean(axis=1, keepdims=True)
        gw3 = p2.T @ g
        gp2 = (g @ self.w3.T).reshape(n, 16, 8, 1, 8, 1)
        g2 = np.repeat(np.repeat(gp2, 2, axis=3), 2, axis=5).reshape(a2.shape)
        gmat = (g2 * (h2 > 0)).transpose(0, 2, 3, 1).reshape(-1, 16)
        gw2 = gmat.T @ cols2
        gcols = gmat @ self.w2
        return float(gw3.sum() + gw2.sum() + gcols.sum())

    def _gemm(self) -> None:
        self._step(self.small)
        self._step(self.stack)

    def _numpy(self) -> None:
        for _ in range(30):
            y = self.a @ self.w4
            y -= y.max(axis=1, keepdims=True)
            np.exp(y, out=y)
            _pool(np.maximum(self.x, 0.0))

    @staticmethod
    def _python() -> None:
        d: dict[int, int] = {}
        acc = 0
        for i in range(60000):
            d[i & 255] = d.get(i & 255, 0) + i
            acc += len(str(i)) if i % 7 == 0 else 1

    def reading(self) -> float:
        """Slowdown of one pass over the parts against the reference host."""
        ratios = []
        for part in ("gemm", "numpy", "python"):
            fn = getattr(self, f"_{part}")
            t0 = time.perf_counter()
            fn()
            ratios.append((time.perf_counter() - t0) / REFERENCE_S[part])
        return statistics.fmean(ratios)


class HostMeter:
    """Probe readings spanning each cell, and the time they took."""

    #: readings before and after a cell
    EDGE_READINGS = 2
    #: at most one reading per this many seconds of a cell
    EVERY_S = 0.5

    def __init__(self):
        self.probe = HostProbe()
        self._readings = self._edge()
        self._last = time.perf_counter()

    def _edge(self) -> list[float]:
        return [self.probe.reading() for _ in range(self.EDGE_READINGS)]

    def start_cell(self) -> None:
        """Open a cell; the readings after the previous cell span its start."""
        self._readings = self._readings[-self.EDGE_READINGS:]
        self._last = time.perf_counter()

    def between_rounds(self) -> float:
        """Take a reading if one is due; returns the seconds it took."""
        t0 = time.perf_counter()
        if t0 - self._last < self.EVERY_S:
            return 0.0
        self._readings.append(self.probe.reading())
        self._last = time.perf_counter()
        return self._last - t0

    def end_cell(self) -> float:
        """Close the cell; returns its host scale."""
        self._readings += self._edge()
        return 1.0 / statistics.fmean(self._readings)
