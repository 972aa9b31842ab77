"""Dense tensor kernels and deterministic RNG streams.

All network state lives in plain C-contiguous numpy arrays, float32 by
convention. Kernels are dtype-preserving (float64 in gives float64 out,
which the gradient-check suite relies on), and the affine and L1
reductions always accumulate in float64 regardless of storage dtype so
that a float32 result is rounded exactly once.

Threading rule: the adder kernels (`pairwise_l1_neg` and the input
gradient of `layers.AdderLinear`) split their input rows into one
contiguous slice per core in the process's affinity mask and run the
slices on a shared thread pool. Each row is computed with exactly the
operations, in exactly the order, of a single-threaded pass, so results
are bit-identical for any core count. Workers neither allocate large
arrays (the caller preallocates every output and scratch array and a
worker writes only its own rows of them) nor call public `mulfree` names,
so tracing that wraps those names sees one thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionError, EmptyInputError, LabelError

__all__ = [
    "make_rng",
    "substream",
    "affine_map",
    "pairwise_l1_neg",
    "over_rows",
    "global_max_pool",
    "softmax_cross_entropy",
]


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 stream; a fixed seed reproduces the same draws on any host."""
    return np.random.default_rng(seed)


def substream(seed: int, key: int) -> np.random.Generator:
    """Independent child stream of (seed, key).

    Used to decouple the init / shuffle / augmentation draws so that adding
    consumers to one stream never perturbs the others.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


_WORKERS = len(os.sched_getaffinity(0))


def _new_pool() -> None:
    """Threads start on first use, not at import. A forked child inherits the
    pool but not its threads, so it gets a pool of its own."""
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS)


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def over_rows(fn, rows: int) -> None:
    """Run fn(r0, r1) on one contiguous slice of [0, rows) per worker; wait for all.

    fn must touch only rows r0:r1 of arrays its caller allocated. An
    exception raised in any slice is re-raised here after every slice ends.
    """
    cuts = [rows * i // _WORKERS for i in range(_WORKERS + 1)]
    futures = [_POOL.submit(fn, a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    wait(futures)
    for f in futures:
        f.result()


def _flat_rows(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


def affine_map(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Linear map over the channel axis: out[..., o] = sum_i w[o, i] * x[..., i] + bias[o].

    Any number of leading axes is allowed (batch, points, neighbors);
    rows are independent.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise DimensionError(f"affine_map: input {x.shape} incompatible with weight {w.shape}")
    acc = _flat_rows(x).astype(np.float64, copy=False) @ w.astype(np.float64, copy=False).T
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (w.shape[0],):
            raise DimensionError(f"affine_map: bias {bias.shape} incompatible with weight {w.shape}")
        acc += bias.astype(np.float64, copy=False)
    return acc.reshape(x.shape[:-1] + (w.shape[0],)).astype(x.dtype, copy=False)


def pairwise_l1_neg(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Negative L1 distance between every input row and every weight row.

    out[..., o] = -sum_i |x[..., i] - w[o, i]|. Always <= 0, and exactly 0
    only where an input row matches a weight row elementwise.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise DimensionError(f"pairwise_l1_neg: input {x.shape} incompatible with weight {w.shape}")
    xf = _flat_rows(x).astype(np.float64, copy=False)
    wf = w.astype(np.float64, copy=False)
    d = np.empty((xf.shape[0], wf.shape[0]))
    out = np.empty(d.shape, x.dtype)

    def rows(a, b):
        cdist(xf[a:b], wf, "cityblock", out=d[a:b])
        np.negative(d[a:b], out=out[a:b], casting="unsafe")  # rounds as astype(x.dtype)

    over_rows(rows, xf.shape[0])
    return out.reshape(x.shape[:-1] + (w.shape[0],))


def global_max_pool(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channelwise max over the point axis of [batch, points, channels].

    Returns (pooled [batch, channels], argmax point indices) so the caller
    can route gradients. Ties resolve to the lowest point index.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise DimensionError(f"global_max_pool expects [batch, points, channels], got {x.shape}")
    if x.shape[1] == 0:
        raise EmptyInputError("global_max_pool: empty point axis")
    arg = np.argmax(x, axis=1)  # first occurrence == lowest index
    pooled = np.take_along_axis(x, arg[:, None, :], axis=1)[:, 0, :]
    return pooled, arg


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-softmax over the batch and its logits gradient.

    Gradient is (softmax - onehot) / batch. Internals run in float64 with
    max subtraction so finite-difference checks stay tight.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise DimensionError(f"softmax_cross_entropy: logits {logits.shape} vs labels {labels.shape}")
    b, k = logits.shape
    if b == 0:
        raise EmptyInputError("softmax_cross_entropy: empty batch")
    if labels.dtype.kind not in "iu" or np.any((labels < 0) | (labels >= k)):
        raise LabelError(f"labels must be integers in [0, {k})")
    z = logits.astype(np.float64, copy=False)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(b)
    loss = float(np.mean(lse - z[rows, labels]))
    p = np.exp(z - lse[:, None])
    p[rows, labels] -= 1.0
    dlogits = (p / b).astype(logits.dtype, copy=False)
    return loss, dlogits
