"""Dense tensor kernels and deterministic RNG streams.

All network state lives in plain C-contiguous numpy arrays, float32 by
convention. Kernels are dtype-preserving (float64 in gives float64 out,
which the gradient-check suite relies on), and the affine and L1
reductions always accumulate in float64 regardless of storage dtype so
that a float32 result is rounded exactly once.

Memory rule: importing this module sets glibc malloc to serve every array
from its heap (`M_MMAP_MAX` 0) and to keep up to TRIM_THRESHOLD_BYTES of
freed heap (`_keep_freed_memory`). By default an array of 128 KiB or more
is a fresh `mmap` and a freed heap top goes back to the OS, so every step
would map its arrays anew and fault in, zeroed, the pages the step before
it freed: thousands of minor faults per desk step. With the setting, a
step's arrays reuse the memory of the step before: a repeated desk step
faults in no fresh pages, and a paper-scale one (batch 32, 1024 points,
k=16: largest array 256 MiB, peak RSS 1.5-1.6 GB) at most some 500, where
a 32 MiB mmap threshold left it some 33,000. A step that frees more than
TRIM_THRESHOLD_BYTES at once gives it all back and faults it in again.
Raising `M_MMAP_THRESHOLD` instead would have to outgrow the largest
array, but mallopt(3) gives 32 MiB as that threshold's upper limit on
64-bit hosts, and a glibc that holds to it refuses more. The setting is
made at import, not by the CLI, so that every caller of the kernels
(tests, benchmarks, the CLI) runs with it. It changes where memory comes
from, never a result; on another libc nothing is set and only the fault
counts differ.

Threading rule: the adder kernels (`pairwise_l1_neg` and the input
gradient of `layers.AdderLinear`) split their input rows into one
contiguous slice per core in the process's affinity mask and run the
slices on a shared thread pool. Each row is computed with exactly the
operations, in exactly the order, of a single-threaded pass, so results
are bit-identical for any core count. The caller allocates every output
and every scratch array the size of the input (or, for dyT, of dy), and a
worker writes only its own rows of them; a worker allocates nothing else
but per-block scratch under BLOCK_BYTES. Workers call no public `mulfree`
names, so tracing that wraps those names sees one thread.

Both kernels run along rows: each pass of the input gradient walks one
worker's rows as a contiguous run per channel (a transposed block), never
a short channel vector, and the forward computes cache-sized row blocks
instead of one full float64 distance matrix. The input gradient reads each
output channel's gradient as a contiguous row of dy transposed (dyT, made
once by the caller), and walks its transposed block in channel tiles of at
most TILE_BYTES, running every output channel over one tile before the
next, so the tile stays in L2 instead of streaming the whole block through
L3 once per output channel. At desk widths (8 to 64 channels) that layout
decides the speed, not the worker count: on a 2-vCPU host the 8192x35->64
input gradient took 13-19 ms on one worker and 15-19 ms on two, while
2048x515->1024 ran x1.8 faster on two.
"""

from __future__ import annotations

import ctypes
import os
import platform
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
    "column_sum",
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
BLOCK_BYTES = 128 * 1024  # a pairwise_l1_neg row block's float64 input copy and distances
TILE_BYTES = 512 * 1024  # a channel tile and its two scratch twins fit a 2 MiB L2
TRIM_THRESHOLD_BYTES = 2**31 - 1  # mallopt's largest int; over a paper-scale step's peak
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4  # glibc's <malloc.h>


def _new_threads() -> None:
    """Threads start on first use, not at import. A forked child inherits the
    executor but not its threads, so it gets an executor of its own."""
    global _THREADS
    _THREADS = ThreadPoolExecutor(_WORKERS)


def _keep_freed_memory() -> None:
    """The malloc setting of the memory rule (module docstring); glibc only."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in ((_M_MMAP_MAX, 0), (_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)):
        if mallopt(param, value) == 0:
            raise OSError(f"mallopt({param}, {value}) failed")


_new_threads()
os.register_at_fork(after_in_child=_new_threads)
_keep_freed_memory()


def over_rows(fn, rows: int) -> None:
    """Run fn(r0, r1) on one contiguous slice of [0, rows) per worker; wait for all.

    fn must touch only rows r0:r1 of arrays its caller allocated. An
    exception raised in any slice is re-raised here after every slice ends.
    """
    cuts = [rows * i // _WORKERS for i in range(_WORKERS + 1)]
    futures = [_THREADS.submit(fn, a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    wait(futures)
    for f in futures:
        f.result()


def column_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) of a 2-D array, bit for bit, in one pass in row order.

    On a C-contiguous array with more than one column numpy's axis-0 sum
    adds whole rows into the result in row order, one short inner loop per
    row; einsum adds them in the same order with far less per-row overhead
    (32768x8 float32: 0.56 -> 0.12 ms). Any other layout falls back to
    numpy's sum, whose order there (pairwise down a contiguous column)
    einsum would not match.
    """
    if x.ndim == 2 and x.shape[1] > 1 and x.flags.c_contiguous:
        return np.einsum("ij->j", x)
    return x.sum(axis=0)


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
    xf = _flat_rows(x)
    wf = w.astype(np.float64, copy=False)
    out = np.empty((xf.shape[0], wf.shape[0]), x.dtype)
    # float64 input copy and distances per block stay under BLOCK_BYTES, so
    # the negation and cast read the distances from cache
    block = max(1, BLOCK_BYTES // max(8, 8 * (xf.shape[1] + wf.shape[0])))

    def rows(a, b):
        n = min(block, b - a)
        xs = np.empty((n, xf.shape[1]))
        ds = np.empty((n, wf.shape[0]))
        for r in range(a, b, n):
            k = min(n, b - r)
            xs[:k] = xf[r : r + k]
            cdist(xs[:k], wf, "cityblock", out=ds[:k])
            np.negative(ds[:k], out=out[r : r + k], casting="unsafe")  # rounds as astype(x.dtype)

    over_rows(rows, xf.shape[0])
    return out.reshape(x.shape[:-1] + (w.shape[0],))


def global_max_pool(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channelwise max over the point axis of [batch, points, channels].

    Returns (pooled [batch, channels], argmax point indices) so the caller
    can route gradients. Ties resolve to the lowest point index.

    The argmax runs along the last axis of a [batch, channels, points]
    copy, the copy numpy's argmax would make over axis 1 itself, and the
    maxima are gathered from it by flat index.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise DimensionError(f"global_max_pool expects [batch, points, channels], got {x.shape}")
    if x.shape[1] == 0:
        raise EmptyInputError("global_max_pool: empty point axis")
    b, n, c = x.shape
    xt = np.ascontiguousarray(x.transpose(0, 2, 1))
    arg = np.argmax(xt, axis=2)  # first occurrence == lowest index
    flat = arg + np.arange(0, b * c * n, c * n)[:, None]
    flat += np.arange(0, c * n, n)
    pooled = np.take(xt, flat, mode="clip")
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
