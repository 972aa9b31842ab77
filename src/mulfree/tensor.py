"""Dense tensor kernels and deterministic RNG streams.

All network state lives in plain C-contiguous numpy arrays, float32 by
convention. Kernels are dtype-preserving (float64 in gives float64 out,
which the gradient-check suite relies on), and the affine and L1
reductions always accumulate in float64 regardless of storage dtype so
that a float32 result is rounded exactly once.

Memory rule: every array of BLOCK_BYTES or more that a training step, an
augmentation, an optimizer step or an eval forward uses for less than the
step comes from the block pool (`empty`, `cast`, see `BlockPool`) and is
filled with `out=`; freed, an array of that size would be a new `mmap`
whose pages the OS zeroes and faults in again on the next step. Model
state that outlives a step (parameters, their gradients, optimizer
moments) stays with malloc, so that it never splits the pool's free memory.

Threading rule: the adder kernels (`pairwise_l1_neg` and the input
gradient of `layers.AdderLinear`) split their input rows into one
contiguous slice per core in the process's affinity mask and run the
slices on a shared thread pool. Each row is computed with exactly the
operations, in exactly the order, of a single-threaded pass, so results
are bit-identical for any core count. The caller takes every output and
every scratch array the size of the input (or, for dyT, of dy) from the
block pool, and a worker writes only its own rows of them; a worker
allocates nothing else but per-block scratch under BLOCK_BYTES, which
malloc serves from its heap below the default mmap threshold, so it
neither maps nor faults in fresh pages. Workers call no public `mulfree`
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

import bisect
import math
import mmap
import os
import weakref
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionError, EmptyInputError, LabelError

__all__ = [
    "make_rng",
    "substream",
    "BlockPool",
    "POOL",
    "empty",
    "cast",
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
BLOCK_BYTES = 128 * 1024  # glibc's default mmap threshold
REGION_BYTES = 256 * 1024 * 1024  # address space only: pages count once touched
ALIGN_BYTES = 64  # a cache line
TILE_BYTES = 512 * 1024  # a channel tile and its two scratch twins fit a 2 MiB L2


def _new_threads() -> None:
    """Threads start on first use, not at import. A forked child inherits the
    executor but not its threads, so it gets an executor of its own."""
    global _THREADS
    _THREADS = ThreadPoolExecutor(_WORKERS)


_new_threads()
os.register_at_fork(after_in_child=_new_threads)


class BlockPool:
    """Recycled memory for the arrays of training and eval steps.

    An array of BLOCK_BYTES or more is a view on a block carved from one of
    the pool's regions: private anonymous mappings of REGION_BYTES (or of
    one request, if larger) whose pages the OS faults in on first touch. A
    block comes back when the last array or view on it dies and joins its
    free neighbours, so memory one stage frees serves whatever size a later
    stage asks for, at any batch shape. `empty` takes the smallest free range
    below a region's touched extent that fits, else the range at the top of
    the first region with room, growing the touched extent if it must: a
    miss, counted in `misses`. Leaving the top for last makes a step place
    its blocks as the step before it did, so a repeated step takes no miss
    and faults in no page, while the pool holds about the step's own peak of
    live arrays. A smaller array comes from malloc's heap, which recycles it
    without faults. `trim` gives the pages of unused regions back to the OS.

    The finalizer sits on the `np.frombuffer` array: numpy makes it the base
    of every view cut from it, however deep, while a finalizer on the
    reshaped result would fire with a slice still alive. A finalizer only
    queues the block, since it may run on any thread and inside `empty`;
    `empty`, called from one thread at a time, files the queue first.
    """

    def __init__(self):
        self.regions: list[mmap.mmap] = []
        self.touched: list[int] = []  # per region: the OS has faulted in [0, touched)
        self.free: list[list[tuple[int, int]]] = []  # per region: sorted (offset, size)
        self.misses = 0
        self._returned: list[tuple[int, int, int]] = []

    def empty(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        shape = tuple(shape) if np.iterable(shape) else (shape,)
        count = math.prod(shape)
        if count * dtype.itemsize < BLOCK_BYTES:
            return np.empty(shape, dtype)
        size = -(-count * dtype.itemsize // ALIGN_BYTES) * ALIGN_BYTES
        r, off = self._take(size)
        arr = np.frombuffer(memoryview(self.regions[r])[off : off + size], dtype, count)
        weakref.finalize(arr, self._returned.append, (r, off, size))
        return arr.reshape(shape)

    def trim(self) -> None:
        """Give the pages of every region that holds no live block back to the OS."""
        self._file_returned()
        for r, region in enumerate(self.regions):
            if self.touched[r] and self.free[r] == [(0, self.touched[r])]:
                region.madvise(mmap.MADV_DONTNEED)
                self.touched[r] = 0
                self.free[r] = []

    def _take(self, size: int) -> tuple[int, int]:
        self._file_returned()
        fits = [(n, r, i) for r, ranges in enumerate(self.free)
                for i, (off, n) in enumerate(ranges)
                if n >= size and off + n < self.touched[r]]
        if fits:
            n, r, i = min(fits)
            off = self.free[r][i][0]
            if n == size:
                del self.free[r][i]
            else:
                self.free[r][i] = (off + size, n - size)
            return r, off
        for r, ranges in enumerate(self.free):
            top = self.touched[r]
            start = ranges[-1][0] if ranges and sum(ranges[-1]) == top else top
            if start + size <= len(self.regions[r]):
                if start < top:
                    ranges.pop()
                if start + size < top:
                    ranges.append((start + size, top - start - size))
                elif start + size > top:
                    self.misses += 1
                    self.touched[r] = start + size
                return r, start
        self.misses += 1
        self.regions.append(mmap.mmap(-1, max(REGION_BYTES, size),
                                      flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS))
        self.touched.append(size)
        self.free.append([])
        return len(self.regions) - 1, 0

    def _file_returned(self) -> None:
        while self._returned:
            self._give_back(*self._returned.pop())

    def _give_back(self, r: int, off: int, size: int) -> None:
        ranges = self.free[r]
        i = bisect.bisect(ranges, (off,))
        if i < len(ranges) and ranges[i][0] == off + size:
            size += ranges.pop(i)[1]
        if i and sum(ranges[i - 1]) == off:
            ranges[i - 1] = (ranges[i - 1][0], ranges[i - 1][1] + size)
        else:
            ranges.insert(i, (off, size))


POOL = BlockPool()


def empty(shape, dtype) -> np.ndarray:
    """An uninitialized C-contiguous array from the process's pool, `POOL`."""
    return POOL.empty(shape, dtype)


def cast(x: np.ndarray, dtype) -> np.ndarray:
    """x itself if it has dtype, else a pooled C-contiguous copy rounded as astype."""
    if x.dtype == dtype:
        return x
    out = empty(x.shape, dtype)
    np.copyto(out, x, casting="unsafe")
    return out


def over_rows(fn, rows: int) -> None:
    """Run fn(r0, r1) on one contiguous slice of [0, rows) per worker; wait for all.

    fn must touch only rows r0:r1 of arrays its caller took from the pool. An
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
    xf = _flat_rows(x)
    acc = np.matmul(cast(xf, np.float64), cast(w, np.float64).T,
                    out=empty((xf.shape[0], w.shape[0]), np.float64))
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (w.shape[0],):
            raise DimensionError(f"affine_map: bias {bias.shape} incompatible with weight {w.shape}")
        acc += bias.astype(np.float64, copy=False)
    return cast(acc, x.dtype).reshape(x.shape[:-1] + (w.shape[0],))


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
    wf = cast(w, np.float64)
    out = empty((xf.shape[0], wf.shape[0]), x.dtype)
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

    The argmax runs along the last axis of a pooled [batch, channels,
    points] copy, the copy numpy's argmax would make over axis 1 itself,
    and the maxima are gathered from it by flat index.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise DimensionError(f"global_max_pool expects [batch, points, channels], got {x.shape}")
    if x.shape[1] == 0:
        raise EmptyInputError("global_max_pool: empty point axis")
    b, n, c = x.shape
    xt = empty((b, c, n), x.dtype)
    np.copyto(xt, x.transpose(0, 2, 1))
    arg = np.argmax(xt, axis=2, out=empty((b, c), np.intp))  # first occurrence == lowest index
    flat = np.add(arg, np.arange(0, b * c * n, c * n)[:, None], out=empty((b, c), np.intp))
    flat += np.arange(0, c * n, n)
    pooled = np.take(xt, flat, out=empty((b, c), x.dtype), mode="clip")
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
