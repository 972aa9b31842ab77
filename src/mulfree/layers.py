"""Forward/backward layer units.

Three linear families with their gradient rules (multiplication baseline,
power-of-two shift, L1 adder), plus batch normalization, ReLU, max pooling
and coordinate concatenation. A train-mode forward stores the layer's
context on the instance; backward consumes it and fills ``Param.grad``. An
eval-mode forward stores none and drops a pending one, so an evaluation
leaves no arrays behind in the layers. Calling backward without a fresh
train-mode forward raises ContextError.

No stage may read an element of an array it allocated with `np.empty`
before writing it: malloc hands back memory holding whatever the previous
step or stage left there (see the memory rule in `tensor`).
"""

from __future__ import annotations

import numpy as np

from . import shiftquant, tensor
from .errors import ContextError, DegenerateBatchError, DimensionError


class Param:
    """Trainable tensor with its latest gradient and optimizer-routing kind."""

    __slots__ = ("name", "data", "grad", "kind")

    def __init__(self, name: str, data: np.ndarray, kind: str):
        self.name = name
        self.data = data
        self.grad: np.ndarray | None = None
        self.kind = kind

    def __repr__(self):
        return f"Param({self.name!r}, shape={tuple(self.data.shape)}, kind={self.kind!r})"


def quantize_shift(w_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power-of-two quantization: clamp to [-1, 1], then sign and rounded log2 exponent.

    Returns (s, p, w_q) with s in {-1, +1}, integer p in [-15, 0] and
    w_q = s * 2**p exactly. Zeros map to the smallest magnitude (s=+1,
    p=-15) because the 5-bit code has no zero. log2 magnitudes round half
    away from zero. A NaN weight gives NaN in w_q and (+1, -15) in (s, p).
    """
    w = np.asarray(w_raw)
    clamped = np.clip(w, -1.0, 1.0)
    s = np.where(clamped < 0, -1.0, 1.0)
    mag = np.abs(clamped).astype(np.float64, copy=False)
    with np.errstate(divide="ignore"):
        lg = np.log2(mag)
    # lg <= 0 after the clamp, so half-away-from-zero is -floor(0.5 - lg)
    p = np.where(mag > 0.0, -np.floor(0.5 - lg), -15.0)
    p = np.clip(p, -15.0, 0.0)
    w_q = np.where(np.isnan(w), np.nan, s * np.exp2(p)).astype(w.dtype, copy=False)
    return s.astype(np.int8), p.astype(np.int8), w_q


def uniform_linear_init(rng: np.random.Generator, c_out: int, c_in: int) -> np.ndarray:
    """U(-1/sqrt(c_in), 1/sqrt(c_in)); also respects the shift layers' unit clamp."""
    bound = 1.0 / np.sqrt(c_in)
    return rng.uniform(-bound, bound, size=(c_out, c_in)).astype(np.float32)


def truncated_normal_init(rng: np.random.Generator, c_out: int, c_in: int) -> np.ndarray:
    """N(0, 1) truncated to [-2, 2], matching batch-norm output scale."""
    out = rng.standard_normal((c_out, c_in))
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out.astype(np.float32)


class Layer:
    """Base: parameter listing and one-shot context bookkeeping."""

    name = "layer"

    def params(self) -> list[Param]:
        return []

    def _take_ctx(self):
        if getattr(self, "_ctx", None) is None:
            raise ContextError(f"{self.name}: backward without a pending forward context")
        ctx, self._ctx = self._ctx, None
        return ctx


class MulLinear(Layer):
    """Standard affine layer with exact gradients (the multiplication baseline)."""

    kind = "mul"

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator,
                 bias: bool = True, name: str = "mul"):
        self.name = name
        self.c_in, self.c_out = c_in, c_out
        self.w = Param(f"{name}.w", uniform_linear_init(rng, c_out, c_in), "mul")
        self.b = Param(f"{name}.b", np.zeros(c_out, np.float32), "mul") if bias else None
        self._ctx = None

    def params(self):
        return [self.w] if self.b is None else [self.w, self.b]

    def forward(self, x, train: bool = True):
        y = tensor.affine_map(x, self.w.data, None if self.b is None else self.b.data)
        self._ctx = x if train else None
        return y

    def backward(self, dy, need_input_grad: bool = True):
        x = self._take_ctx()
        xf = x.reshape(-1, self.c_in)
        dyf = dy.reshape(-1, self.c_out)
        self.w.grad = dyf.T @ xf
        if self.b is not None:
            self.b.grad = tensor.column_sum(dyf)
        if not need_input_grad:
            return None
        return (dyf @ self.w.data).reshape(x.shape)


class ShiftLinear(Layer):
    """Affine layer over power-of-two weights, fake-quantized on every forward.

    The float master weights are kept; quantization exists only in the
    forward pass. Backward is straight-through: the weight gradient is
    computed as if quantization were identity, while the input gradient
    uses the quantized weights actually applied.
    """

    kind = "shift"

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, name: str = "shift"):
        self.name = name
        self.c_in, self.c_out = c_in, c_out
        self.w = Param(f"{name}.w", uniform_linear_init(rng, c_out, c_in), "shift")
        self.s = self.p = self.w_q = None
        self.fixed_overflows = 0
        self._ctx = None

    def params(self):
        return [self.w]

    def quantize(self):
        self.s, self.p, self.w_q = quantize_shift(self.w.data)
        return self.w_q

    def forward(self, x, train: bool = True):
        w_q = self.quantize()
        self._ctx = (x, w_q) if train else None
        return tensor.affine_map(x, w_q)

    def forward_fixed(self, x):
        """Inference path through the Q16.16 integer kernel (result dequantized)."""
        self.quantize()
        y, overflows = shiftquant.shift_affine_fixed(x, self.s, self.p)
        self.fixed_overflows += overflows
        self._ctx = None
        return y

    def backward(self, dy, need_input_grad: bool = True):
        x, w_q = self._take_ctx()
        xf = x.reshape(-1, self.c_in)
        dyf = dy.reshape(-1, self.c_out)
        self.w.grad = dyf.T @ xf  # straight-through: d(w_q)/d(w) taken as 1
        if not need_input_grad:
            return None
        return (dyf @ w_q).reshape(x.shape)


class AdderLinear(Layer):
    """L1 relevance layer: output is the negative city-block distance to each weight row.

    Backward uses the smoothed rules: the weight path takes the raw
    difference (x - w) while the input path clips it to [-1, 1] so that
    gradients accumulated through deep stacks stay bounded.

    The input gradient runs in transposed blocks. The caller preallocates
    flat scratch `xt` and `tt` of x.size elements and makes dyT, the
    contiguous [c_out, rows] transpose of dy, once. The worker for rows
    [a, b) views element range [c_in*a, c_in*b) of `xt` and `tt` as
    contiguous [c_in, b-a] blocks and uses its own output rows dx[a:b],
    reshaped to [c_in, b-a], as the accumulator. It copies x[a:b].T into its
    `xt` block and splits the block's c_in channels into equal tiles of at
    most tensor.TILE_BYTES. Per tile, per output channel o in order, it
    subtracts the tile's part of column w[o] of w.T, clips, multiplies by the
    contiguous row dyT[o, a:b] and subtracts from the accumulator; last it
    copies the block through `tt` back to dx[a:b] in row-major order. Every
    element sees the operations of the single-threaded per-channel loop in
    the same order, so the result is bit-identical to it, while each pass
    runs along a row of b-a contiguous elements however few channels the
    layer has, and a tile stays in cache across all c_out passes. The passes
    run with numpy's ufunc buffer no longer than a row: with a longer one,
    numpy copies the broadcast w column and dyT row into the buffer across
    row ends (an 18x4096 float32 subtract took 36 us instead of 12).
    """

    kind = "adder"

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, name: str = "adder"):
        self.name = name
        self.c_in, self.c_out = c_in, c_out
        self.w = Param(f"{name}.w", truncated_normal_init(rng, c_out, c_in), "adder")
        self._ctx = None

    def params(self):
        return [self.w]

    def forward(self, x, train: bool = True):
        y = tensor.pairwise_l1_neg(x, self.w.data)
        self._ctx = x if train else None
        return y

    def backward(self, dy, need_input_grad: bool = True):
        x = self._take_ctx()
        dt = np.result_type(x.dtype, dy.dtype)
        xf = x.reshape(-1, self.c_in).astype(dt, copy=False)
        dyf = dy.reshape(-1, self.c_out).astype(dt, copy=False)
        w = self.w.data.astype(dt, copy=False)
        # dW[o,i] = sum_r dy[r,o] * (x[r,i] - w[o,i]) splits into two dense terms
        self.w.grad = dyf.T @ xf - tensor.column_sum(dyf)[:, None] * w
        if not need_input_grad:
            return None
        # dX[r,i] = -sum_o dy[r,o] * clip(x[r,i] - w[o,i]); one pass per output
        # channel over each channel tile of a transposed row block, so every
        # element sees the same operations in the same order
        c_in = self.c_in
        dx = np.empty(xf.shape, dt)
        xt = np.empty(xf.size, dt)
        tt = np.empty(xf.size, dt)
        dyt = np.ascontiguousarray(dyf.T)

        def rows(a, b):
            n = b - a
            xs = xt[c_in * a : c_in * b].reshape(c_in, n)
            ts = tt[c_in * a : c_in * b].reshape(c_in, n)
            acc = dx[a:b].reshape(c_in, n)
            xs[...] = xf[a:b].T
            acc.fill(0)
            tiles = -(-c_in // max(1, tensor.TILE_BYTES // (n * dx.itemsize)))
            cuts = [c_in * i // tiles for i in range(tiles + 1)]
            with np.errstate():  # restores the ufunc buffer size on exit
                # a buffer no longer than a row (see the class docstring);
                # numpy takes only multiples of 16
                np.setbufsize(min(np.getbufsize(), max(16, n - n % 16)))
                for c0, c1 in zip(cuts, cuts[1:]):
                    xk, tk, ak, wk = xs[c0:c1], ts[c0:c1], acc[c0:c1], w[:, c0:c1, None]
                    for o in range(self.c_out):
                        np.subtract(xk, wk[o], out=tk)
                        np.clip(tk, -1.0, 1.0, out=tk)
                        tk *= dyt[o, a:b]
                        ak -= tk
            ts[...] = acc
            dx[a:b] = ts.T

        tensor.over_rows(rows, xf.shape[0])
        return dx.reshape(x.shape)


class BatchNorm(Layer):
    """Per-channel normalization over every non-channel axis.

    Training mode normalizes with batch statistics (eps 1e-5) and keeps
    running estimates with momentum 0.1; eval mode applies the running
    estimates elementwise. Training arithmetic runs in the dtype of the
    input (forward) and of the gradient (backward); gamma and beta are cast
    to it, a no-op or an exact widening for the float32 parameters.
    """

    kind = "norm"

    def __init__(self, channels: int, name: str = "bn"):
        self.name = name
        self.channels = channels
        self.gamma = Param(f"{name}.gamma", np.ones(channels, np.float32), "norm")
        self.beta = Param(f"{name}.beta", np.zeros(channels, np.float32), "norm")
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)
        self.momentum = 0.1
        self.eps = 1e-5
        self._ctx = None

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x, train: bool = True):
        if x.shape[-1] != self.channels:
            raise DimensionError(f"{self.name}: {x.shape} has channel != {self.channels}")
        xf = x.reshape(-1, self.channels)
        if train:
            m = xf.shape[0]
            if m < 2:
                raise DegenerateBatchError(f"{self.name}: variance undefined over {m} row(s)")
            # column sums and divides, in the order of mean(axis=0), var(axis=0)
            mean = np.true_divide(tensor.column_sum(xf), m)
            xc = xf - mean
            sq = np.multiply(xc, xc)
            var = np.true_divide(tensor.column_sum(sq), m)
            inv = 1.0 / np.sqrt(var + self.eps)
            xhat = np.multiply(xc, inv, out=xc)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean).astype(np.float32)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var * m / (m - 1)).astype(np.float32)
            self._ctx = (xhat, inv)
            y = np.multiply(self.gamma.data.astype(xhat.dtype, copy=False), xhat, out=sq)
            y += self.beta.data.astype(xhat.dtype, copy=False)
        else:
            # gamma * ((x - mean) * inv) + beta in one buffer; a single
            # multiply by gamma commutes, so the bits are the same
            y = xf - self.running_mean
            y *= 1.0 / np.sqrt(self.running_var + self.eps)
            y *= self.gamma.data
            y += self.beta.data
        return y.reshape(x.shape).astype(x.dtype, copy=False)

    def backward(self, dy, need_input_grad: bool = True):
        xhat, inv = self._take_ctx()
        dyf = dy.reshape(-1, self.channels)
        m = dyf.shape[0]
        t = np.multiply(dyf, xhat)
        self.gamma.grad = tensor.column_sum(t)
        self.beta.grad = tensor.column_sum(dyf)
        if not need_input_grad:
            return None
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv, in that
        # order, in two scratch arrays: dxhat and t
        dxhat = np.multiply(dyf, self.gamma.data.astype(dyf.dtype, copy=False))
        proj = np.true_divide(tensor.column_sum(np.multiply(dxhat, xhat, out=t)), m)
        dxhat -= np.true_divide(tensor.column_sum(dxhat), m)
        dxhat -= np.multiply(xhat, proj, out=t)
        dxhat *= inv
        return dxhat.reshape(dy.shape)


class ReLU(Layer):
    name = "relu"

    def forward(self, x, train: bool = True):
        self._ctx = x > 0 if train else None
        return np.maximum(x, 0)

    def backward(self, dy, need_input_grad: bool = True):
        mask = self._take_ctx()
        return dy * mask


class MaxPool(Layer):
    """Max over the next-to-last axis; backward routes to the argmax entries."""

    name = "maxpool"

    def forward(self, x, train: bool = True):
        flat = x.reshape(-1, x.shape[-2], x.shape[-1])
        pooled, arg = tensor.global_max_pool(flat)
        self._ctx = (arg, flat.shape) if train else None
        return pooled.reshape(x.shape[:-2] + (x.shape[-1],))

    def backward(self, dy, need_input_grad: bool = True):
        arg, shape = self._take_ctx()
        dyf = dy.reshape(-1, shape[-1])
        dx = np.zeros(shape, dy.dtype)
        np.put_along_axis(dx, arg[:, None, :], dyf[:, None, :], axis=1)
        return dx.reshape(dy.shape[:-1] + shape[-2:])


def concat_coords(features: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Append xyz coordinates after the feature channels: [..., c] -> [..., c+3]."""
    features = np.asarray(features)
    points = np.asarray(points)
    if features.shape[:-1] != points.shape[:-1] or points.shape[-1] != 3:
        raise DimensionError(f"concat_coords: features {features.shape} vs points {points.shape}")
    return np.concatenate([features, points.astype(features.dtype, copy=False)], axis=-1)
