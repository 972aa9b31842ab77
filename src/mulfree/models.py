"""Model builders for the four classifier variants.

Every variant shares one graph: a k-NN local embedding (four pointwise
layers with a neighbor max-pool after the second), a two-layer encoder
that re-concatenates global xyz coordinates before each layer, a global
max-pool, and a fully connected head. Variants differ only in which
linear family the embedding/encoder layers use; the head is always
multiplication-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DimensionError
from .layers import (AdderLinear, BatchNorm, MaxPool, MulLinear, ReLU,
                     ShiftLinear, concat_coords)

VARIANTS = ("mul", "shift", "add", "sa")

_LINEAR = {"mul": MulLinear, "shift": ShiftLinear, "adder": AdderLinear}


@dataclass
class ModelConfig:
    """Architecture hyperparameters; defaults target the full benchmark scale."""

    variant: str = "sa"
    embed_widths: tuple = (64, 64, 128, 256)
    encoder_widths: tuple = (512, 1024)
    head_widths: tuple = (512, 256)
    num_classes: int = 40
    knn_k: int = 16
    points_in: int = 1024


def layer_kind_sequence(variant: str) -> list[str]:
    """Linear-family kinds of the 4 embedding + 2 encoder layers, in depth order."""
    if variant == "mul":
        return ["mul"] * 6
    if variant == "shift":
        return ["shift"] * 6
    if variant == "add":
        return ["adder"] * 6
    if variant == "sa":
        # interleave starts with shift: embedding [shift, adder] * 2, encoder [shift, adder]
        return ["shift", "adder", "shift", "adder", "shift", "adder"]
    raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def knn_group(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors of each point, per cloud.

    Contract: self first, then ascending exact float64 squared distance of
    the float32 coordinates, ties to the lower index. A per-cloud cKDTree
    proposes m candidates; they are ranked exactly by (distance, index).
    The tree sums the same float64 squares in the same order, so its window
    holds the m nearest; only a tie at the window's edge can hide a
    neighbor, and then the window doubles (m == n always ends it).
    """
    points = np.asarray(points, dtype=np.float32)
    if points.ndim != 3 or points.shape[-1] != 3:
        raise DimensionError(f"knn_group expects [batch, points, 3], got {points.shape}")
    b, n, _ = points.shape
    if not 1 <= k <= n:
        raise DimensionError(f"knn_group: k={k} outside [1, {n}]")
    rows = np.arange(n)[:, None]
    out = np.empty((b, n, k), np.int64)
    for c, cloud in enumerate(points.astype(np.float64)):
        tree, m = cKDTree(cloud), min(n, k + 2)
        while True:
            cand = tree.query(cloud, m)[1].reshape(n, m)
            diff = cloud[cand] - cloud[:, None, :]
            d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2
            d2[cand == rows] = -1.0  # below any real distance, so self ranks first
            order = np.lexsort((cand, d2))
            ranked = np.take_along_axis(d2, order, axis=-1)
            if m == n or np.all(ranked[:, k - 1] < ranked[:, -1]):
                break
            m = min(n, 2 * m)
        out[c] = np.take_along_axis(cand, order[:, :k], axis=-1)
    return out


class LinearBlock:
    """Variant linear layer + batch norm + ReLU."""

    def __init__(self, kind: str, c_in: int, c_out: int, rng, name: str):
        self.name = name
        self.linear = _LINEAR[kind](c_in, c_out, rng, name=name)
        self.norm = BatchNorm(c_out, name=f"{name}.bn")
        self.act = ReLU()

    def forward(self, x, train: bool, fixed_shift: bool = False):
        if fixed_shift and not train and isinstance(self.linear, ShiftLinear):
            y = self.linear.forward_fixed(x)
        else:
            y = self.linear.forward(x, train)
        return self.act.forward(self.norm.forward(y, train), train)

    def backward(self, dy, need_input_grad: bool = True):
        d = self.act.backward(dy)
        d = self.norm.backward(d)
        return self.linear.backward(d, need_input_grad)

    def params(self):
        return self.linear.params() + self.norm.params()


class PointCloudClassifier:
    """Shared four-stage classifier; see the module docstring for the graph."""

    def __init__(self, cfg: ModelConfig, rng):
        if len(cfg.embed_widths) != 4 or len(cfg.encoder_widths) != 2:
            raise ConfigError("expected 4 embedding widths and 2 encoder widths")
        if min(*cfg.embed_widths, *cfg.encoder_widths, cfg.num_classes, cfg.knn_k) < 1:
            raise ConfigError("widths, classes and knn_k must be positive")
        self.cfg = cfg
        kinds = layer_kind_sequence(cfg.variant)
        e1, e2, e3, e4 = cfg.embed_widths
        c1, c2 = cfg.encoder_widths

        # neighbor features are [offset | center] = 6 channels
        self.embed = [
            LinearBlock(kinds[0], 6, e1, rng, "embed1"),
            LinearBlock(kinds[1], e1, e2, rng, "embed2"),
            LinearBlock(kinds[2], e2, e3, rng, "embed3"),
            LinearBlock(kinds[3], e3, e4, rng, "embed4"),
        ]
        self.neighbor_pool = MaxPool()
        self.encoder = [
            LinearBlock(kinds[4], e4 + 3, c1, rng, "encoder1"),
            LinearBlock(kinds[5], c1 + 3, c2, rng, "encoder2"),
        ]
        self.global_pool = MaxPool()

        self.head = []
        h_in = c2
        for i, h in enumerate(cfg.head_widths):
            self.head.append((MulLinear(h_in, h, rng, name=f"head{i + 1}"), ReLU()))
            h_in = h
        self.head_out = MulLinear(h_in, cfg.num_classes, rng, name="head_out")

        self.last_pooled: np.ndarray | None = None

    # --- plumbing ---

    def blocks(self) -> list[LinearBlock]:
        return self.embed + self.encoder

    def linear_layers(self):
        """(name, layer) for every linear layer, embedding/encoder first, then head."""
        out = [(b.name, b.linear) for b in self.blocks()]
        out += [(lin.name, lin) for lin, _ in self.head]
        out.append((self.head_out.name, self.head_out))
        return out

    def instrumented_layers(self):
        """The embedding/encoder linear layers the gradient reports cover."""
        return [(b.name, b.linear) for b in self.blocks()]

    def parameters(self):
        params = []
        for b in self.blocks():
            params.extend(b.params())
        for lin, _ in self.head:
            params.extend(lin.params())
        params.extend(self.head_out.params())
        return params

    def norm_buffers(self):
        """(name, array) pairs of the running batch-norm statistics."""
        out = []
        for b in self.blocks():
            out.append((f"{b.norm.name}.running_mean", b.norm.running_mean))
            out.append((f"{b.norm.name}.running_var", b.norm.running_var))
        return out

    def state_items(self):
        """All persistent tensors: trainable parameters plus running norm stats."""
        return [(p.name, p.data) for p in self.parameters()] + self.norm_buffers()

    def load_state(self, mapping: dict) -> None:
        """Assign saved tensors by name; missing names or shape drift raise ConfigError."""
        for p in self.parameters():
            arr = mapping.get(p.name)
            if arr is None:
                raise ConfigError(f"checkpoint is missing tensor {p.name!r}")
            if arr.shape != p.data.shape:
                raise ConfigError(
                    f"checkpoint tensor {p.name!r} has shape {arr.shape}, model expects {p.data.shape}")
            p.data = arr.astype(np.float32, copy=False)
        for b in self.blocks():
            for attr in ("running_mean", "running_var"):
                name = f"{b.norm.name}.{attr}"
                arr = mapping.get(name)
                if arr is None:
                    raise ConfigError(f"checkpoint is missing tensor {name!r}")
                setattr(b.norm, attr, arr.astype(np.float32, copy=False))

    def parameter_count(self, include_bias: bool = True) -> int:
        total = 0
        for p in self.parameters():
            if not include_bias and p.name.endswith(".b"):
                continue
            total += p.data.size
        return total

    def kind_sequence(self) -> list[str]:
        return [b.linear.kind for b in self.blocks()]

    # --- forward / backward ---

    def forward(self, points: np.ndarray, train: bool = False,
                fixed_shift: bool = False, neighbor_idx: np.ndarray | None = None
                ) -> np.ndarray:
        points = np.asarray(points)
        if points.ndim != 3 or points.shape[-1] != 3:
            raise DimensionError(f"forward expects [batch, points, 3], got {points.shape}")
        # neighbor_idx lets callers reuse grouping when the geometry is unchanged
        idx = knn_group(points, self.cfg.knn_k) if neighbor_idx is None else neighbor_idx
        batch_ix = np.arange(points.shape[0])[:, None, None]
        neigh = points[batch_ix, idx]  # [b, n, k, 3]
        center = points[:, :, None, :]
        feats = np.concatenate(
            [neigh - center, np.broadcast_to(center, neigh.shape)], axis=-1)

        x = self.embed[0].forward(feats, train, fixed_shift)
        x = self.embed[1].forward(x, train, fixed_shift)
        x = self.neighbor_pool.forward(x, train)  # [b, n, e2]
        x = self.embed[2].forward(x, train, fixed_shift)
        x = self.embed[3].forward(x, train, fixed_shift)
        for blk in self.encoder:
            x = blk.forward(concat_coords(x, points), train, fixed_shift)
        pooled = self.global_pool.forward(x, train)  # [b, c2]
        self.last_pooled = pooled

        h = pooled
        for lin, act in self.head:
            h = act.forward(lin.forward(h, train), train)
        return self.head_out.forward(h, train)

    def backward(self, dlogits: np.ndarray) -> None:
        d = self.head_out.backward(dlogits)
        for lin, act in reversed(self.head):
            d = lin.backward(act.backward(d))
        d = self.global_pool.backward(d)
        for blk in reversed(self.encoder):
            d = blk.backward(d)[..., :-3]  # drop the concatenated coordinate channels
        d = self.embed[3].backward(d)
        d = self.embed[2].backward(d)
        d = self.neighbor_pool.backward(d)
        d = self.embed[1].backward(d)
        self.embed[0].backward(d, need_input_grad=False)  # geometry needs no gradient

    def diagnose(self, points: np.ndarray) -> str | None:
        """Re-run a forward naming the first stage with a non-finite output."""
        x = np.asarray(points)
        if not np.all(np.isfinite(x)):
            return "input"
        idx = knn_group(x, self.cfg.knn_k)
        batch_ix = np.arange(x.shape[0])[:, None, None]
        neigh = x[batch_ix, idx]
        center = x[:, :, None, :]
        cur = np.concatenate([neigh - center, np.broadcast_to(center, neigh.shape)], axis=-1)
        stages = [(self.embed[0].name, self.embed[0]), (self.embed[1].name, self.embed[1]),
                  ("neighbor_pool", self.neighbor_pool)]
        stages += [(b.name, b) for b in self.embed[2:]]
        for name, stage in stages:
            cur = stage.forward(cur, train=False)
            if not np.all(np.isfinite(cur)):
                return name
        for blk in self.encoder:
            cur = blk.forward(concat_coords(cur, x), train=False)
            if not np.all(np.isfinite(cur)):
                return blk.name
        cur = self.global_pool.forward(cur, train=False)
        for lin, act in self.head:
            cur = act.forward(lin.forward(cur, train=False), train=False)
            if not np.all(np.isfinite(cur)):
                return lin.name
        cur = self.head_out.forward(cur, train=False)
        if not np.all(np.isfinite(cur)):
            return self.head_out.name
        return None


def build_model(cfg: ModelConfig, rng) -> PointCloudClassifier:
    """Construct the classifier for cfg.variant with seeded initialization."""
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {cfg.variant!r}; expected one of {VARIANTS}")
    return PointCloudClassifier(cfg, rng)
