"""Model builders for the four classifier variants.

Every variant shares one graph: a k-NN local embedding (four pointwise
layers with a neighbor max-pool after the second), a two-layer encoder
that re-concatenates global xyz coordinates before each layer, a global
max-pool, and a fully connected head. Variants differ only in which
linear family the embedding/encoder layers use; the head is always
multiplication-based.

The graph is written down once, as the classifier's ordered `stages`
list of (name, layer) pairs: each linear layer is followed by its
"<name>.bn" batch norm and "<name>.relu", the pools are "neighbor_pool"
and "global_pool", and "encoder<i>.xyz" appends the coordinates. `forward`
runs the list and `backward` runs it reversed. `forward(observe=...)`
hands every stage output to a callback, which the feature export and
the divergence diagnosis use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DimensionError
from .layers import (AdderLinear, BatchNorm, Layer, MaxPool, MulLinear, ReLU,
                     ShiftLinear, concat_coords)

# linear-family kinds of the 4 embedding + 2 encoder layers, in depth order; the
# sa interleave starts with shift: embedding [shift, adder] * 2, encoder [shift, adder]
_KIND_SEQUENCES = {"mul": ["mul"] * 6, "shift": ["shift"] * 6, "add": ["adder"] * 6,
                   "sa": ["shift", "adder"] * 3}
VARIANTS = tuple(_KIND_SEQUENCES)

_LINEAR = {"mul": MulLinear, "shift": ShiftLinear, "adder": AdderLinear}
_LINEAR_TYPES = tuple(_LINEAR.values())


@dataclass
class ModelConfig:
    """Architecture hyperparameters; defaults target the full benchmark scale.
    Checked once, here: a known variant, 4 + 2 widths, every width, the class
    count and knn_k at least 1, and knn_k no more than points_in."""

    variant: str = "sa"
    embed_widths: tuple = (64, 64, 128, 256)
    encoder_widths: tuple = (512, 1024)
    head_widths: tuple = (512, 256)
    num_classes: int = 40
    knn_k: int = 16
    points_in: int = 1024

    def __post_init__(self):
        layer_kind_sequence(self.variant)
        if len(self.embed_widths) != 4 or len(self.encoder_widths) != 2:
            raise ConfigError("expected 4 embedding widths and 2 encoder widths")
        if min(*self.embed_widths, *self.encoder_widths, *self.head_widths,
               self.num_classes, self.knn_k) < 1:
            raise ConfigError("widths, classes and knn_k must be positive")
        if self.knn_k > self.points_in:
            raise ConfigError(f"knn_k {self.knn_k} exceeds points_in {self.points_in}, "
                              "the points of a cloud")


def layer_kind_sequence(variant: str) -> list[str]:
    """The variant's layer kinds; the one check of a variant name."""
    if variant not in _KIND_SEQUENCES:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return list(_KIND_SEQUENCES[variant])


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
            diff = np.take(cloud, cand, axis=0, mode="clip")
            diff -= cloud[:, None, :]
            # the squares summed in the order (x + y) + z
            d2 = np.square(diff[..., 0])
            sq = np.square(diff[..., 1])
            d2 += sq
            d2 += np.square(diff[..., 2], out=sq)
            d2[cand == rows] = -1.0  # below any real distance, so self ranks first
            order = np.lexsort((cand, d2))
            edge = np.take_along_axis(d2, order[:, [k - 1, -1]], axis=-1)
            if m == n or np.all(edge[:, 0] < edge[:, 1]):
                break
            m = min(n, 2 * m)
        np.take(cand, order[:, :k] + rows * m, out=out[c], mode="clip")
    return out


class CoordConcat(Layer):
    """Appends the current batch's xyz (`points`) to every point's features."""

    points = None

    def forward(self, x, train: bool = True):
        return concat_coords(x, self.points)

    def backward(self, dy, need_input_grad: bool = True):
        return dy[..., :-3]  # the coordinates need no gradient


class PointCloudClassifier:
    """Shared four-stage classifier; see the module docstring for the graph."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        self.coords = CoordConcat()
        self.stages: list[tuple[str, Layer]] = []
        kinds = iter(layer_kind_sequence(cfg.variant))

        def block(kind, name, c_in, c_out):
            self.stages.extend([(name, _LINEAR[kind](c_in, c_out, rng, name=name)),
                                (f"{name}.bn", BatchNorm(c_out, name=f"{name}.bn")),
                                (f"{name}.relu", ReLU())])

        c_in = 6  # neighbor features are [offset | center]
        for i, width in enumerate(cfg.embed_widths, 1):
            block(next(kinds), f"embed{i}", c_in, width)
            if i == 2:
                self.stages.append(("neighbor_pool", MaxPool()))
            c_in = width
        for i, width in enumerate(cfg.encoder_widths, 1):
            self.stages.append((f"encoder{i}.xyz", self.coords))
            block(next(kinds), f"encoder{i}", c_in + 3, width)
            c_in = width
        self.stages.append(("global_pool", MaxPool()))
        for i, width in enumerate(cfg.head_widths, 1):
            self.stages.extend([(f"head{i}", MulLinear(c_in, width, rng, name=f"head{i}")),
                                (f"head{i}.relu", ReLU())])
            c_in = width
        self.stages.append(("head_out", MulLinear(c_in, cfg.num_classes, rng, name="head_out")))

    # --- plumbing ---

    def linear_layers(self):
        """(name, layer) for every linear layer, embedding/encoder first, then head."""
        return [(n, l) for n, l in self.stages if isinstance(l, _LINEAR_TYPES)]

    def instrumented_layers(self):
        """The embedding/encoder linear layers the gradient reports cover."""
        return [(n, l) for n, l in self.linear_layers() if not n.startswith("head")]

    def parameters(self):
        return [p for _, layer in self.stages for p in layer.params()]

    def state_items(self):
        """All persistent tensors, in checkpoint order: trainable parameters plus
        running norm stats. Each is the live array, so a checkpoint loads in place."""
        stats = [(f"{norm.name}.{a}", getattr(norm, a)) for _, norm in self.stages
                 if isinstance(norm, BatchNorm) for a in ("running_mean", "running_var")]
        return [(p.name, p.data) for p in self.parameters()] + stats

    # --- forward / backward ---

    def forward(self, points: np.ndarray, train: bool = False,
                fixed_shift: bool = False, observe=None) -> np.ndarray:
        """Logits [b, classes] of [b, points, 3] clouds, each grouped into its
        knn_k nearest neighbors here, the one place a grouping is made.
        fixed_shift runs eval-mode shift layers through the Q16.16 kernel;
        observe(name, output) is called after every stage."""
        points = np.asarray(points)
        if points.ndim != 3 or points.shape[-1] != 3:
            raise DimensionError(f"forward expects [batch, points, 3], got {points.shape}")
        b, n = points.shape[:2]
        idx = knn_group(points, self.cfg.knn_k)
        neigh = np.take(points.reshape(-1, 3), idx + np.arange(0, b * n, n)[:, None, None],
                        axis=0, mode="clip")
        center = points[:, :, None, :]
        x = np.empty(idx.shape + (6,), points.dtype)  # [b, n, k, offset | center]
        np.subtract(neigh, center, out=x[..., :3])
        x[..., 3:] = center
        self.coords.points = points
        for name, layer in self.stages:
            if fixed_shift and not train and isinstance(layer, ShiftLinear):
                x = layer.forward_fixed(x)
            else:
                x = layer.forward(x, train)
            if observe is not None:
                observe(name, x)
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        d = dlogits
        for _, layer in reversed(self.stages[1:]):
            d = layer.backward(d)
        self.stages[0][1].backward(d, need_input_grad=False)  # geometry needs no gradient

    def diagnose(self, points: np.ndarray) -> str | None:
        """Replay a train-mode forward; name the first stage with a non-finite output."""
        if not np.all(np.isfinite(points)):
            return "input"
        bad = []

        def observe(name, out):
            if not bad and not np.all(np.isfinite(out)):
                bad.append(name)

        self.forward(points, train=True, observe=observe)
        return bad[0] if bad else None


def build_model(cfg: ModelConfig, rng) -> PointCloudClassifier:
    """Construct the classifier for cfg.variant with seeded initialization."""
    return PointCloudClassifier(cfg, rng)
