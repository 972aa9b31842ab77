"""Per-layer-type optimization.

Adder weights are updated with modulated SGD: the raw gradient is rescaled
so its root-mean-square equals the constant ETA, which makes one
learning rate work across adder layers whose raw gradient magnitudes vary
by orders of magnitude. Everything else (mul, shift, norm parameters) uses
a bias-corrected first/second-moment optimizer. The whole recipe is the
tables below: RULES maps each layer kind to its optimizer kind,
RATES gives each optimizer kind its cosine learning-rate range, and ETA is
the modulated gradient's RMS. `route_parameters` groups a model's
parameters by RULES and `build_optimizers` pairs each group with its
optimizer and its cosine-annealed rate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)

# layer kind -> optimizer kind
RULES = {"mul": "adaptive_moment", "shift": "adaptive_moment",
         "norm": "adaptive_moment", "adder": "modulated_sgd"}
# optimizer kind -> (learning rate at epoch 0, at the last epoch)
RATES = {"adaptive_moment": (1e-3, 1e-6), "modulated_sgd": (2e-2, 2e-3)}
# RMS of every modulated adder gradient
ETA = 0.2


def modulate_gradient(g: np.ndarray, eta: float) -> np.ndarray:
    """Rescale g so RMS(g) == eta while preserving its direction.

    Equivalent to g * eta * sqrt(n) / ||g||_2 with n the element count.
    An all-zero gradient returns zeros (no update) and logs the event.
    """
    g = np.asarray(g)
    nrm = float(np.linalg.norm(g.astype(np.float64, copy=False)))
    if nrm == 0.0:
        log.warning("modulate_gradient: zero-norm gradient, skipping update")
        return np.zeros_like(g)
    scale = eta * math.sqrt(g.size) / nrm
    return (g * scale).astype(g.dtype, copy=False)


def modulated_sgd_step(w: np.ndarray, g: np.ndarray, lr: float, eta: float) -> np.ndarray:
    """w' = w - lr * modulate_gradient(g, eta); no momentum, no weight decay."""
    return (w - lr * modulate_gradient(g, eta)).astype(w.dtype, copy=False)


@dataclass
class CosineSchedule:
    """Cosine interpolation from lr_start at epoch 0 to lr_end at total_epochs."""

    lr_start: float
    lr_end: float
    total_epochs: int

    def lr_at(self, epoch: float) -> float:
        if not 0 <= epoch <= self.total_epochs:
            raise ConfigError(f"epoch {epoch} outside [0, {self.total_epochs}]")
        if epoch == 0:  # the endpoints are returned exactly
            return self.lr_start
        if epoch == self.total_epochs:
            return self.lr_end
        frac = epoch / self.total_epochs
        return self.lr_end + 0.5 * (self.lr_start - self.lr_end) * (1.0 + math.cos(math.pi * frac))


def route_parameters(model) -> dict[str, list]:
    """Group trainables by optimizer kind, RULES[kind] of the layer that holds them.

    Every parameter lands in exactly one group, in the order of model.parameters();
    an unknown kind raises ConfigError. Only non-empty groups appear.
    """
    groups: dict[str, list] = {}
    for _, layer in model.stages:
        for p in layer.params():
            if layer.kind not in RULES:
                raise ConfigError(f"parameter {p.name} has unrouted kind {layer.kind!r}")
            groups.setdefault(RULES[layer.kind], []).append(p)
    return groups


class AdaptiveMoment:
    """Bias-corrected moment update with (m, v, step count) kept per parameter.

    m and v are updated in place, with two scratch arrays of w's shape per
    step; the new weights are a fresh array, so an array that still holds
    the old weights keeps them. Each operation keeps the order and dtype of
    w - lr * mhat / (sqrt(vhat) + eps).
    """

    kind = "adaptive_moment"

    def __init__(self, params):
        self.params = list(params)
        self.moments = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data), 0)
                        for p in self.params}

    def step(self, lr: float):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for p in self.params:
            if p.grad is None:
                continue
            w = p.data
            g = p.grad.astype(w.dtype, copy=False)
            m, v, t = self.moments[p.name]
            t += 1
            s = np.empty(w.shape, w.dtype)
            m *= beta1
            m += np.multiply(g, 1.0 - beta1, out=s)
            v *= beta2
            v += np.multiply(np.multiply(g, 1.0 - beta2, out=s), g, out=s)
            step = np.divide(m, 1.0 - beta1 ** t, out=s)  # mhat
            step *= lr
            den = np.divide(v, 1.0 - beta2 ** t, out=np.empty(w.shape, w.dtype))  # vhat
            np.sqrt(den, out=den)
            den += eps
            step /= den
            p.data = (w - step).astype(w.dtype, copy=False)
            self.moments[p.name] = (m, v, t)


class ModulatedSgd:
    """Stateless modulated SGD for the adder parameter group."""

    kind = "modulated_sgd"

    def __init__(self, params):
        self.params = list(params)

    def step(self, lr: float):
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad.astype(p.data.dtype, copy=False)
            p.data = modulated_sgd_step(p.data, g, lr, ETA)


def build_optimizers(groups: dict[str, list], total_epochs: int) -> list:
    """(optimizer, schedule) pairs for the routed groups, adaptive first, each
    annealed over its RATES range."""
    return [(opt(groups[opt.kind]), CosineSchedule(*RATES[opt.kind], total_epochs))
            for opt in (AdaptiveMoment, ModulatedSgd) if opt.kind in groups]
