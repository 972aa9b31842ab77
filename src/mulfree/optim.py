"""Per-layer-type optimization.

Adder weights are updated with modulated SGD: the raw gradient is rescaled
so its root-mean-square equals a fixed constant eta, which makes one
learning rate work across adder layers whose raw gradient magnitudes vary
by orders of magnitude. Everything else (mul, shift, norm parameters) uses
a bias-corrected first/second-moment optimizer. The RULES table maps each
parameter's layer kind to its optimizer kind; `route_parameters` groups a
model's parameters by it and `build_optimizers` pairs each group with its
optimizer and a cosine-annealed learning rate.
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
    """Cosine interpolation from lr_start at epoch 0 to lr_end at total_epochs.

    `cycles` > 1 gives warm restarts; the default single cycle is what the
    start/end rates pin down.
    """

    lr_start: float
    lr_end: float
    total_epochs: int
    cycles: int = 1

    def lr_at(self, epoch: float) -> float:
        if not 0 <= epoch <= self.total_epochs:
            raise ConfigError(f"epoch {epoch} outside [0, {self.total_epochs}]")
        if self.total_epochs == 0:
            return self.lr_start
        phase = epoch * self.cycles / self.total_epochs
        frac = 1.0 if (phase > 0 and phase == int(phase)) else phase % 1.0
        if frac == 0.0:  # cycle boundaries hit the endpoints exactly
            return self.lr_start
        if frac == 1.0:
            return self.lr_end
        return self.lr_end + 0.5 * (self.lr_start - self.lr_end) * (1.0 + math.cos(math.pi * frac))


def route_parameters(model) -> dict[str, list]:
    """Group trainables by optimizer kind, RULES[p.kind].

    Every parameter lands in exactly one group; an unknown kind raises
    ConfigError. Only non-empty groups appear (a homogeneous model has one).
    """
    groups: dict[str, list] = {}
    for p in model.parameters():
        if p.kind not in RULES:
            raise ConfigError(f"parameter {p.name} has unrouted kind {p.kind!r}")
        groups.setdefault(RULES[p.kind], []).append(p)
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

    def __init__(self, params, eta: float):
        self.params = list(params)
        self.eta = eta

    def step(self, lr: float):
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad.astype(p.data.dtype, copy=False)
            p.data = modulated_sgd_step(p.data, g, lr, self.eta)


def build_optimizers(groups: dict[str, list], adaptive_lr, modulated_lr, eta: float,
                     total_epochs: int, cycles: int = 1) -> list:
    """(optimizer, schedule) pairs for the routed groups, adaptive first.

    The rates are (start, end) pairs; RunConfig checks them and eta.
    """
    out = []
    if AdaptiveMoment.kind in groups:
        out.append((AdaptiveMoment(groups[AdaptiveMoment.kind]),
                    CosineSchedule(*adaptive_lr, total_epochs, cycles)))
    if ModulatedSgd.kind in groups:
        out.append((ModulatedSgd(groups[ModulatedSgd.kind], eta),
                    CosineSchedule(*modulated_lr, total_epochs, cycles)))
    return out
