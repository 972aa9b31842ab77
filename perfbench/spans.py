"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each target named in TARGETS with a wrapper that
records a span: its name, the phase of the run (setup, timed) and the mode
of the enclosing model pass (train, eval, fixed). A module-level function
is replaced in every loaded `mulfree` module that imported it by name, so
calls through either name are seen; a method is replaced on its class.
A span's self time is its duration minus the durations of the spans it
encloses. Spans are aggregated in memory as they close.

A target that no longer exists is skipped and listed in `missing`; only
the metrics built from it are dropped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict


def _forward_mode(bound):
    if bound.get("fixed_shift"):
        return "fixed"
    return "train" if bound.get("train") else "eval"


def _shift_macs(tracer, args, kwargs, result):
    """Counts computed from the kernel's arguments: int64 multiply-adds the
    kernel executes (one full matmul per occupied exponent) and those the
    affine map needs (rows x c_in x c_out)."""
    x_fixed, s, p = args[:3]
    rows = x_fixed.size // x_fixed.shape[-1]
    needed = rows * s.shape[0] * s.shape[1]
    tracer.count("shiftquant.needed_macs", needed)
    tracer.count("shiftquant.int_macs", needed * len(set(p.ravel().tolist())))
    tracer.count("shiftquant.saturated", result[1])


def _knn_clouds(tracer, args, kwargs, result):
    tracer.count("models.knn_clouds", result.shape[0])


_LAYER_CLASSES = (("MulLinear", "mul"), ("ShiftLinear", "shift"), ("AdderLinear", "adder"),
                  ("BatchNorm", "norm"), ("MaxPool", "pool"), ("ReLU", "relu"))

# (module, attribute path, span name, options)
TARGETS = [
    ("models", "knn_group", "models.knn", {"observe": _knn_clouds}),
    ("models", "build_model", "models.build", {}),
    ("models", "PointCloudClassifier.forward", "models.forward", {"mode": _forward_mode}),
    ("models", "PointCloudClassifier.backward", "models.backward",
     {"mode": lambda bound: "train"}),
    *[("layers", f"{cls}.{meth}", f"layers.{kind}.{meth}", {"per_instance": True})
      for cls, kind in _LAYER_CLASSES for meth in ("forward", "backward")],
    ("layers", "ShiftLinear.forward_fixed", "layers.shift.fixed", {"per_instance": True}),
    ("layers", "concat_coords", "layers.concat_coords", {}),
    ("tensor", "affine_map", "tensor.affine_map", {}),
    ("tensor", "pairwise_l1_neg", "tensor.pairwise_l1_neg", {}),
    ("tensor", "global_max_pool", "tensor.global_max_pool", {}),
    ("tensor", "softmax_cross_entropy", "tensor.softmax_cross_entropy", {}),
    ("shiftquant", "to_fixed", "shiftquant.to_fixed", {}),
    ("shiftquant", "from_fixed", "shiftquant.from_fixed", {}),
    ("shiftquant", "fixed_shift_affine", "shiftquant.fixed_shift_affine",
     {"observe": _shift_macs}),
    ("shiftquant", "shift_affine_fixed", "shiftquant.shift_affine_fixed", {}),
    ("optim", "AdaptiveMoment.step", "optim.step", {}),
    ("optim", "ModulatedSgd.step", "optim.step", {}),
    ("optim", "route_parameters", "optim.build", {}),
    ("optim", "build_optimizers", "optim.build", {}),
    ("data", "synth_shapes", "data.synth_shapes", {}),
    ("data", "ingest_modelnet40", "data.ingest", {}),
    ("data", "read_off", "data.read_off", {}),
    ("data", "parse_off", "data.parse_off", {}),
    ("data", "sample_mesh", "data.sample_mesh", {}),
    ("data", "normalize_cloud", "data.normalize_cloud", {}),
    ("data", "augment", "data.augment", {}),
    ("data", "cache_write", "data.cache_write", {}),
    ("data", "cache_read", "data.cache_read", {}),
    ("cli", "load_datasets", "cli.load_datasets", {}),
    ("cli", "evaluate", "cli.evaluate", {}),
    ("cli", "save_checkpoint", "cli.save_checkpoint", {}),
    ("cli", "load_checkpoint", "cli.load_checkpoint", {}),
    ("cli", "config_to_ini", "cli.config", {}),
    ("cli", "config_from_ini", "cli.config", {}),
]


class Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


def _add(st: Stat, dt: float, child_s: float) -> None:
    st.calls += 1
    st.incl_s += dt
    st.self_s += dt - child_s


class Tracer:
    """In-memory span aggregates keyed by (phase, mode, span name)."""

    def __init__(self, package: str = "mulfree"):
        self.package = package
        self.phase = "setup"
        self.stats: dict = defaultdict(Stat)
        self.instance_stats: dict = defaultdict(Stat)  # per named layer; overlaps stats
        self.counts: dict = defaultdict(float)  # (phase, mode, counter) -> total
        self.missing: list[str] = []
        self._open: list[list[float]] = []  # child time of each open span
        self._modes: list[str] = []
        self._undo: list = []

    def count(self, name: str, value) -> None:
        self.counts[(self.phase, self.mode, name)] += value

    @property
    def mode(self) -> str:
        return self._modes[-1] if self._modes else "-"

    def _wrap(self, fn, name, mode=None, observe=None, per_instance=False):
        sig = inspect.signature(fn) if mode else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            pushed = mode(sig.bind(*args, **kwargs).arguments) if mode else None
            if pushed:
                self._modes.append(pushed)
            child = [0.0]
            self._open.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dt
                where = (self.phase, self.mode)
                if pushed:
                    self._modes.pop()
                _add(self.stats[where + (name,)], dt, child[0])
                if per_instance:
                    layer = f"layers.{getattr(args[0], 'name', '?')}.{name.rsplit('.', 1)[1]}"
                    _add(self.instance_stats[where + (layer,)], dt, child[0])
            if observe:
                observe(self, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        mods = {name: importlib.import_module(f"{self.package}.{name}")
                for name in {t[0] for t in TARGETS}}
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for mod_name, path, span_name, opts in TARGETS:
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{self.package}.{mod_name}:{path}")
                continue
            wrapper = self._wrap(orig, span_name, **opts)
            holders = [owner] if outer else [m for m in loaded if getattr(m, attr, None) is orig]
            for holder in holders:
                self._undo.append((holder, attr, orig))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)

    # --- queries ---

    def select(self, name: str, phase=None, modes=None, stats=None) -> Stat:
        """Sum of the spans of one name over the given phase and modes."""
        out = Stat()
        for (ph, mode, n), st in (stats or self.stats).items():
            if n == name and (phase is None or ph == phase) and (modes is None or mode in modes):
                out.calls += st.calls
                out.self_s += st.self_s
                out.incl_s += st.incl_s
        return out

    def total_count(self, name: str, phase=None, modes=None) -> float:
        return sum(v for (ph, mode, n), v in self.counts.items()
                   if n == name and (phase is None or ph == phase)
                   and (modes is None or mode in modes))
