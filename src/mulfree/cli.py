"""Command-line harness: train, eval, grad-report, export, sweep-density.

A run directory holds the resolved config (written before training), a
line-delimited metrics file, and best/last checkpoints in a self-contained
binary format (tensor name, shape, dtype, payload, trailing CRC) with the
config embedded so evaluation can rebuild the exact architecture.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import resource
import struct
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import shiftquant
from .data import PointDataset, augment, ingest_modelnet40, subsample_density, synth_shapes
from .errors import CacheError, ConfigError, MulfreeError, TrainingDivergedError
from .framing import unframe, write_framed
from .layers import AdderLinear, ShiftLinear
from .models import ModelConfig, build_model, knn_group
from .optim import build_optimizers, modulate_gradient, route_parameters
from .tensor import softmax_cross_entropy, substream

CKPT_MAGIC = b"SAMC"

# desk-scale preset: small enough that every variant trains in minutes on a CPU
SYNTH_MODEL = ModelConfig(embed_widths=(8, 8, 16, 32), encoder_widths=(32, 64),
                          head_widths=(32,), num_classes=4, knn_k=4, points_in=256)

EPOCH_DEFAULTS = {"synthetic": 60, "modelnet40": 200}


@dataclass
class RunConfig:
    """One training run; defaults reproduce the desk-scale reference run.

    Every setting is declared here once: the INI file is parsed by each
    field's type hint, `train` flags override fields by name, and the
    checks below are the only checks of a setting, for files and flags alike.
    They include the architecture's, through `model_config()`, so a bad
    setting fails before the run directory is written.
    """

    variant: str = "sa"
    data: str = "synthetic"
    epochs: int | None = None
    batch_size: int = 32
    seed: int = 7
    out: str | None = None
    augment: bool = True
    # model overrides; None picks the per-source preset
    embed_widths: tuple[int, ...] | None = None
    encoder_widths: tuple[int, ...] | None = None
    head_widths: tuple[int, ...] | None = None
    num_classes: int | None = None
    knn_k: int | None = None
    points: int | None = None
    # optimizer
    lr_adaptive_start: float = 1e-3
    lr_adaptive_end: float = 1e-6
    lr_modulated_start: float = 2e-2
    lr_modulated_end: float = 2e-3
    eta: float = 0.2
    cycles: int = 1
    # synthetic dataset size
    synth_per_class: int = 160
    synth_points: int = 256
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        for key, least in (("batch_size", 1), ("seed", 0), ("epochs", 0),
                           ("synth_per_class", 1), ("cycles", 1)):
            val = getattr(self, key)
            if val is not None and val < least:
                raise ConfigError(f"{key} must be >= {least}, got {val}")
        source, _, root = self.data.partition(":")
        if self.data != "synthetic" and not (source == "modelnet40" and root):
            raise ConfigError(f"data must be synthetic or modelnet40:<dir>, got {self.data!r}")
        for key in ("lr_adaptive_start", "lr_adaptive_end", "lr_modulated_start",
                    "lr_modulated_end"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if self.eta is None or not 0 < self.eta < math.inf:
            raise ConfigError(f"eta must be finite and > 0, got {self.eta}")
        classes = self.model_config().num_classes  # ModelConfig checks the architecture
        if self.class_names and classes < len(self.class_names):
            raise ConfigError(f"num_classes {classes} is below the data's "
                              f"{len(self.class_names)} classes")

    def source(self) -> str:
        return self.data.split(":", 1)[0]

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return EPOCH_DEFAULTS[self.source()]

    def model_config(self) -> ModelConfig:
        synthetic = self.source() == "synthetic"
        base = replace(SYNTH_MODEL, points_in=self.synth_points) if synthetic else ModelConfig()
        over = {"points_in" if key == "points" else key: getattr(self, key)
                for key in _SECTIONS["model"] if getattr(self, key) is not None}
        return replace(base, variant=self.variant, **over)


# the INI file layout; `out` stays out, so a run's files do not depend on where it ran
_SECTIONS = {
    "run": ("variant", "data", "epochs", "batch_size", "seed", "augment"),
    "model": ("embed_widths", "encoder_widths", "head_widths", "num_classes", "knn_k", "points"),
    "optim": ("lr_adaptive_start", "lr_adaptive_end", "lr_modulated_start",
              "lr_modulated_end", "eta", "cycles"),
    "data": ("synth_per_class", "synth_points", "class_names"),
}
_HINTS = get_type_hints(RunConfig)


def config_to_ini(cfg: RunConfig) -> str:
    parser = configparser.ConfigParser()
    for section, keys in _SECTIONS.items():
        parser[section] = {}
        for key in keys:
            val = getattr(cfg, key)
            if val is None:
                continue
            if isinstance(val, (tuple, list)):
                parser[section][key] = ",".join(str(v) for v in val)
            else:
                parser[section][key] = str(val)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_from_ini(text: str) -> RunConfig:
    """Parse a run config; malformed INI, an unknown key or a bad value raises ConfigError."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed INI config: {exc}") from exc
    kwargs = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"config has unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"config [{section}] has unknown key {key!r}")
            try:
                kwargs[key] = _ini_value(_HINTS[key], parser.get(section, key))
            except (configparser.Error, ValueError) as exc:
                raise ConfigError(f"config [{section}] {key}: {exc}") from exc
    return RunConfig(**kwargs)


def _ini_value(hint, raw: str):
    """Parse raw by a RunConfig type hint: `T | None` as T, tuples comma-separated."""
    if type(None) in get_args(hint):
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return tuple(item(v) for v in raw.split(","))
    if hint is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return hint(raw)


# --- datasets ---

def load_datasets(cfg: RunConfig):
    points = cfg.model_config().points_in  # `points`, else synth_points or 1024 by source
    if cfg.source() == "modelnet40":
        return ingest_modelnet40(cfg.data.split(":", 1)[1], points, cfg.seed)
    splits = synth_shapes(cfg.synth_per_class, points, cfg.seed)
    if not len(splits[1]):
        raise ConfigError(f"synth_per_class {cfg.synth_per_class} leaves the test split empty")
    return splits


# --- checkpoints ---

_DTYPES = [np.dtype("float32"), np.dtype("float64"), np.dtype("int64"), np.dtype("int8")]


def save_checkpoint(path, model, config_text: str) -> None:
    """Streams the tensors' own bytes to the file: no copy of the model is made."""
    cfg_bytes = config_text.encode()
    items = model.state_items()
    parts = [struct.pack("<HI", 1, len(cfg_bytes)), cfg_bytes, struct.pack("<I", len(items))]
    for name, arr in items:
        arr = np.ascontiguousarray(arr)
        name_b = name.encode()
        parts += [struct.pack("<H", len(name_b)) + name_b,
                  struct.pack("<BB", _DTYPES.index(arr.dtype), arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), memoryview(arr).cast("B")]
    write_framed(path, CKPT_MAGIC, parts)


def _unpack(fmt: str, body: bytes, off: int, path) -> tuple:
    try:
        return struct.unpack_from(fmt, body, off)
    except struct.error as exc:
        raise CacheError(f"{path}: truncated checkpoint") from exc


def _decode(raw: bytes, what: str, path) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise CacheError(f"{path}: checkpoint {what} is not UTF-8") from exc


def load_checkpoint(path):
    """Returns (model, run_cfg). The embedded config rebuilds the architecture."""
    body = unframe(Path(path).read_bytes(), CKPT_MAGIC, CacheError, f"{path}: checkpoint")
    version, cfg_len = _unpack("<HI", body, 0, path)
    if version != 1:
        raise CacheError(f"{path}: unsupported checkpoint version {version}")
    off = 6
    config_text = _decode(body[off : off + cfg_len], "config", path)
    off += cfg_len
    (count,) = _unpack("<I", body, off, path)
    off += 4
    tensors = {}
    for _ in range(count):
        (nlen,) = _unpack("<H", body, off, path)
        off += 2
        name = _decode(body[off : off + nlen], "tensor name", path)
        off += nlen
        dcode, rank = _unpack("<BB", body, off, path)
        off += 2
        dims = _unpack(f"<{rank}I", body, off, path)
        off += 4 * rank
        if dcode >= len(_DTYPES):
            raise CacheError(f"{path}: tensor {name!r} has unknown dtype code {dcode}")
        dt = _DTYPES[dcode]
        size = math.prod(dims) * dt.itemsize
        if off + size > len(body):
            raise CacheError(f"{path}: tensor {name!r} is truncated")
        try:
            arr = np.frombuffer(body, dt, math.prod(dims), off).reshape(dims)
        except ValueError as exc:  # more dims than numpy allows, or an overflowing shape
            raise CacheError(f"{path}: tensor {name!r} has unusable shape {dims}") from exc
        tensors[name] = arr.copy()
        off += size
    run_cfg = config_from_ini(config_text)
    model = build_model(run_cfg.model_config(), substream(run_cfg.seed, 0))
    model.load_state(tensors)
    return model, run_cfg


# --- evaluation ---

def evaluate(model, ds: PointDataset, batch_size: int, knn_cache: dict | None = None):
    """Eval-mode accuracy over a dataset; returns (accuracy, per-class dict).

    knn_cache memoizes neighbor indices per batch offset; valid only while
    the dataset object is unchanged (the per-epoch eval inside training).
    """
    correct, total = np.zeros((2, len(ds.class_names)), np.int64)
    for start in range(0, len(ds), batch_size):
        pts = ds.points[start : start + batch_size]
        labels = ds.labels[start : start + batch_size]
        idx = None
        if knn_cache is not None:
            idx = knn_cache.get(start)
            if idx is None:
                idx = knn_cache[start] = knn_group(pts, model.cfg.knn_k)
        pred = np.argmax(model.forward(pts, train=False, neighbor_idx=idx), axis=1)
        total += np.bincount(labels, minlength=len(total))
        correct += np.bincount(labels[pred == labels], minlength=len(total))
    acc = float(correct.sum() / max(total.sum(), 1))
    per_class = {name: float(correct[i] / total[i]) if total[i] else None
                 for i, name in enumerate(ds.class_names)}
    return acc, per_class


def _grad_rms(g: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.asarray(g, np.float64) ** 2)))


def _write(out, name: str, text: str) -> None:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


# --- training ---

def backprop_batch(model, pts, labels, rms_sums: dict, where: str):
    """Train-mode forward, loss and backward of a batch; returns (loss, logits). Adds
    each instrumented layer's gradient RMS to rms_sums; a non-finite loss raises
    TrainingDivergedError naming the stage that failed, at `where` ("epoch N", "batch N")."""
    logits = model.forward(pts, train=True)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    if not math.isfinite(loss):
        bad = model.diagnose(pts) or "loss"
        raise TrainingDivergedError(f"non-finite loss at {where}; first offending layer: {bad}")
    model.backward(dlogits)
    for name, layer in model.instrumented_layers():
        rms_sums[name] = rms_sums.get(name, 0.0) + _grad_rms(layer.w.grad)
    return loss, logits


def cmd_train(cfg: RunConfig) -> Path:
    epochs = cfg.resolved_epochs()
    train_ds, test_ds, _ = load_datasets(cfg)
    cfg = replace(cfg, class_names=tuple(train_ds.class_names),
                  num_classes=cfg.num_classes or len(train_ds.class_names))
    model_cfg = cfg.model_config()
    out_dir = Path(cfg.out or f"runs/{cfg.variant}_{cfg.source()}_s{cfg.seed}")
    config_text = config_to_ini(cfg)
    _write(out_dir, "config.ini", config_text)

    model = build_model(model_cfg, substream(cfg.seed, 0))
    optimizers = build_optimizers(route_parameters(model),
                                  (cfg.lr_adaptive_start, cfg.lr_adaptive_end),
                                  (cfg.lr_modulated_start, cfg.lr_modulated_end),
                                  cfg.eta, max(epochs, 1), cfg.cycles)
    shuffle_rng = substream(cfg.seed, 1)
    augment_rng = substream(cfg.seed, 2)

    best_acc = -1.0
    eval_knn_cache: dict = {}
    # timings.jsonl holds what differs between identical runs, so that
    # metrics.jsonl stays comparable with only wall_clock_s removed
    with open(out_dir / "metrics.jsonl", "w") as metrics, \
            open(out_dir / "timings.jsonl", "w") as timings:
        for epoch in range(epochs):
            faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            lrs = {opt.kind: sched.lr_at(epoch) for opt, sched in optimizers}
            perm = shuffle_rng.permutation(len(train_ds))
            loss_sum = 0.0
            correct = 0
            rms_sums: dict[str, float] = {}
            steps = 0
            for start in range(0, len(perm), cfg.batch_size):
                sel = perm[start : start + cfg.batch_size]
                pts = train_ds.points[sel]
                if cfg.augment:
                    pts = augment(pts, augment_rng)
                labels = train_ds.labels[sel]
                loss, logits = backprop_batch(model, pts, labels, rms_sums, f"epoch {epoch}")
                for opt, _ in optimizers:
                    opt.step(lrs[opt.kind])
                loss_sum += loss * len(sel)
                correct += int((np.argmax(logits, axis=1) == labels).sum())
                steps += 1
            t_train = time.perf_counter()
            test_acc, _ = evaluate(model, test_ds, cfg.batch_size, eval_knn_cache)
            t_eval = time.perf_counter()
            record = {
                "epoch": epoch,
                "train_loss": loss_sum / len(train_ds),
                "train_acc": correct / len(train_ds),
                "test_acc": test_acc,
                "lr": lrs,
                "grad_rms": {k: v / steps for k, v in rms_sums.items()},
                "wall_clock_s": time.perf_counter() - t0,
            }
            metrics.write(json.dumps(record) + "\n")
            metrics.flush()
            t_ckpt = time.perf_counter()
            if test_acc > best_acc:
                best_acc = test_acc
                save_checkpoint(out_dir / "ckpt_best.bin", model, config_text)
            timings.write(json.dumps({
                "epoch": epoch,
                "train_s": t_train - t0,
                "eval_s": t_eval - t_train,
                "checkpoint_s": time.perf_counter() - t_ckpt,
                "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0,
            }) + "\n")
            timings.flush()
    if best_acc < 0:  # zero-epoch run: the initialized state is the best so far
        save_checkpoint(out_dir / "ckpt_best.bin", model, config_text)
    save_checkpoint(out_dir / "ckpt_last.bin", model, config_text)
    return out_dir


# --- reports ---

def _open_checkpoint(ckpt, data: str | None = None, seed: int | None = None,
                     batch_size: int | None = None):
    """(model, cfg, seed) for a report. `data` and `batch_size` replace the
    checkpoint's settings, so RunConfig checks them. `seed` (default: the
    checkpoint's) seeds only the report's own draws, never the dataset."""
    model, cfg = load_checkpoint(ckpt)
    cfg = replace(cfg, **{k: v for k, v in (("data", data), ("batch_size", batch_size))
                          if v is not None})
    seed = cfg.seed if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return model, cfg, seed


def _density_report(ckpt, model, cfg: RunConfig, test_ds: PointDataset,
                    density: int | None, seed: int) -> dict:
    """Accuracy on the test split, subsampled to `density` points per cloud."""
    full = test_ds.points.shape[1]
    if density is not None and density != full:
        if not 1 <= density <= full:
            raise ConfigError(f"density {density} outside [1, {full}], the cached cloud size")
        rng = substream(seed, 200 + density)
        test_ds = PointDataset(
            np.stack([subsample_density(p, density, rng) for p in test_ds.points]),
            test_ds.labels, test_ds.class_names)
    acc, per_class = evaluate(model, test_ds, cfg.batch_size)
    return {"checkpoint": str(ckpt), "density": density or full,
            "accuracy": acc, "per_class": per_class}


def cmd_eval(ckpt, data: str | None = None, density: int | None = None,
             seed: int | None = None, out=None, batch_size: int | None = None):
    model, cfg, seed = _open_checkpoint(ckpt, data, seed, batch_size)
    _, test_ds, _ = load_datasets(cfg)
    report = _density_report(ckpt, model, cfg, test_ds, density, seed)
    text = json.dumps(report, indent=1)
    print(text)
    if out:
        _write(out, f"eval_d{report['density']}.json", text)
    return report


def cmd_grad_report(ckpt, data: str | None = None, batches: int = 4,
                    seed: int | None = None, out=None):
    """Per-layer RMS of raw weight gradients; adder layers also report the
    post-modulation RMS (identically eta by construction). A non-finite
    loss raises TrainingDivergedError, as in training."""
    if batches < 0:
        raise ConfigError(f"batches must be >= 0, got {batches}")
    model, cfg, seed = _open_checkpoint(ckpt, data, seed)
    raw: dict[str, float] = {}
    mod: dict[str, float] = {}
    if batches > 0:
        train_ds, _, _ = load_datasets(cfg)
        rng = substream(seed, 3)
        for b in range(batches):
            sel = rng.choice(len(train_ds), size=min(cfg.batch_size, len(train_ds)),
                             replace=False)
            backprop_batch(model, train_ds.points[sel], train_ds.labels[sel], raw, f"batch {b}")
            for name, layer in model.instrumented_layers():
                if isinstance(layer, AdderLinear):
                    mod[name] = mod.get(name, 0.0) + _grad_rms(
                        modulate_gradient(layer.w.grad, cfg.eta))
    rows = [{"layer": name, "kind": layer.kind, "grad_rms": raw[name] / batches,
             "modulated_rms": (mod[name] / batches) if name in mod else None}
            for name, layer in model.instrumented_layers() if name in raw]
    header = f"{'layer':<12} {'kind':<6} {'grad_rms':>12} {'modulated_rms':>14}"
    lines = [header, "-" * len(header)]
    for r in rows:
        m = f"{r['modulated_rms']:.4f}" if r["modulated_rms"] is not None else "-"
        lines.append(f"{r['layer']:<12} {r['kind']:<6} {r['grad_rms']:>12.3e} {m:>14}")
    text = "\n".join(lines)
    print(text)
    if out:
        _write(out, "grad_report.json", json.dumps(rows, indent=1))
        _write(out, "grad_report.txt", text + "\n")
    return rows


def cmd_export(ckpt, what: str, out, data: str | None = None):
    model, cfg, _ = _open_checkpoint(ckpt, data)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if what == "weights_hist":
        for name, layer in model.linear_layers():
            values = layer.quantize() if isinstance(layer, ShiftLinear) else layer.w.data
            values = np.asarray(values).ravel()
            vpath = out / f"{name}.values.csv"
            with open(vpath, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["value"])
                writer.writerows([[f"{v:.9g}"] for v in values])
            counts, edges = np.histogram(values, bins=64)
            hpath = out / f"{name}.hist.csv"
            with open(hpath, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["bin_left", "bin_right", "count"])
                for i in range(64):
                    writer.writerow([f"{edges[i]:.9g}", f"{edges[i + 1]:.9g}", int(counts[i])])
            written += [vpath, hpath]
    elif what == "features":
        _, test_ds, _ = load_datasets(cfg)
        path = out / "features.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            dim = None
            outputs: dict = {}
            for start in range(0, len(test_ds), cfg.batch_size):
                pts = test_ds.points[start : start + cfg.batch_size]
                labels = test_ds.labels[start : start + cfg.batch_size]
                model.forward(pts, train=False, observe=outputs.__setitem__)
                feats = outputs["global_pool"]
                if dim is None:
                    dim = feats.shape[1]
                    writer.writerow(["label"] + [f"f{i}" for i in range(dim)])
                for lab, row in zip(labels, feats):
                    writer.writerow([int(lab)] + [f"{v:.7g}" for v in row])
        written.append(path)
    elif what == "packed_shift":
        shift_layers = [(n, l) for n, l in model.linear_layers() if isinstance(l, ShiftLinear)]
        if not shift_layers:
            raise ConfigError(f"model variant {cfg.variant!r} has no shift layers to pack")
        for name, layer in shift_layers:
            layer.quantize()
            path = out / f"{name}.saq1"
            shiftquant.write_packed(path, layer.s, layer.p)
            written.append(path)
    else:
        raise ConfigError(f"unknown export kind {what!r}")
    for path in written:
        print(path)
    return written


def cmd_sweep_density(ckpt, data: str | None = None, densities=None,
                      seed: int | None = None, out=None):
    model, cfg, seed = _open_checkpoint(ckpt, data, seed)
    _, test_ds, _ = load_datasets(cfg)
    if densities is None:  # the cached cloud size and three halvings
        densities = [test_ds.points.shape[1] >> i for i in range(4)]
    reports = [_density_report(ckpt, model, cfg, test_ds, d, seed) for d in densities]
    print(f"{'density':>8} {'accuracy':>9}")
    for r in reports:
        print(f"{r['density']:>8} {r['accuracy']:>9.4f}")
    if out:
        _write(out, "density_sweep.jsonl", "".join(json.dumps(r) + "\n" for r in reports))
    return reports


def _train(config=None, **overrides):
    """`train`: the --config file (or the defaults), then each given flag replaces its field."""
    cfg = RunConfig()
    if config:
        try:
            cfg = config_from_ini(Path(config).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{config}: config file is not UTF-8") from exc
    print(f"run directory: {cmd_train(replace(cfg, **overrides))}")


def _sweep(densities=None, **kwargs):
    """`sweep-density`: --densities is a comma-separated list of point counts."""
    try:
        parsed = tuple(int(v) for v in densities.split(",")) if densities else None
    except ValueError as exc:
        raise ConfigError(f"--densities {densities!r}: {exc}") from exc
    cmd_sweep_density(densities=parsed, **kwargs)


# --- argument parsing ---

def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="rng seed (default: checkpoint seed)")
    p.add_argument("--data", default=None,
                   help="synthetic or modelnet40:<dir> (default: checkpoint source)")
    p.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mulfree",
                                description="multiplication-free point-cloud classifiers")
    sub = p.add_subparsers(required=True, metavar="command")

    # each subcommand's flags are the keyword arguments of its `run` function; a
    # train flag left out is absent from the namespace, each present one a RunConfig field
    t = sub.add_parser("train", help="train a variant and write a run directory",
                       argument_default=argparse.SUPPRESS)
    t.set_defaults(run=_train)
    t.add_argument("--variant", help="mul, shift, add or sa (default sa)")
    t.add_argument("--data", help="synthetic or modelnet40:<dir> (default synthetic)")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--out")
    t.add_argument("--no-augment", dest="augment", action="store_false")
    t.add_argument("--config", help="INI file overriding the defaults")
    t.add_argument("--synth-per-class", type=int)
    t.add_argument("--synth-points", type=int)

    e = sub.add_parser("eval", help="accuracy report for a checkpoint")
    e.set_defaults(run=cmd_eval)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--density", type=int, default=None, help="default: the cached cloud size")
    e.add_argument("--batch-size", type=int, default=None)
    _add_common(e)

    g = sub.add_parser("grad-report", help="per-layer gradient RMS table")
    g.set_defaults(run=cmd_grad_report)
    g.add_argument("--ckpt", required=True)
    g.add_argument("--batches", type=int, default=4)
    _add_common(g)

    x = sub.add_parser("export", help="weight histograms, pooled features, packed shift weights")
    x.set_defaults(run=cmd_export)
    x.add_argument("--ckpt", required=True)
    x.add_argument("--what", choices=("weights_hist", "features", "packed_shift"), required=True)
    x.add_argument("--data", default=None)
    x.add_argument("--out", required=True)

    s = sub.add_parser("sweep-density", help="evaluate one checkpoint across densities")
    s.set_defaults(run=_sweep)
    s.add_argument("--ckpt", required=True)
    s.add_argument("--densities", default=None,
                   help="comma-separated point counts (default: cloud size, three halvings)")
    _add_common(s)
    return p


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    run = args.pop("run")
    try:
        run(**args)
    except (MulfreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
