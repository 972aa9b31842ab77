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
import struct
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import shiftquant
from .data import PointDataset, augment, ingest_modelnet40, subsample_density, synth_shapes
from .errors import CacheError, ConfigError, MulfreeError, TrainingDivergedError
from .framing import frame, unframe
from .layers import AdderLinear, ShiftLinear
from .models import VARIANTS, ModelConfig, build_model, knn_group
from .optim import build_optimizers, modulate_gradient, route_parameters
from .tensor import softmax_cross_entropy, substream

CKPT_MAGIC = b"SAMC"
DENSITY_CHOICES = (1024, 512, 256, 128, 64, 32)

# desk-scale preset: small enough that every variant trains in minutes on a CPU
SYNTH_MODEL = ModelConfig(embed_widths=(8, 8, 16, 32), encoder_widths=(32, 64),
                          head_widths=(32,), num_classes=4, knn_k=4, points_in=256)
MODELNET_MODEL = ModelConfig()

EPOCH_DEFAULTS = {"synthetic": 60, "modelnet40": 200}


@dataclass
class RunConfig:
    """One training run; defaults reproduce the desk-scale reference run."""

    variant: str = "sa"
    data: str = "synthetic"
    epochs: int | None = None
    batch_size: int = 32
    seed: int = 7
    out: str | None = None
    augment: bool = True
    # model overrides; None picks the per-source preset
    embed_widths: tuple | None = None
    encoder_widths: tuple | None = None
    head_widths: tuple | None = None
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
    class_names: tuple | None = None

    def source(self) -> str:
        return "modelnet40" if self.data.startswith("modelnet40") else self.data

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return EPOCH_DEFAULTS[self.source()]

    def model_config(self) -> ModelConfig:
        if self.source() == "synthetic":
            base = replace(SYNTH_MODEL, points_in=self.synth_points)
        elif self.source() == "modelnet40":
            base = MODELNET_MODEL
        else:
            raise ConfigError(f"unknown data source {self.data!r}")
        over = {}
        for src, dst in (("embed_widths", "embed_widths"), ("encoder_widths", "encoder_widths"),
                         ("head_widths", "head_widths"), ("num_classes", "num_classes"),
                         ("knn_k", "knn_k"), ("points", "points_in")):
            val = getattr(self, src)
            if val is not None:
                over[dst] = val
        return replace(base, variant=self.variant, **over)


_INT_TUPLES = {"embed_widths", "encoder_widths", "head_widths"}
_SECTIONS = {
    "run": ("variant", "data", "epochs", "batch_size", "seed", "augment"),
    "model": ("embed_widths", "encoder_widths", "head_widths", "num_classes", "knn_k", "points"),
    "optim": ("lr_adaptive_start", "lr_adaptive_end", "lr_modulated_start",
              "lr_modulated_end", "eta", "cycles"),
    "data": ("synth_per_class", "synth_points", "class_names"),
}


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
    """Parse a run config; malformed INI or a bad value raises ConfigError."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed INI config: {exc}") from exc
    field_types = {f.name: f for f in fields(RunConfig)}
    kwargs = {}
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key in keys:
            if key not in parser[section] or key not in field_types:
                continue
            try:
                kwargs[key] = _ini_value(key, parser[section][key])
            except (configparser.Error, ValueError) as exc:
                raise ConfigError(f"config [{section}] {key}: {exc}") from exc
    return RunConfig(**kwargs)


def _ini_value(key: str, raw: str):
    if key in _INT_TUPLES:
        return tuple(int(v) for v in raw.split(","))
    if key == "class_names":
        return tuple(raw.split(","))
    if key == "augment":
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if key in ("variant", "data"):
        return raw
    if key in ("epochs", "batch_size", "seed", "num_classes", "knn_k",
               "points", "cycles", "synth_per_class", "synth_points"):
        return int(raw)
    return float(raw)


# --- datasets ---

def load_datasets(cfg: RunConfig):
    if cfg.source() == "synthetic":
        return synth_shapes(cfg.synth_per_class, cfg.synth_points, cfg.seed)
    root = cfg.data.split(":", 1)
    if len(root) != 2 or not root[1]:
        raise ConfigError("modelnet40 source must be written as modelnet40:<dir>")
    points = cfg.points if cfg.points is not None else MODELNET_MODEL.points_in
    return ingest_modelnet40(root[1], points_per_cloud=points, seed=cfg.seed)


# --- checkpoints ---

_DTYPES = [np.dtype("float32"), np.dtype("float64"), np.dtype("int64"), np.dtype("int8")]


def save_checkpoint(path, model, config_text: str) -> None:
    cfg_bytes = config_text.encode()
    body = bytearray(struct.pack("<HI", 1, len(cfg_bytes)))
    body += cfg_bytes
    items = model.state_items()
    body += struct.pack("<I", len(items))
    for name, arr in items:
        arr = np.ascontiguousarray(arr)
        name_b = name.encode()
        body += struct.pack("<H", len(name_b)) + name_b
        body += struct.pack("<BB", _DTYPES.index(arr.dtype), arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        body += arr.tobytes()
    Path(path).write_bytes(frame(CKPT_MAGIC, body))


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
    correct = np.zeros(len(ds.class_names), np.int64)
    total = np.zeros(len(ds.class_names), np.int64)
    for start in range(0, len(ds), batch_size):
        pts = ds.points[start : start + batch_size]
        labels = ds.labels[start : start + batch_size]
        idx = None
        if knn_cache is not None:
            idx = knn_cache.get(start)
            if idx is None:
                idx = knn_cache[start] = knn_group(pts, model.cfg.knn_k)
        pred = np.argmax(model.forward(pts, train=False, neighbor_idx=idx), axis=1)
        for cls in range(len(ds.class_names)):
            mask = labels == cls
            total[cls] += int(mask.sum())
            correct[cls] += int((pred[mask] == cls).sum())
    acc = float(correct.sum() / max(total.sum(), 1))
    per_class = {name: float(correct[i] / total[i]) if total[i] else None
                 for i, name in enumerate(ds.class_names)}
    return acc, per_class


def _grad_rms(g: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.asarray(g, dtype=np.float64) ** 2)))


# --- training ---

def cmd_train(cfg: RunConfig) -> Path:
    epochs = cfg.resolved_epochs()
    train_ds, test_ds, _ = load_datasets(cfg)
    cfg = replace(cfg, class_names=tuple(train_ds.class_names),
                  num_classes=cfg.num_classes or len(train_ds.class_names))
    model_cfg = cfg.model_config()
    out_dir = Path(cfg.out or f"runs/{cfg.variant}_{cfg.source()}_s{cfg.seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    config_text = config_to_ini(cfg)
    (out_dir / "config.ini").write_text(config_text)

    model = build_model(model_cfg, substream(cfg.seed, 0))
    optimizers = build_optimizers(route_parameters(model),
                                  (cfg.lr_adaptive_start, cfg.lr_adaptive_end),
                                  (cfg.lr_modulated_start, cfg.lr_modulated_end),
                                  cfg.eta, max(epochs, 1), cfg.cycles)
    shuffle_rng = substream(cfg.seed, 1)
    augment_rng = substream(cfg.seed, 2)

    best_acc = -1.0
    eval_knn_cache: dict = {}
    with open(out_dir / "metrics.jsonl", "w") as metrics:
        for epoch in range(epochs):
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
                logits = model.forward(pts, train=True)
                loss, dlogits = softmax_cross_entropy(logits, labels)
                if not math.isfinite(loss):
                    bad = model.diagnose(pts) or "loss"
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}; first offending layer: {bad}")
                model.backward(dlogits)
                for name, layer in model.instrumented_layers():
                    rms_sums[name] = rms_sums.get(name, 0.0) + _grad_rms(layer.w.grad)
                for opt, _ in optimizers:
                    opt.step(lrs[opt.kind])
                loss_sum += loss * len(sel)
                correct += int((np.argmax(logits, axis=1) == labels).sum())
                steps += 1
            test_acc, _ = evaluate(model, test_ds, cfg.batch_size, eval_knn_cache)
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
            if test_acc > best_acc:
                best_acc = test_acc
                save_checkpoint(out_dir / "ckpt_best.bin", model, config_text)
    if best_acc < 0:  # zero-epoch run: the initialized state is the best so far
        save_checkpoint(out_dir / "ckpt_best.bin", model, config_text)
    save_checkpoint(out_dir / "ckpt_last.bin", model, config_text)
    return out_dir


# --- reports ---

def cmd_eval(ckpt, data: str | None = None, density: int | None = None,
             seed: int | None = None, out=None, batch_size: int | None = None):
    model, cfg = load_checkpoint(ckpt)
    if data is not None and data != cfg.data:
        cfg = replace(cfg, data=data)
    _, test_ds, _ = load_datasets(cfg)
    full = test_ds.points.shape[1]
    seed = cfg.seed if seed is None else seed
    if density is not None and density != full:
        if density > full:
            raise ConfigError(f"density {density} exceeds cached cloud size {full}")
        rng = substream(seed, 200 + density)
        test_ds = PointDataset(
            np.stack([subsample_density(p, density, rng) for p in test_ds.points]),
            test_ds.labels, test_ds.class_names)
    acc, per_class = evaluate(model, test_ds, batch_size or cfg.batch_size)
    report = {"checkpoint": str(ckpt), "density": density or full,
              "accuracy": acc, "per_class": per_class}
    if out:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"eval_d{report['density']}.json", "w") as fh:
            json.dump(report, fh, indent=1)
    return report


def cmd_grad_report(ckpt, data: str | None = None, batches: int = 4,
                    seed: int | None = None, out=None):
    """Per-layer RMS of raw weight gradients; adder layers also report the
    post-modulation RMS (identically eta by construction)."""
    model, cfg = load_checkpoint(ckpt)
    if data is not None and data != cfg.data:
        cfg = replace(cfg, data=data)
    seed = cfg.seed if seed is None else seed
    rows = []
    if batches > 0:
        train_ds, _, _ = load_datasets(cfg)
        rng = substream(seed, 3)
        raw: dict[str, float] = {}
        mod: dict[str, float] = {}
        kinds: dict[str, str] = {}
        for _ in range(batches):
            sel = rng.choice(len(train_ds), size=min(cfg.batch_size, len(train_ds)),
                             replace=False)
            logits = model.forward(train_ds.points[sel], train=True)
            _, dlogits = softmax_cross_entropy(logits, train_ds.labels[sel])
            model.backward(dlogits)
            for name, layer in model.instrumented_layers():
                kinds[name] = layer.kind
                raw[name] = raw.get(name, 0.0) + _grad_rms(layer.w.grad)
                if isinstance(layer, AdderLinear):
                    mod[name] = mod.get(name, 0.0) + _grad_rms(
                        modulate_gradient(layer.w.grad, cfg.eta))
        for name in raw:
            rows.append({
                "layer": name,
                "kind": kinds[name],
                "grad_rms": raw[name] / batches,
                "modulated_rms": (mod[name] / batches) if name in mod else None,
            })
    header = f"{'layer':<12} {'kind':<6} {'grad_rms':>12} {'modulated_rms':>14}"
    lines = [header, "-" * len(header)]
    for r in rows:
        m = f"{r['modulated_rms']:.4f}" if r["modulated_rms"] is not None else "-"
        lines.append(f"{r['layer']:<12} {r['kind']:<6} {r['grad_rms']:>12.3e} {m:>14}")
    text = "\n".join(lines)
    print(text)
    if out:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "grad_report.json", "w") as fh:
            json.dump(rows, fh, indent=1)
        (out / "grad_report.txt").write_text(text + "\n")
    return rows


def cmd_export(ckpt, what: str, out, data: str | None = None):
    model, cfg = load_checkpoint(ckpt)
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
        if data is not None and data != cfg.data:
            cfg = replace(cfg, data=data)
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
    return written


def cmd_sweep_density(ckpt, data: str | None = None, densities=None,
                      seed: int | None = None, out=None):
    model, cfg = load_checkpoint(ckpt)
    if densities is None:
        densities = (256, 128, 64, 32) if cfg.source() == "synthetic" else (1024, 512, 256, 128)
    reports = []
    for d in densities:
        reports.append(cmd_eval(ckpt, data=data, density=int(d), seed=seed, out=None))
    print(f"{'density':>8} {'accuracy':>9}")
    for r in reports:
        print(f"{r['density']:>8} {r['accuracy']:>9.4f}")
    if out:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "density_sweep.jsonl", "w") as fh:
            for r in reports:
                fh.write(json.dumps(r) + "\n")
    return reports


# --- argument parsing ---

def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="rng seed (default: checkpoint seed)")
    p.add_argument("--data", default=None,
                   help="synthetic or modelnet40:<dir> (default: checkpoint source)")
    p.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mulfree",
                                description="multiplication-free point-cloud classifiers")
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("train", help="train a variant and write a run directory")
    t.add_argument("--variant", choices=VARIANTS, default=None, help="default sa")
    t.add_argument("--data", default=None, help="synthetic or modelnet40:<dir> (default synthetic)")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", default=None)
    t.add_argument("--no-augment", action="store_true")
    t.add_argument("--config", default=None, help="INI file overriding the defaults")
    t.add_argument("--synth-per-class", type=int, default=None)
    t.add_argument("--synth-points", type=int, default=None)

    e = sub.add_parser("eval", help="accuracy report for a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--density", type=int, choices=DENSITY_CHOICES, default=None)
    e.add_argument("--batch-size", type=int, default=None)
    _add_common(e)

    g = sub.add_parser("grad-report", help="per-layer gradient RMS table")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--batches", type=int, default=4)
    _add_common(g)

    x = sub.add_parser("export", help="weight histograms, pooled features, packed shift weights")
    x.add_argument("--ckpt", required=True)
    x.add_argument("--what", choices=("weights_hist", "features", "packed_shift"), required=True)
    x.add_argument("--data", default=None)
    x.add_argument("--out", required=True)

    s = sub.add_parser("sweep-density", help="evaluate one checkpoint across densities")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--densities", default=None, help="comma-separated point counts")
    _add_common(s)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "train":
            cfg = config_from_ini(Path(args.config).read_text()) if args.config else RunConfig()
            updates = {}
            for key in ("variant", "data", "epochs", "batch_size", "seed", "out",
                        "synth_per_class", "synth_points"):
                val = getattr(args, key)
                if val is not None:
                    updates[key] = val
            if args.no_augment:
                updates["augment"] = False
            cfg = replace(cfg, **updates)
            out_dir = cmd_train(cfg)
            print(f"run directory: {out_dir}")
        elif args.cmd == "eval":
            report = cmd_eval(args.ckpt, data=args.data, density=args.density,
                              seed=args.seed, out=args.out, batch_size=args.batch_size)
            print(json.dumps(report, indent=1))
        elif args.cmd == "grad-report":
            cmd_grad_report(args.ckpt, data=args.data, batches=args.batches,
                            seed=args.seed, out=args.out)
        elif args.cmd == "export":
            for path in cmd_export(args.ckpt, args.what, args.out, data=args.data):
                print(path)
        elif args.cmd == "sweep-density":
            densities = None
            if args.densities:
                densities = tuple(int(v) for v in args.densities.split(","))
            cmd_sweep_density(args.ckpt, data=args.data, densities=densities,
                              seed=args.seed, out=args.out)
    except (MulfreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
