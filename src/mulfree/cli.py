"""Command-line harness: train, eval, grad-report, export.

A run directory holds the resolved config (written before training), a
line-delimited metrics file, and best/last checkpoints in a self-contained
binary format: the config, a (name, dtype, shape, float32 payload) record
per state tensor, and a CRC. Loading builds the model from the config and
checks each record against its tensor; a record that differs, or a byte
after the last, is an error.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import resource
import struct
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import shiftquant
from .data import (MAX_CLOUD_POINTS, PointDataset, augment, ingest_modelnet40,
                   subsample_density, synth_shapes)
from .errors import CacheError, ConfigError, MulfreeError, TrainingDivergedError
from .framing import unframe, write_file, write_framed
from .layers import AdderLinear, ShiftLinear, quantize_shift
from .models import ModelConfig, build_model
from .optim import ETA, build_optimizers, modulate_gradient, route_parameters
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
    # model overrides; None picks the per-source preset
    embed_widths: tuple[int, ...] | None = None
    encoder_widths: tuple[int, ...] | None = None
    head_widths: tuple[int, ...] | None = None
    knn_k: int | None = None
    points: int | None = None
    # data: synthetic clouds per class; the class names, one head output each
    synth_per_class: int = 160
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        for key, least in (("batch_size", 1), ("seed", 0), ("epochs", 0), ("synth_per_class", 1)):
            val = getattr(self, key)
            if val is not None and val < least:
                raise ConfigError(f"{key} must be >= {least}, got {val}")
        source, _, root = self.data.partition(":")
        if self.data != "synthetic" and not (source == "modelnet40" and root):
            raise ConfigError(f"data must be synthetic or modelnet40:<dir>, got {self.data!r}")
        # config.ini must read each back as itself: it strips values, splits lists at commas
        texts = [("data", self.data)] + [("class name", n) for n in self.class_names or ()]
        for what, text in texts:
            why = ("is empty" if not text else "is padded with whitespace" if text != text.strip()
                   else "holds a line break" if len(text.splitlines()) > 1
                   else "holds a comma" if what != "data" and "," in text
                   else "holds a non-UTF-8 byte" if text.encode(errors="replace").decode() != text
                   else None)
            if why:
                raise ConfigError(f"{what} {text!r} {why}, so config.ini cannot hold it")
        if self.points is not None and self.points > MAX_CLOUD_POINTS:
            raise ConfigError(f"points must be <= {MAX_CLOUD_POINTS}, the largest cloud a "
                              f"cache record holds, got {self.points}")
        self.model_config()  # ModelConfig checks the architecture

    def source(self) -> str:
        return self.data.split(":", 1)[0]

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return EPOCH_DEFAULTS[self.source()]

    def model_config(self) -> ModelConfig:
        base = SYNTH_MODEL if self.source() == "synthetic" else ModelConfig()
        over = {"points_in" if key == "points" else key: getattr(self, key)
                for key in _SECTIONS["model"] if getattr(self, key) is not None}
        if self.class_names is not None:  # no class at all fails ModelConfig's check
            over["num_classes"] = len(self.class_names)
        return replace(base, variant=self.variant, **over)


# the INI file layout; `out` stays out, so a run's files do not depend on where it ran
_SECTIONS = {
    "run": ("variant", "data", "epochs", "batch_size", "seed"),
    "model": ("embed_widths", "encoder_widths", "head_widths", "knn_k", "points"),
    "data": ("synth_per_class", "class_names"),
}
_HINTS = get_type_hints(RunConfig)


# values as written (no `%` interpolation); no section is special, so [DEFAULT] is unknown
_ini_parser = partial(configparser.ConfigParser, interpolation=None, default_section=None)


def config_to_ini(cfg: RunConfig) -> str:
    parser = _ini_parser()
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
    parser = _ini_parser()
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
    return hint(raw)


# --- datasets ---

def load_datasets(cfg: RunConfig):
    """(train, test, manifest); classes other than the config's, when it names them,
    raise ConfigError, since each head output stands for one named class."""
    points = cfg.model_config().points_in  # `points`, else 256 or 1024 by source
    if cfg.source() == "modelnet40":
        splits = ingest_modelnet40(cfg.data.split(":", 1)[1], points)
    else:
        splits = synth_shapes(cfg.synth_per_class, points, cfg.seed)
        if not len(splits[1]):
            raise ConfigError(f"synth_per_class {cfg.synth_per_class} leaves the test split empty")
    found = tuple(splits[0].class_names)
    if cfg.class_names and found != cfg.class_names:
        raise ConfigError(f"data {cfg.data} has classes {', '.join(found)}, but the config "
                          f"names {', '.join(cfg.class_names)}")
    return splits


# --- checkpoints ---

def _record_header(name: str, shape: tuple) -> bytes:
    """Name length (u16), name, dtype code 0 (float32), rank (u8), dims (u32 each)."""
    name_b = name.encode()
    return struct.pack(f"<H{len(name_b)}sBB{len(shape)}I", len(name_b), name_b, 0,
                       len(shape), *shape)


def save_checkpoint(path, model, config_text: str) -> None:
    """Streams the tensors' own bytes to the file: no copy of the model is made."""
    cfg_bytes = config_text.encode()
    items = model.state_items()
    parts = [struct.pack("<HI", 1, len(cfg_bytes)), cfg_bytes, struct.pack("<I", len(items))]
    for name, arr in items:
        arr = np.ascontiguousarray(arr, np.float32)
        parts += [_record_header(name, arr.shape), memoryview(arr).cast("B")]
    write_framed(path, CKPT_MAGIC, parts)


def _expect(body: bytes, off: int, want: bytes, what: str, path, payload: int = 0) -> int:
    """The offset past `want`, which the body must hold at `off`, then `payload` bytes."""
    end = off + len(want)
    if not want.startswith(body[off:end]):
        raise ConfigError(f"{path}: checkpoint tensor {what}")
    if end + payload > len(body):
        raise CacheError(f"{path}: truncated checkpoint")
    return end


def load_checkpoint(path):
    """Returns (model, run_cfg). The embedded config builds the model; each record must
    start with the header of that model's tensor in its place, and fills that tensor."""
    body = unframe(Path(path).read_bytes(), CKPT_MAGIC, CacheError, f"{path}: checkpoint",
                   min_body=6)
    version, cfg_len = struct.unpack_from("<HI", body)
    if version != 1:
        raise CacheError(f"{path}: unsupported checkpoint version {version}")
    off = 6 + cfg_len
    try:
        run_cfg = config_from_ini(body[6:off].decode())
    except UnicodeDecodeError as exc:
        raise CacheError(f"{path}: checkpoint config is not UTF-8") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    model = build_model(run_cfg.model_config(), substream(run_cfg.seed, 0))
    items = model.state_items()
    off = _expect(body, off, struct.pack("<I", len(items)),
                  f"count is not the model's {len(items)}", path)
    for name, arr in items:
        off = _expect(body, off, _record_header(name, arr.shape),
                      f"record is not the model's {name!r}, shape {arr.shape}", path, arr.nbytes)
        arr[...] = np.frombuffer(body, np.float32, arr.size, off).reshape(arr.shape)
        off += arr.nbytes
    if off != len(body):
        raise CacheError(f"{path}: {len(body) - off} bytes after the last checkpoint tensor")
    return model, run_cfg


# --- evaluation ---

def evaluate(model, ds: PointDataset, batch_size: int):
    """Eval-mode accuracy over a dataset, forwarded `batch_size` clouds at a
    time; returns (accuracy, per-class dict)."""
    correct, total = np.zeros((2, len(ds.class_names)), np.int64)
    for start in range(0, len(ds), batch_size):
        pts = ds.points[start : start + batch_size]
        labels = ds.labels[start : start + batch_size]
        pred = np.argmax(model.forward(pts, train=False), axis=1)
        total += np.bincount(labels, minlength=len(total))
        correct += np.bincount(labels[pred == labels], minlength=len(total))
    acc = float(correct.sum() / max(total.sum(), 1))
    per_class = {name: float(correct[i] / total[i]) if total[i] else None
                 for i, name in enumerate(ds.class_names)}
    return acc, per_class


def _grad_rms(g: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.asarray(g, np.float64) ** 2)))


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
    cfg = replace(cfg, class_names=tuple(train_ds.class_names))
    model_cfg = cfg.model_config()
    out_dir = Path(cfg.out or f"runs/{cfg.variant}_{cfg.source()}_s{cfg.seed}")
    config_text = config_to_ini(cfg)
    write_file(out_dir / "config.ini", [config_text.encode()])

    model = build_model(model_cfg, substream(cfg.seed, 0))
    optimizers = build_optimizers(route_parameters(model), max(epochs, 1))
    shuffle_rng = substream(cfg.seed, 1)
    augment_rng = substream(cfg.seed, 2)

    best_acc = -1.0
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
                pts = augment(train_ds.points[sel], augment_rng)
                labels = train_ds.labels[sel]
                loss, logits = backprop_batch(model, pts, labels, rms_sums, f"epoch {epoch}")
                for opt, _ in optimizers:
                    opt.step(lrs[opt.kind])
                loss_sum += loss * len(sel)
                correct += int((np.argmax(logits, axis=1) == labels).sum())
                steps += 1
            t_train = time.perf_counter()
            test_acc, _ = evaluate(model, test_ds, cfg.batch_size)
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

def _open_checkpoint(ckpt, data: str | None = None):
    """(model, cfg) for a report. `data` replaces the checkpoint's source, so
    RunConfig checks it; the clouds keep the model's input size."""
    model, cfg = load_checkpoint(ckpt)
    if data is not None:
        cfg = replace(cfg, data=data, points=model.cfg.points_in)
    return model, cfg


def _density_report(ckpt, model, cfg: RunConfig, test_ds: PointDataset,
                    density: int | None) -> dict:
    """Accuracy on the test split, subsampled to `density` points per cloud."""
    full = test_ds.points.shape[1]
    if density is not None and density != full:
        if not 1 <= density <= full:
            raise ConfigError(f"density {density} outside [1, {full}], the cached cloud size")
        rng = substream(cfg.seed, 200 + density)
        test_ds = PointDataset(
            np.stack([subsample_density(p, density, rng) for p in test_ds.points]),
            test_ds.labels, test_ds.class_names)
    acc, per_class = evaluate(model, test_ds, cfg.batch_size)
    return {"checkpoint": str(ckpt), "density": density or full,
            "accuracy": acc, "per_class": per_class}


def cmd_eval(ckpt, data: str | None = None, densities=None, out=None):
    """One report per density (default: the cloud size), printed as one JSON
    line each and, with `out`, written to `out/eval.jsonl`; returns the reports."""
    model, cfg = _open_checkpoint(ckpt, data)
    _, test_ds, _ = load_datasets(cfg)
    reports = [_density_report(ckpt, model, cfg, test_ds, d) for d in densities or [None]]
    text = "".join(json.dumps(r) + "\n" for r in reports)
    print(text, end="")
    if out:
        write_file(Path(out) / "eval.jsonl", [text.encode()])
    return reports


def cmd_grad_report(ckpt, data: str | None = None, batches: int = 4, out=None):
    """Per-layer RMS of raw weight gradients; adder layers also report the
    post-modulation RMS (identically ETA by construction). A non-finite
    loss raises TrainingDivergedError, as in training."""
    if batches < 0:
        raise ConfigError(f"batches must be >= 0, got {batches}")
    model, cfg = _open_checkpoint(ckpt, data)
    raw: dict[str, float] = {}
    mod: dict[str, float] = {}
    if batches > 0:
        train_ds, _, _ = load_datasets(cfg)
        rng = substream(cfg.seed, 3)
        for b in range(batches):
            sel = rng.choice(len(train_ds), size=min(cfg.batch_size, len(train_ds)),
                             replace=False)
            backprop_batch(model, train_ds.points[sel], train_ds.labels[sel], raw, f"batch {b}")
            for name, layer in model.instrumented_layers():
                if isinstance(layer, AdderLinear):
                    mod[name] = mod.get(name, 0.0) + _grad_rms(
                        modulate_gradient(layer.w.grad, ETA))
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
        write_file(Path(out) / "grad_report.json", [json.dumps(rows, indent=1).encode()])
        write_file(Path(out) / "grad_report.txt", [f"{text}\n".encode()])
    return rows


def _csv(rows) -> bytes:
    """Rows of fields that need no quoting, comma-separated, each ended by CRLF."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in rows).encode()


def cmd_export(ckpt, what: str, out, data: str | None = None):
    """Build every file of the export, then write them, so a failed export writes none."""
    model, cfg = _open_checkpoint(ckpt, data)
    files = {}
    if what == "features":
        _, test_ds, _ = load_datasets(cfg)
        outputs, feats = {}, []
        for start in range(0, len(test_ds), cfg.batch_size):
            model.forward(test_ds.points[start : start + cfg.batch_size], train=False,
                          observe=outputs.__setitem__)
            feats.append(outputs["global_pool"])
        feats = np.concatenate(feats)
        files["features.csv"] = _csv([["label"] + [f"f{i}" for i in range(feats.shape[1])]]
                                     + [[lab] + [f"{v:.7g}" for v in row]
                                        for lab, row in zip(test_ds.labels, feats)])
    elif what in ("weights_hist", "packed_shift"):
        layers = [(n, l) for n, l in model.linear_layers()
                  if what == "weights_hist" or isinstance(l, ShiftLinear)]
        if not layers:
            raise ConfigError(f"model variant {cfg.variant!r} has no shift layers to pack")
        for name, layer in layers:  # no histogram bin or 5-bit code stands for it
            if not np.all(np.isfinite(layer.w.data)):
                raise TrainingDivergedError(f"{ckpt}: layer {name} holds a non-finite weight")
        for name, layer in layers:
            w = layer.w.data
            if what == "packed_shift":
                files[f"{name}.saq1"] = shiftquant.pack_weights(*quantize_shift(w)[:2])
            else:
                values = (quantize_shift(w)[2] if isinstance(layer, ShiftLinear) else w).ravel()
                files[f"{name}.values.csv"] = _csv([["value"]] + [[f"{v:.9g}"] for v in values])
                counts, edges = np.histogram(values, bins=64)
                files[f"{name}.hist.csv"] = _csv(
                    [["bin_left", "bin_right", "count"]]
                    + [[f"{edges[i]:.9g}", f"{edges[i + 1]:.9g}", counts[i]] for i in range(64)])
    else:
        raise ConfigError(f"unknown export kind {what!r}")
    written = [Path(out) / name for name in files]
    for path in written:
        write_file(path, [files[path.name]])
        print(path)
    return written


def _train(config=None, **overrides):
    """`train`: the --config file (or the defaults), then each given flag replaces its field."""
    cfg = RunConfig()
    if config:
        try:
            cfg = config_from_ini(Path(config).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{config}: config file is not UTF-8") from exc
        except ConfigError as exc:  # a flag's error below names the flag's field instead
            raise ConfigError(f"{config}: {exc}") from exc
    print(f"run directory: {cmd_train(replace(cfg, **overrides))}")


def _eval(densities=None, **kwargs):
    """`eval`: --densities is a comma-separated list of point counts."""
    try:
        parsed = tuple(int(v) for v in densities.split(",")) if densities else None
    except ValueError as exc:
        raise ConfigError(f"--densities {densities!r}: {exc}") from exc
    cmd_eval(densities=parsed, **kwargs)


# --- argument parsing ---

def _add_common(p):
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
    t.add_argument("--config", help="INI file overriding the defaults")
    t.add_argument("--synth-per-class", type=int)
    t.add_argument("--points", type=int)

    e = sub.add_parser("eval", help="accuracy report per point density for a checkpoint")
    e.set_defaults(run=_eval)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--densities", default=None,
                   help="comma-separated point counts (default: the cached cloud size)")
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
    return p


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    run = args.pop("run")
    try:
        run(**args)
    except (MulfreeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
