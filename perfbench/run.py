#!/usr/bin/env python3
"""Benchmark of mulfree, driven through the program's public entry points.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 15 --trace 0

Run from the repository root. Workloads (README.md says why each):

  desk-train   `mulfree train --variant sa` on the synthetic desk preset
  full-train   `mulfree train --variant sa` on seeded OFF meshes at the
               paper's geometry (1024 points, k=16, default widths), batch 2
  shift-eval   float evaluation of a short-trained `shift` checkpoint; its
               Q16.16 integer path is checked and traced, not timed

A run repeats the workload's timed operation until --seconds of it have
been measured, sets up SETUP_REPS times spread over that span (`setup_s`
is their median), then checks the outputs. With --trace 0 the last stdout
line is a JSON object with the end-to-end metrics; with --trace 1 the
workload runs once more under the span tracer (spans.py), shift-eval adds
traced fixed-point passes, and the JSON holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import meshes
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 11
TRAIN_EPOCHS = 2  # the fewest that let the loss check compare two epochs
FULL_BATCH = 2
FULL_TRAIN_PER_CLASS, FULL_TEST_PER_CLASS = 1, 1
# batch 16 for two epochs trained every seed tried to >= 95 % test accuracy;
# three epochs at batch 32 left some seeds at chance
SHIFT_PREP = ["--epochs", "2", "--batch-size", "16"]
EVAL_BATCH = 32
KERNEL_ROWS = 16  # rows per shift layer checked against the exact sum
# ~20x the largest float-vs-fixed logit gap seen (7e-4); a kernel off by
# more than a few ulps per output, or a wrong exponent, exceeds it
FIXED_LOGIT_TOL = 2.0 ** -6


class Run:
    """One benchmark run: the seed, a scratch directory and the tally of
    operations (training commands, evaluation passes, checks)."""

    def __init__(self, seed: int, seconds: float, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.tracer: Tracer | None = None

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(sys.stderr):
                return fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None

    def check(self, what: str, fn, *args):
        """Run one correctness check; a wrong output is recorded, not raised."""
        self.attempted += 1
        try:
            result = fn(*args)
        except checks.CheckFailed as exc:
            self.wrong.append(f"{what}: {exc}")
            print(f"CHECK FAILED {what}: {exc}", file=sys.stderr)
            return None
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if result is not None:
            print(f"check {what}: ok ({result:.4g})")
        return result

    def phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.phase = name


def cli_train(run: Run, argv: list[str]) -> float | None:
    """`mulfree train ...` in-process; returns its wall time, None if it failed."""
    from mulfree import cli
    t0 = time.perf_counter()
    rc = run.op(cli.main, ["train", *argv])
    dt = time.perf_counter() - t0
    if rc != 0:
        if rc is not None:
            run.failed += 1
        return None
    return dt


def own_logits(model, points, batch: int) -> np.ndarray:
    return np.concatenate([model.forward(points[i:i + batch], train=False)
                           for i in range(0, len(points), batch)])


class Workload:
    """prepare() makes the inputs (untimed), setup() is one timed set-up,
    op() one timed operation that appends its throughput to `rates`,
    check() the correctness checks on what the operations produced."""

    primary_mode = ""

    def __init__(self, run: Run):
        self.run = run
        self.rates: list[float] = []
        self.batches = 0

    def prepare(self) -> None:
        pass


class TrainWorkload(Workload):
    """desk-train and full-train: `train --epochs 0` is the set-up, a whole
    `train` command is the timed operation."""

    primary_mode = "train"

    def __init__(self, run: Run):
        super().__init__(run)
        self.run_dirs: list[Path] = []
        self.setups = 0

    def argv(self) -> list[str]:
        raise NotImplementedError

    def reset_setup(self) -> None:
        pass

    def setup(self) -> float | None:
        from mulfree import cli
        self.reset_setup()
        out = self.run.work / f"setup{self.setups}"
        self.setups += 1
        dt = cli_train(self.run, [*self.argv(), "--epochs", "0", "--out", str(out)])
        if dt is not None and not hasattr(self, "train_ds"):
            cfg = cli.config_from_ini((out / "config.ini").read_text())
            self.train_ds, self.test_ds, _ = cli.load_datasets(cfg)
        return dt

    def op(self) -> None:
        out = self.run.work / f"train{len(self.run_dirs)}"
        self.run_dirs.append(out)
        dt = cli_train(self.run, [*self.argv(), "--epochs", str(TRAIN_EPOCHS),
                                  "--out", str(out)])
        if dt is not None:
            self.rates.append(len(self.train_ds) * TRAIN_EPOCHS / dt)

    def check(self) -> None:
        from mulfree import cli
        run = self.run
        for out in self.run_dirs:
            if not (out / "ckpt_last.bin").exists():
                continue
            records = [json.loads(line) for line in
                       (out / "metrics.jsonl").read_text().splitlines()]
            run.check(f"{out.name} training log", checks.training_log, records)
            loaded = run.op(cli.load_checkpoint, out / "ckpt_last.bin")
            if loaded is None:
                continue
            model, cfg = loaded
            logits = run.op(own_logits, model, self.test_ds.points, cfg.batch_size)
            if logits is not None:
                run.check(f"{out.name} checkpoint accuracy", checks.same_accuracy,
                          checks.accuracy(logits, self.test_ds.labels),
                          records[-1]["test_acc"], len(self.test_ds), "last test_acc")


class DeskTrain(TrainWorkload):
    def argv(self):
        return ["--variant", "sa", "--seed", str(self.run.seed)]


class FullTrain(TrainWorkload):
    def prepare(self):
        self.meshes = self.run.work / "meshes"
        meshes.write_dataset(self.meshes, self.run.seed,
                             FULL_TRAIN_PER_CLASS, FULL_TEST_PER_CLASS)

    def argv(self):
        return ["--variant", "sa", "--data", f"modelnet40:{self.meshes}",
                "--batch-size", str(FULL_BATCH), "--seed", str(self.run.seed)]

    def reset_setup(self):
        # every set-up ingests cold; the timed commands then read the cache
        shutil.rmtree(self.meshes / "sapc_cache", ignore_errors=True)

    def check(self):
        super().check()
        from mulfree import data
        loaded = self.run.op(data.load_dataset, self.meshes / "sapc_cache")
        if loaded is None:
            return
        train, test, manifest = loaded
        for split, ds, ids in (("train", train, manifest.train_ids),
                               ("test", test, manifest.test_ids)):
            self.run.check(f"{split} clouds normalized", checks.normalized_clouds, ds.points)
            self.run.check(f"{split} label order", checks.label_order,
                           manifest.class_names, ids, ds.labels, meshes.CLASSES)


class ShiftWorkload(Workload):
    """A `shift` checkpoint trained before timing by the program's own train
    command, in a child process so that neither its memory peak nor its
    spans count here. Set-up is the checkpoint load plus the test split
    load; the subclasses time one way of classifying the test split."""

    def prepare(self):
        self.ckpt = self.run.work / "shift" / "ckpt_best.bin"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        argv = [sys.executable, "-m", "mulfree", "train", "--variant", "shift", *SHIFT_PREP,
                "--seed", str(self.run.seed), "--out", str(self.ckpt.parent)]
        proc = self.run.op(subprocess.run, argv, env=env, stdout=sys.stderr)
        if proc is not None and proc.returncode != 0:
            self.run.failed += 1
        if not self.ckpt.exists():
            raise SystemExit("perfbench: the shift checkpoint was not written")

    def setup(self) -> float | None:
        from mulfree import cli

        def load():
            model, cfg = cli.load_checkpoint(self.ckpt)
            return model, cli.load_datasets(cfg)[1]

        t0 = time.perf_counter()
        loaded = self.run.op(load)
        dt = time.perf_counter() - t0
        if loaded is None:
            return None
        self.model, self.test_ds = loaded
        return dt


class ShiftEval(ShiftWorkload):
    """Float `evaluate` passes are the timed operation. The Q16.16 integer
    path of the same checkpoint is checked after timing and traced, but not
    timed end to end: its throughput did not repeat on a shared host."""

    primary_mode = "eval"

    def __init__(self, run: Run):
        super().__init__(run)
        self.accs: list[float] = []

    def op(self):
        from mulfree import cli
        n = len(self.test_ds)
        t0 = time.perf_counter()
        result = self.run.op(cli.evaluate, self.model, self.test_ds, EVAL_BATCH)
        dt = time.perf_counter() - t0
        self.batches += -(-n // EVAL_BATCH)
        if result is not None:
            self.rates.append(n / dt)
            self.accs.append(result[0])

    def fixed_pass(self) -> np.ndarray:
        """Logits of the test split through forward(fixed_shift=True)."""
        pts = self.test_ds.points
        return np.concatenate([self.model.forward(pts[i:i + EVAL_BATCH], train=False,
                                                  fixed_shift=True)
                               for i in range(0, len(pts), EVAL_BATCH)])

    def kernel_calls(self, points) -> list:
        """(x_fixed, s, p, out) of every integer kernel call in one fixed pass."""
        from mulfree import shiftquant
        calls, kernel = [], shiftquant.fixed_shift_affine

        def recording(x_fixed, s, p):
            out = kernel(x_fixed, s, p)
            calls.append((x_fixed, s, p, out[0]))
            return out

        shiftquant.fixed_shift_affine = recording
        try:
            self.model.forward(points, train=False, fixed_shift=True)
        finally:
            shiftquant.fixed_shift_affine = kernel
        return calls

    def check(self):
        run, ds = self.run, self.test_ds
        logits = run.op(own_logits, self.model, ds.points, EVAL_BATCH)
        if logits is None:
            return
        own = checks.accuracy(logits, ds.labels)
        for i, acc in enumerate(self.accs):
            run.check(f"evaluate pass {i} accuracy", checks.same_accuracy, own, acc,
                      len(ds), "evaluate")
        run.check("checkpoint above chance", checks.above_chance, own,
                  len(ds.class_names), len(ds))
        calls = run.op(self.kernel_calls, ds.points[:EVAL_BATCH])
        rng = np.random.default_rng(run.seed)
        for layer, (x_fixed, s, p, out) in enumerate(calls or []):
            rows = x_fixed.reshape(-1, x_fixed.shape[-1])
            pick = rng.choice(len(rows), size=min(KERNEL_ROWS, len(rows)), replace=False)
            run.check(f"shift layer {layer} kernel", checks.fixed_kernel, rows[pick], s, p,
                      out.reshape(-1, out.shape[-1])[pick])
        # the float forward groups the same neighbours as the fixed pass
        fixed = run.op(self.fixed_pass)
        if fixed is not None:
            run.check("fixed vs float logits", checks.logits_close, fixed, logits,
                      FIXED_LOGIT_TOL)

    def traced_fixed(self, seconds: float) -> int:
        """Fixed-point passes for at least `seconds`; returns the batches run."""
        spent, batches = 0.0, 0
        while spent == 0.0 or spent < seconds:
            t0 = time.perf_counter()
            self.run.op(self.fixed_pass)
            spent += time.perf_counter() - t0
            batches += -(-len(self.test_ds) // EVAL_BATCH)
        return batches


WORKLOADS = {"desk-train": DeskTrain, "full-train": FullTrain, "shift-eval": ShiftEval}


def end_to_end(run: Run, wl: Workload) -> tuple[dict, float]:
    """Time the workload's operations until --seconds are measured, with the
    set-ups spread over that span so that their median does not rest on one
    moment of a shared host. Returns the metrics and the measured time."""
    wl.rates, wl.batches = [], 0
    setups, tried = [], 0

    def setup():
        nonlocal tried
        tried += 1
        run.phase("setup")
        dt = wl.setup()
        if dt is not None:
            setups.append(dt)
        run.phase("timed")

    setup()
    spent, every = 0.0, run.seconds / SETUP_REPS
    while spent == 0.0 or spent < run.seconds:
        t0 = time.perf_counter()
        wl.op()
        spent += time.perf_counter() - t0
        while tried < SETUP_REPS and spent >= tried * every:
            setup()
    while tried < SETUP_REPS:
        setup()
    if not setups or not wl.rates:
        raise SystemExit("perfbench: no set-up or timed operation succeeded")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "clouds_per_s": (statistics.median(wl.rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, spent


def per_layer(tr: Tracer, primary: str, units: int, spent: float, overhead: float,
              fixed_units: int) -> dict:
    """Per-layer metrics of the traced timed phase, per training step or per
    evaluation batch (`units`), and of the fixed-point phase per batch
    (`fixed_units`); README.md defines each."""
    T, F = "timed", "fixed"
    modes = (primary,)

    def per_unit(seconds):
        return 1e3 * seconds / units if units else 0.0

    def per_fixed(seconds):
        return 1e3 * seconds / fixed_units if fixed_units else 0.0

    def mean_ms(st, field="incl_s"):
        return 1e3 * getattr(st, field) / st.calls if st.calls else 0.0

    def forward_excl_knn(mode, phase=T):
        fwd = tr.select("models.forward", phase, (mode,))
        return fwd, fwd.incl_s - tr.select("models.knn", phase, (mode,)).incl_s

    knn = tr.select("models.knn", T)
    clouds = tr.total_count("models.knn_clouds", T)
    m = {
        "models.knn_ms": (1e3 * knn.self_s / clouds * 32 if clouds else 0.0, "ms"),
        "models.knn_calls": (knn.calls / units if units else 0.0, "count"),
        "models.forward_ms": (per_unit(forward_excl_knn("train")[1]), "ms"),
        "models.backward_ms": (per_unit(tr.select("models.backward", T).incl_s), "ms"),
    }
    for name, mode, phase in (("models.eval_forward_ms", "eval", T),
                              ("models.fixed_forward_ms", "fixed", F)):
        fwd, excl = forward_excl_knn(mode, phase)
        m[name] = (1e3 * excl / fwd.calls if fwd.calls else 0.0, "ms")
    for kind in ("adder", "shift", "mul", "norm", "pool", "relu"):
        for meth in ("forward", "backward"):
            st = tr.select(f"layers.{kind}.{meth}", T, modes)
            m[f"layers.{kind}.{meth}_ms"] = (per_unit(st.self_s), "ms")
    m["layers.shift.fixed_ms"] = (per_fixed(tr.select("layers.shift.fixed", F).self_s), "ms")
    m["layers.encoder2.backward_ms"] = (per_unit(tr.select(
        "layers.encoder2.backward", T, stats=tr.instance_stats).self_s), "ms")
    for name in ("pairwise_l1_neg", "affine_map"):
        m[f"tensor.{name}_ms"] = (per_unit(tr.select(f"tensor.{name}", T, modes).self_s), "ms")
    for name in ("fixed_shift_affine", "to_fixed"):
        m[f"shiftquant.{name}_ms"] = (per_fixed(tr.select(f"shiftquant.{name}", F).self_s), "ms")
    for name in ("int_macs", "needed_macs", "saturated"):
        total = tr.total_count(f"shiftquant.{name}", F)
        m[f"shiftquant.{name}"] = (total / fixed_units if fixed_units else 0.0, "count")
    m["optim.step_ms"] = (per_unit(tr.select("optim.step", T).incl_s), "ms")
    m["data.synth_shapes_s"] = (mean_ms(tr.select("data.synth_shapes")) / 1e3, "s")
    m["data.ingest_s"] = (mean_ms(tr.select("data.ingest", "setup")) / 1e3, "s")
    m["data.parse_off_ms"] = (mean_ms(tr.select("data.parse_off")), "ms")
    m["data.sample_mesh_ms"] = (mean_ms(tr.select("data.sample_mesh")), "ms")
    m["data.cache_read_s"] = (mean_ms(tr.select("data.cache_read")) / 1e3, "s")
    m["data.augment_ms"] = (mean_ms(tr.select("data.augment", T)), "ms")
    m["cli.evaluate_s"] = (mean_ms(tr.select("cli.evaluate", T)) / 1e3, "s")
    m["cli.save_checkpoint_ms"] = (mean_ms(tr.select("cli.save_checkpoint")), "ms")
    m["cli.load_checkpoint_ms"] = (mean_ms(tr.select("cli.load_checkpoint")), "ms")
    covered = sum(st.self_s for (ph, _, _), st in tr.stats.items() if ph == T)
    m["trace.step_ms"] = (per_unit(spent), "ms")
    m["trace.unaccounted_ms"] = (per_unit(spent - covered), "ms")
    m["trace.overhead_pct"] = (overhead, "%")
    return m


def print_breakdown(tr: Tracer, phase: str, unit: str, units: int, spent: float) -> None:
    """Self time per unit of every span of one phase; with the unaccounted
    remainder they add up to the measured time per unit."""
    units = max(units, 1)
    rows = sorted(((st.self_s, mode, name, st.calls) for (ph, mode, name), st in
                   tr.stats.items() if ph == phase), reverse=True)
    print(f"traced {phase} phase: {units} {unit}(s), {1e3 * spent / units:.2f} ms per {unit}")
    print(f"  {'mode':<6} {'span':<32} {'calls/' + unit:>12} {'self ms/' + unit:>14}")
    for self_s, mode, name, calls in rows:
        print(f"  {mode:<6} {name:<32} {calls / units:>12.2f} {1e3 * self_s / units:>14.3f}")
    covered = sum(r[0] for r in rows)
    print(f"  sum of self times {1e3 * covered / units:.2f} ms, unaccounted "
          f"{1e3 * (spent - covered) / units:.2f} ms per {unit} "
          f"({100 * (spent - covered) / spent:.1f} %)")


def reference_line(rates: list[float]) -> str:
    """Median throughput of the operations, plus the slow-side percentile
    that keeps at least ten samples beyond it, with the sample count."""
    n = len(rates)
    text = f"n={n} median {statistics.median(rates):.4g} clouds/s"
    if n >= 40:
        q = 10.0 / n
        text += f", p{100 * q:.0f} {sorted(rates)[int(q * n)]:.4g} clouds/s"
    return text


def blas_threads() -> str:
    """Thread count the OpenBLAS bundled with numpy reports, if it can be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, name):
                return str(getattr(handle, name)())
    return "unknown"


def host_line() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"host: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
            f"numpy {np.__version__}, BLAS {info.get('name')} {info.get('version')} "
            f"with {blas_threads()} threads")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "mulfree" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC / 'mulfree'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    run = Run(args.seed, args.seconds, work)
    try:
        print(host_line())
        wl = WORKLOADS[args.workload](run)
        run.phase("prepare")
        wl.prepare()
        metrics, spent = end_to_end(run, wl)
        print(f"{args.workload}: per-operation throughput {reference_line(wl.rates)}")
        run.phase("check")
        wl.check()
        if args.trace:
            # the same workload once more under the tracer; its checks ran above
            tr = run.tracer = Tracer()
            tr.install()
            fixed_units = 0
            try:
                traced, spent = end_to_end(run, wl)
                if isinstance(wl, ShiftEval):
                    run.phase("fixed")
                    t0 = time.perf_counter()
                    fixed_units = wl.traced_fixed(run.seconds / 4)
                    fixed_spent = time.perf_counter() - t0
            finally:
                tr.uninstall()
            overhead = 100.0 * (metrics["clouds_per_s"][0] / traced["clouds_per_s"][0] - 1.0)
            if wl.primary_mode == "train":
                unit, units = "step", tr.select("models.backward", "timed").calls
            else:
                unit, units = "batch", wl.batches
            print_breakdown(tr, "timed", unit, units, spent)
            if fixed_units:
                print_breakdown(tr, "fixed", "batch", fixed_units, fixed_spent)
            for name in tr.missing:
                print(f"not traced, name not found: {name}")
            metrics = per_layer(tr, wl.primary_mode, units, spent, overhead, fixed_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    if run.wrong:
        print(f"{len(run.wrong)} check(s) found wrong outputs", file=sys.stderr)
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
