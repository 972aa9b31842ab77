"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale training
criteria train all four variants on the synthetic dataset (seed 7,
512 train / 128 test clouds of 256 points); the full-benchmark numbers are
documented as best-effort and exercised only through a miniature directory.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from mulfree.cli import RunConfig, cmd_eval, cmd_grad_report, cmd_train, load_checkpoint, main
from mulfree.layers import (AdderLinear, BatchNorm, MaxPool, MulLinear, ReLU,
                            ShiftLinear, quantize_shift)
from mulfree.models import ModelConfig, build_model
from mulfree.optim import modulate_gradient
from mulfree.shiftquant import (codes_from_sign_exp, shift_affine_fixed,
                                sign_exp_from_codes)
from mulfree.tensor import (affine_map, make_rng, pairwise_l1_neg,
                            softmax_cross_entropy, substream)

from gradcheck import assert_grad_close, central_diff
from test_data import make_fake_modelnet


@contextmanager
def report(num, desc):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {desc}")
        raise
    print(f"\n[PASS] criterion {num}: {desc}")


# training the four desk-scale variants is shared by criteria 7 and 8
ACCEPT_EPOCHS = 12  # every variant converges well inside the 60-epoch budget


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_runs")
    runs = {}
    for variant in ("mul", "shift", "add", "sa"):
        t0 = time.perf_counter()
        out = cmd_train(RunConfig(variant=variant, data="synthetic",
                                  epochs=ACCEPT_EPOCHS, seed=7,
                                  out=str(root / variant)))
        wall = time.perf_counter() - t0
        recs = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        runs[variant] = {"dir": out, "wall": wall,
                         "acc": [r["test_acc"] for r in recs]}
    return runs


def test_criterion_1_quantization_law():
    with report(1, "power-of-two quantization law, exact on 1e5 weights in [-2, 2]"):
        t0 = time.perf_counter()
        rng = make_rng(101)
        w = rng.uniform(-2.0, 2.0, 100_000).astype(np.float32)
        s, p, wq = quantize_shift(w)
        clamped = np.clip(w.astype(np.float64), -1.0, 1.0)
        sign = np.where(clamped < 0, -1.0, 1.0)
        mag = np.abs(clamped)
        with np.errstate(divide="ignore"):
            lg = np.log2(mag)
        expo = np.where(mag > 0, np.sign(lg) * np.floor(np.abs(lg) + 0.5), -15.0)
        expo = np.clip(expo, -15, 0)
        np.testing.assert_array_equal(s.astype(np.float64), sign)
        np.testing.assert_array_equal(p.astype(np.float64), expo)
        np.testing.assert_array_equal(wq, (sign * np.exp2(expo)).astype(np.float32))
        assert np.all((p >= -15) & (p <= 0))
        s2, p2, wq2 = quantize_shift(wq)
        np.testing.assert_array_equal(wq, wq2)
        np.testing.assert_array_equal(s, s2)
        np.testing.assert_array_equal(p, p2)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_adder_forward_oracle():
    with report(2, "negative-L1 forward equals brute-force loops within 1e-6 on 1e3 cases"):
        rng = make_rng(102)
        for _ in range(1000):
            ci = int(rng.integers(1, 17))
            co = int(rng.integers(1, 17))
            rows = int(rng.integers(1, 5))
            x = rng.uniform(-2, 2, (rows, ci)).astype(np.float32).astype(np.float64)
            w = rng.uniform(-2, 2, (co, ci)).astype(np.float32).astype(np.float64)
            got = pairwise_l1_neg(x, w)
            for r in range(rows):
                for o in range(co):
                    want = -sum(abs(x[r, i] - w[o, i]) for i in range(ci))
                    assert abs(got[r, o] - want) <= 1e-6


def test_criterion_3_gradient_rules():
    with report(3, "exact/straight-through/smoothed gradient rules vs FD and loop oracles"):
        rng = make_rng(103)

        # (a) exact layers vs central finite differences, <= 1e-4 relative
        lin = MulLinear(4, 3, rng)
        lin.w.data = lin.w.data.astype(np.float64)
        lin.b.data = rng.standard_normal(3)
        x = rng.standard_normal((2, 3, 4))
        dy = rng.standard_normal((2, 3, 3))
        lin.forward(x)
        dx = lin.backward(dy)
        assert_grad_close(dx, central_diff(
            lambda v: float((affine_map(v, lin.w.data, lin.b.data) * dy).sum()), x))
        assert_grad_close(lin.w.grad, central_diff(
            lambda v: float((affine_map(x, v, lin.b.data) * dy).sum()), lin.w.data))
        assert_grad_close(lin.b.grad, central_diff(
            lambda v: float((affine_map(x, lin.w.data, v) * dy).sum()), lin.b.data))

        bn = BatchNorm(3)
        bn.gamma.data = rng.uniform(0.5, 1.5, 3)
        xb = rng.standard_normal((2, 4, 3))
        dyb = rng.standard_normal((2, 4, 3))
        bn.forward(xb, train=True)
        dxb = bn.backward(dyb)

        def bn_loss(v):
            flat = v.reshape(-1, 3)
            xhat = (flat - flat.mean(0)) / np.sqrt(flat.var(0) + bn.eps)
            return float(((bn.gamma.data * xhat + bn.beta.data).reshape(v.shape) * dyb).sum())

        assert_grad_close(dxb, central_diff(bn_loss, xb), rtol=1e-3, atol=1e-6)

        relu = ReLU()
        xr = rng.standard_normal((3, 5))
        xr += np.sign(xr) * 0.05
        dyr = rng.standard_normal((3, 5))
        relu.forward(xr)
        assert_grad_close(relu.backward(dyr), central_diff(
            lambda v: float((np.maximum(v, 0) * dyr).sum()), xr))

        pool = MaxPool()
        xp = rng.standard_normal((2, 6, 3))
        dyp = rng.standard_normal((2, 3))
        pool.forward(xp)
        assert_grad_close(pool.backward(dyp), central_diff(
            lambda v: float((v.max(axis=-2) * dyp).sum()), xp))

        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 4, 2, 1])
        _, dlog = softmax_cross_entropy(logits, labels)
        assert_grad_close(dlog, central_diff(
            lambda v: softmax_cross_entropy(v, labels)[0], logits))

        # (b) shift: dX by FD with frozen quantization; dW by exact formula oracle
        sh = ShiftLinear(4, 3, rng)
        xs = rng.standard_normal((2, 3, 4))
        dys = rng.standard_normal((2, 3, 3))
        sh.forward(xs)
        dxs = sh.backward(dys)
        assert_grad_close(dxs, central_diff(
            lambda v: float((sh.forward(v) * dys).sum()), xs))
        np.testing.assert_array_equal(
            sh.w.grad, dys.reshape(-1, 3).T @ xs.reshape(-1, 4))

        # (c) adder: smoothed dW and clipped dX vs element loops, saturation included
        ad = AdderLinear(5, 4, rng)
        xa = rng.uniform(-3, 3, (2, 4, 5))  # |x - w| crosses 1 in both directions
        dya = rng.standard_normal((2, 4, 4))
        ad.forward(xa)
        dxa = ad.backward(dya).reshape(-1, 5)
        xf = xa.reshape(-1, 5)
        dyf = dya.reshape(-1, 4)
        dw_oracle = np.zeros((4, 5))
        dx_oracle = np.zeros_like(xf)
        saturated = 0
        for r in range(xf.shape[0]):
            for o in range(4):
                for i in range(5):
                    diff = xf[r, i] - ad.w.data[o, i]
                    saturated += abs(diff) > 1.0
                    dw_oracle[o, i] += dyf[r, o] * diff
                    dx_oracle[r, i] -= dyf[r, o] * min(1.0, max(-1.0, diff))
        assert saturated > 0  # the clip really engaged
        np.testing.assert_allclose(ad.w.grad, dw_oracle, rtol=0, atol=1e-6)
        np.testing.assert_allclose(dxa, dx_oracle, rtol=0, atol=1e-6)


def test_criterion_4_modulation_identity():
    with report(4, "modulated gradients have RMS exactly 0.2 for 1e4 random sizes 1..1e4"):
        rng = make_rng(104)
        eta = 0.2
        sizes = rng.integers(1, 10_001, size=10_000)
        for k, n in enumerate(sizes):
            g = rng.standard_normal(int(n))
            out = modulate_gradient(g, eta)
            rms = math.sqrt(float(np.mean(out.astype(np.float64) ** 2)))
            assert abs(rms - eta) < 1e-6
            if k % 100 == 0:
                # direction preserved: out is a positive multiple of g
                scale = float(out @ g / (g @ g))
                assert scale > 0
                np.testing.assert_allclose(out, scale * g, rtol=1e-6, atol=1e-9)
                c = float(rng.uniform(1e-3, 1e3))
                np.testing.assert_allclose(modulate_gradient(c * g, eta), out,
                                           rtol=1e-6, atol=1e-9)


def test_criterion_5_fixed_point_parity():
    with report(5, "Q16.16 shift kernel within 2^-12 of float forward; 5-bit codes exact"):
        codes = np.arange(32, dtype=np.uint8)
        s, p = sign_exp_from_codes(codes)
        np.testing.assert_array_equal(codes_from_sign_exp(s, p), codes)

        rng = make_rng(105)
        worst = 0.0
        vectors = 0
        while vectors < 10_000:
            ci = int(rng.integers(1, 65))
            co = int(rng.integers(1, 65))
            s, p, wq = quantize_shift(rng.uniform(-1, 1, (co, ci)).astype(np.float32))
            x = rng.uniform(-8, 8, (50, ci)).astype(np.float32)
            vectors += 50
            y_float = affine_map(x, wq)
            y_fixed, overflow = shift_affine_fixed(x, s, p)
            assert overflow == 0
            worst = max(worst, float(np.abs(y_fixed - y_float).max()))
        assert worst <= 2.0 ** -12


def test_criterion_6_structural_parity():
    with report(6, "SA and Mul graphs match in layers and non-bias parameters; interleave"):
        base = dict(embed_widths=(64, 64, 128, 256), encoder_widths=(512, 1024),
                    head_widths=(512, 256), num_classes=40, knn_k=16, points_in=1024)
        models = {v: build_model(ModelConfig(variant=v, **base), substream(7, 0))
                  for v in ("mul", "sa")}
        names = {v: [n for n, _ in m.linear_layers()] for v, m in models.items()}
        assert names["mul"] == names["sa"]
        assert (len(models["mul"].instrumented_layers())
                == len(models["sa"].instrumented_layers()) == 6)
        weights = {v: sum(p.data.size for p in m.parameters() if not p.name.endswith(".b"))
                   for v, m in models.items()}
        assert weights["mul"] == weights["sa"]
        assert [l.kind for _, l in models["sa"].instrumented_layers()] == [
            "shift", "adder", "shift", "adder", "shift", "adder"]


def test_criterion_7_desk_scale_training(trained_runs):
    with report(7, f"all four variants reach >= 90% on synthetic within "
                   f"{ACCEPT_EPOCHS} <= 60 epochs"):
        for variant, run in trained_runs.items():
            best = max(run["acc"])
            assert best >= 0.90, f"{variant} peaked at {best:.3f}"
            assert run["wall"] <= 600.0, f"{variant} took {run['wall']:.0f}s"
        # SA finished training (no NaN abort) and both optimizer groups engaged
        sa = trained_runs["sa"]
        recs = [json.loads(l) for l in (sa["dir"] / "metrics.jsonl").read_text().splitlines()]
        assert len(recs) == ACCEPT_EPOCHS
        assert set(recs[0]["lr"]) == {"adaptive_moment", "modulated_sgd"}
        rows = cmd_grad_report(sa["dir"] / "ckpt_last.bin", batches=2)
        for row in rows:
            if row["kind"] == "adder":
                assert abs(row["modulated_rms"] - 0.2) < 1e-6
            else:
                assert row["modulated_rms"] is None
        assert {r["kind"] for r in rows} == {"shift", "adder"}
        # trend: shift and mul raw gradients share an order of magnitude at equal
        # depth, while raw adder gradients sit well below the shift ones
        mul_rows = cmd_grad_report(trained_runs["mul"]["dir"] / "ckpt_last.bin", batches=2)
        shift_rows = cmd_grad_report(trained_runs["shift"]["dir"] / "ckpt_last.bin", batches=2)
        for m, s in zip(mul_rows, shift_rows):
            ratio = s["grad_rms"] / m["grad_rms"]
            assert 0.1 < ratio < 10.0, f"{m['layer']}: shift/mul RMS ratio {ratio:.2f}"
        sa_by_layer = {r["layer"]: r for r in rows}
        shift_by_layer = {r["layer"]: r for r in shift_rows}
        for name, row in sa_by_layer.items():
            if row["kind"] == "adder":
                assert row["grad_rms"] < shift_by_layer[name]["grad_rms"]


def test_criterion_8_density_trend(trained_runs):
    with report(8, "trained SA accuracy is nonincreasing over 256/128/64/32 points "
                   "within a 2% band"):
        ckpt = trained_runs["sa"]["dir"] / "ckpt_best.bin"
        reports = cmd_eval(ckpt, densities=(256, 128, 64, 32))
        accs = [r["accuracy"] for r in reports]
        for dense, sparse in zip(accs, accs[1:]):
            assert sparse <= dense + 0.02, f"accuracy rose outside the band: {accs}"


def test_criterion_9_full_benchmark_path_documented(tmp_path):
    with report(9, "full-benchmark path exists and is documented; numbers not "
                   "asserted at desk scale"):
        make_fake_modelnet(tmp_path / "mini")
        rc = main(["train", "--variant", "sa", "--data", f"modelnet40:{tmp_path/'mini'}",
                   "--epochs", "0", "--out", str(tmp_path / "run")])
        assert rc == 0
        model, cfg = load_checkpoint(tmp_path / "run" / "ckpt_last.bin")
        assert cfg.source() == "modelnet40"
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        for target in ("93.5", "93.3", "93.1", "93.9"):
            assert target in readme


def test_criterion_10_determinism(tmp_path):
    with report(10, "same seed reproduces bit-identical checkpoints and metric "
                    "streams (wall clock aside)"):
        runs = []
        for tag in ("a", "b"):
            runs.append(cmd_train(RunConfig(variant="sa", data="synthetic", epochs=4,
                                            seed=7, out=str(tmp_path / tag))))
        a, b = runs
        assert (a / "ckpt_last.bin").read_bytes() == (b / "ckpt_last.bin").read_bytes()
        assert (a / "ckpt_best.bin").read_bytes() == (b / "ckpt_best.bin").read_bytes()

        def canon(run):
            recs = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
            for r in recs:
                r.pop("wall_clock_s")  # timing is the one nondeterministic field
            return recs

        assert canon(a) == canon(b)
