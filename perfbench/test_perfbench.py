"""Tests of the benchmark's own checks, mesh generator and tracer.

    python3 -m pytest perfbench -q

Each correctness check must reject a deliberately wrong output and accept
the right one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import meshes  # noqa: E402
import spans  # noqa: E402
from mulfree import data, layers, models, shiftquant, tensor  # noqa: E402


def kernel_case(seed=0, rows=12, c_in=9, c_out=5, scale=2 ** 20):
    rng = np.random.default_rng(seed)
    x = rng.integers(-scale, scale, size=(rows, c_in)).astype(np.int32)
    s = rng.choice([-1, 1], size=(c_out, c_in)).astype(np.int8)
    p = rng.integers(-15, 1, size=(c_out, c_in)).astype(np.int8)
    return x, s, p


class TestFixedKernel:
    def test_program_kernel_passes(self):
        x, s, p = kernel_case()
        out, overflows = shiftquant.fixed_shift_affine(x, s, p)
        assert checks.fixed_kernel(x, s, p, out) == overflows == 0

    @pytest.mark.parametrize("delta", [-2, 1])
    def test_rejects_result_off_by_ulps(self, delta):
        x, s, p = kernel_case()
        out, _ = shiftquant.fixed_shift_affine(x, s, p)
        bad = out.astype(np.int64)
        bad[3, 2] += delta
        with pytest.raises(checks.CheckFailed):
            checks.fixed_kernel(x, s, p, bad)

    def test_saturation(self):
        # full-range inputs with unit weights overflow Q16.16
        x = np.full((2, 4), checks.Q16_MAX, np.int64)
        x[1] = checks.Q16_MIN
        s = np.ones((1, 4), np.int8)
        p = np.zeros((1, 4), np.int8)
        out, overflows = shiftquant.fixed_shift_affine(x, s, p)
        assert checks.fixed_kernel(x, s, p, out) == overflows == 2
        with pytest.raises(checks.CheckFailed):
            checks.fixed_kernel(x, s, p, out - 1)


def test_logits_close():
    ref = np.array([[0.0, 1.0, -1.0], [2.0, 0.5, 0.0]])
    assert checks.logits_close(ref + 1e-4, ref, 1e-3) == pytest.approx(1e-4)
    with pytest.raises(checks.CheckFailed):
        checks.logits_close(ref + 2e-3, ref, 1e-3)
    flipped = ref.copy()
    flipped[1] = [0.4, 0.5, 0.0]
    with pytest.raises(checks.CheckFailed):
        checks.logits_close(flipped, ref, 10.0)


def test_same_accuracy():
    logits = np.eye(4)[[0, 1, 2, 3, 0]]
    own = checks.accuracy(logits, [0, 1, 2, 3, 1])
    assert own == pytest.approx(0.8)
    checks.same_accuracy(own, 4 / 5, 5, "x")
    with pytest.raises(checks.CheckFailed):
        checks.same_accuracy(own, 3 / 5, 5, "x")


def test_above_chance():
    assert checks.above_chance(0.9, 4, 128) < 0.45
    with pytest.raises(checks.CheckFailed):
        checks.above_chance(0.3, 4, 128)


def test_training_log():
    checks.training_log([{"train_loss": 1.3}, {"train_loss": 0.9}])
    for losses in ([1.0, 1.1], [1.0, float("nan"), 0.5], [1.0]):
        with pytest.raises(checks.CheckFailed):
            checks.training_log([{"train_loss": v} for v in losses])


def test_normalized_clouds():
    rng = np.random.default_rng(1)
    clouds = np.stack([data.normalize_cloud(rng.standard_normal((64, 3)).astype(np.float32))
                       for _ in range(3)])
    checks.normalized_clouds(clouds)
    with pytest.raises(checks.CheckFailed):
        checks.normalized_clouds(clouds + np.float32(0.01))
    with pytest.raises(checks.CheckFailed):
        checks.normalized_clouds(clouds * np.float32(1.01))


def test_label_order():
    ids = ["b/train/x.off", "a/train/y.off"]
    checks.label_order(["a", "b"], ids, [1, 0], ["b", "a"])
    with pytest.raises(checks.CheckFailed):
        checks.label_order(["b", "a"], ids, [0, 1], ["b", "a"])
    with pytest.raises(checks.CheckFailed):
        checks.label_order(["a", "b"], ids, [0, 1], ["b", "a"])


def test_generated_meshes_parse(tmp_path):
    meshes.write_dataset(tmp_path, seed=5, train_per_class=2, test_per_class=1)
    files = sorted(tmp_path.glob("*/*/*.off"))
    assert len(files) == 3 * len(meshes.CLASSES)
    for path in files:
        text = path.read_text()
        n_verts, n_polys, _ = map(int, text.splitlines()[1].split())
        mesh = data.parse_off(text)
        assert len(mesh.vertices) == n_verts
        assert len(mesh.faces) >= n_polys  # polygons are fan-triangulated
        assert np.isfinite(data.sample_mesh(mesh, 64, np.random.default_rng(0))).all()
    again = tmp_path / "again"
    meshes.write_dataset(again, seed=5, train_per_class=2, test_per_class=1)
    assert all((again / f.relative_to(tmp_path)).read_text() == f.read_text() for f in files)


class TestTracer:
    def test_self_times_add_up_and_uninstall_restores(self):
        originals = (models.knn_group, layers.AdderLinear.forward, tensor.pairwise_l1_neg)
        tr = spans.Tracer()
        tr.install()
        try:
            assert tr.missing == []
            tr.phase = "timed"
            model = models.build_model(models.ModelConfig(
                variant="sa", embed_widths=(4, 4, 8, 8), encoder_widths=(8, 16),
                head_widths=(8,), num_classes=3, knn_k=2, points_in=16),
                tensor.substream(0, 0))
            pts = np.random.default_rng(0).standard_normal((2, 16, 3)).astype(np.float32)
            model.forward(pts, train=True)
            model.forward(pts, train=False, fixed_shift=True)
        finally:
            tr.uninstall()
        assert (models.knn_group, layers.AdderLinear.forward,
                tensor.pairwise_l1_neg) == originals
        fwd = tr.select("models.forward", "timed", ("train",))
        inner = sum(st.self_s for (ph, mode, name), st in tr.stats.items()
                    if mode == "train" and name != "models.forward")
        assert fwd.calls == 1
        assert fwd.incl_s == pytest.approx(fwd.self_s + inner)
        assert tr.select("layers.shift.fixed", "timed", ("fixed",)).calls == 3
        assert tr.total_count("shiftquant.needed_macs", "timed") > 0

    def test_missing_name_is_reported_not_fatal(self, monkeypatch):
        monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
            ("models", "gone_function", "models.gone", {}),
            ("layers", "AdderLinear.gone_method", "layers.gone", {})])
        tr = spans.Tracer()
        tr.install()
        tr.uninstall()
        assert tr.missing == ["mulfree.models:gone_function",
                              "mulfree.layers:AdderLinear.gone_method"]
