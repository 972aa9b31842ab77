import copy
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mulfree.cli import (SYNTH_MODEL, RunConfig, backprop_batch, config_to_ini, evaluate,
                         load_checkpoint, save_checkpoint)
from mulfree.data import PointDataset
from mulfree.errors import ConfigError, DimensionError
from mulfree.layers import MulLinear
from mulfree.models import (ModelConfig, PointCloudClassifier, build_model, knn_group,
                            layer_kind_sequence)
from mulfree.optim import build_optimizers, route_parameters
from mulfree.tensor import make_rng, softmax_cross_entropy, substream

SMALL = dict(embed_widths=(4, 4, 8, 8), encoder_widths=(8, 16),
             head_widths=(8,), num_classes=4, knn_k=3, points_in=32)


def small(variant):
    return build_model(ModelConfig(variant=variant, **SMALL), substream(7, 0))


def unit_cloud(rng, b=2, n=32):
    pts = rng.standard_normal((b, n, 3)).astype(np.float32)
    return pts / np.linalg.norm(pts, axis=2, keepdims=True).max(axis=1, keepdims=True)


class TestKnnGroup:
    def test_k1_is_self(self):
        pts = make_rng(0).standard_normal((2, 6, 3)).astype(np.float32)
        idx = knn_group(pts, 1)
        np.testing.assert_array_equal(idx[:, :, 0], np.arange(6)[None, :].repeat(2, 0))

    def test_collinear_points(self):
        pts = np.array([[[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]], np.float32)
        idx = knn_group(pts, 2)
        np.testing.assert_array_equal(idx[0, 1], [1, 0])  # middle point: self, then x=0

    def test_duplicate_points_tie_break_by_index(self):
        pts = np.zeros((1, 5, 3), np.float32)
        pts[0, 3] = [1, 0, 0]
        pts[0, 4] = [2, 0, 0]
        idx = knn_group(pts, 3)
        np.testing.assert_array_equal(idx[0, 0], [0, 1, 2])
        np.testing.assert_array_equal(idx[0, 2], [2, 0, 1])

    def test_k_larger_than_n(self):
        with pytest.raises(DimensionError):
            knn_group(np.zeros((1, 4, 3), np.float32), 5)

    def test_self_always_first(self):
        pts = make_rng(1).standard_normal((3, 20, 3)).astype(np.float32)
        idx = knn_group(pts, 5)
        np.testing.assert_array_equal(idx[:, :, 0], np.arange(20)[None, :].repeat(3, 0))


def knn_oracle(points, k):
    """Brute force over all pairs: self first, then (float64 distance, index)."""
    clouds = np.asarray(points, np.float32).astype(np.float64)
    n = clouds.shape[1]
    index = np.broadcast_to(np.arange(n), (n, n))
    out = []
    for cloud in clouds:
        diff = cloud[None, :, :] - cloud[:, None, :]
        d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2
        np.fill_diagonal(d2, -1.0)
        out.append(np.lexsort((index, d2))[:, :k])
    return np.stack(out)


LATTICE = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"),
                   axis=-1).reshape(1, 64, 3).astype(np.float32)


class TestKnnContract:
    @pytest.mark.parametrize("b,n,k", [(32, 256, 4), (32, 1024, 16)])
    def test_random_clouds_match_oracle(self, b, n, k):
        pts = unit_cloud(make_rng(n), b, n)
        np.testing.assert_array_equal(knn_group(pts, k), knn_oracle(pts, k))

    @pytest.mark.parametrize("k", [1, 7, 27, 64])
    def test_lattice_ties_match_oracle(self, k):
        # every distance on an integer lattice is exact; at k = 7 and 27 ties
        # reach past the candidate window and force it to widen
        np.testing.assert_array_equal(knn_group(LATTICE, k), knn_oracle(LATTICE, k))

    def test_cloud_result_independent_of_batch(self):
        pts = unit_cloud(make_rng(5), 6, 128)
        whole = knn_group(pts, 8)
        for i in range(len(pts)):
            np.testing.assert_array_equal(knn_group(pts[i : i + 1], 8)[0], whole[i])
        np.testing.assert_array_equal(knn_group(pts[::-1], 8), whole[::-1])


class TestStructure:
    def test_variant_kind_sequences(self):
        assert layer_kind_sequence("mul") == ["mul"] * 6
        assert layer_kind_sequence("shift") == ["shift"] * 6
        assert layer_kind_sequence("add") == ["adder"] * 6
        assert layer_kind_sequence("sa") == ["shift", "adder", "shift", "adder", "shift", "adder"]
        with pytest.raises(ConfigError):
            layer_kind_sequence("conv")

    def test_models_differ_only_in_linear_kind(self):
        names = {v: [n for n, _ in small(v).linear_layers()] for v in ("mul", "shift", "add", "sa")}
        assert names["mul"] == names["shift"] == names["add"] == names["sa"]

    def test_sa_interleave_in_model(self):
        kinds = [l.kind for _, l in small("sa").instrumented_layers()]
        assert kinds == ["shift", "adder", "shift", "adder", "shift", "adder"]

    def test_parameter_parity_excluding_bias(self):
        counts = {v: sum(p.data.size for p in small(v).parameters() if not p.name.endswith(".b"))
                  for v in ("mul", "shift", "add", "sa")}
        assert len(set(counts.values())) == 1

    def test_head_is_always_mul(self):
        for v in ("mul", "shift", "add", "sa"):
            m = small(v)
            stages = dict(m.stages)
            head = [stages[f"head{i + 1}"] for i in range(len(SMALL["head_widths"]))]
            assert all(isinstance(lin, MulLinear) for lin in head)
            assert isinstance(stages["head_out"], MulLinear)

    def test_bad_widths(self):
        with pytest.raises(ConfigError):
            build_model(ModelConfig(variant="mul", embed_widths=(4, 4, 8)), substream(0, 0))
        with pytest.raises(ConfigError):
            build_model(ModelConfig(variant="mul", **{**SMALL, "head_widths": (8, -2)}),
                        substream(0, 0))
        with pytest.raises(ConfigError, match="knn_k 33 exceeds points_in 32"):
            ModelConfig(variant="mul", **{**SMALL, "knn_k": 33})
        assert ModelConfig(variant="mul", **{**SMALL, "knn_k": 32}).knn_k == 32


class TestForward:
    def test_identical_point_cloud_degeneracy(self):
        m = small("mul")
        cloud = np.tile(np.array([0.3, -0.2, 0.5], np.float32), (1, 32, 1))
        outputs = {}
        logits = m.forward(cloud, train=False, observe=outputs.__setitem__)
        assert np.all(np.isfinite(logits))
        single = outputs["global_pool"].copy()
        # every point encodes identically, so pooling changes nothing
        logits2 = m.forward(cloud[:, :16, :], train=False, observe=outputs.__setitem__)
        np.testing.assert_allclose(outputs["global_pool"], single, atol=1e-6)
        assert np.all(np.isfinite(logits2))

    def test_permutation_leaves_logits_bit_identical(self):
        rng = make_rng(3)
        pts = unit_cloud(rng)
        perm = rng.permutation(pts.shape[1])
        for v in ("mul", "shift", "add", "sa"):
            m = small(v)
            a = m.forward(pts, train=False)
            b = m.forward(pts[:, perm, :], train=False)
            np.testing.assert_array_equal(a, b)

    def test_batch_independence_in_eval(self):
        rng = make_rng(4)
        pts = unit_cloud(rng, b=2)
        m = small("sa")
        both = m.forward(pts, train=False)
        one = m.forward(pts[:1], train=False)
        two = m.forward(pts[1:], train=False)
        np.testing.assert_array_equal(both, np.concatenate([one, two]))

    def test_finite_logits_all_variants(self):
        rng = make_rng(5)
        pts = unit_cloud(rng, b=3)
        for v in ("mul", "shift", "add", "sa"):
            logits = small(v).forward(pts, train=True)
            assert logits.shape == (3, 4)
            assert np.all(np.isfinite(logits))

    def test_pooled_feature_exposed(self):
        m = small("mul")
        outputs = {}
        m.forward(unit_cloud(make_rng(6)), train=False, observe=outputs.__setitem__)
        assert outputs["global_pool"].shape == (2, SMALL["encoder_widths"][-1])

    def test_backward_populates_every_parameter(self):
        rng = make_rng(7)
        for v in ("mul", "shift", "add", "sa"):
            m = small(v)
            logits = m.forward(unit_cloud(rng), train=True)
            _, d = softmax_cross_entropy(logits, np.array([0, 1]))
            m.backward(d)
            for p in m.parameters():
                assert p.grad is not None, p.name
                assert np.all(np.isfinite(p.grad)), p.name

    def test_bad_input_shape(self):
        with pytest.raises(DimensionError):
            small("mul").forward(np.zeros((2, 32, 2), np.float32))

    def test_supplied_neighbor_idx_matches_grouping(self):
        pts = unit_cloud(make_rng(8))
        m = small("sa")
        idx = knn_group(pts, SMALL["knn_k"])
        np.testing.assert_array_equal(m.forward(pts, neighbor_idx=idx), m.forward(pts))

    @pytest.mark.parametrize("edit", [lambda i: i.__setitem__((0, 5, 1), 32),
                                      lambda i: i.__setitem__((1, 0, 2), -1)],
                             ids=["past-the-cloud", "negative"])
    def test_neighbor_idx_outside_its_cloud(self, edit):
        """The gather reads by flat index over the batch, so an unchecked index
        >= points would read the next cloud and a negative one the previous."""
        pts = unit_cloud(make_rng(9))
        idx = knn_group(pts, SMALL["knn_k"])
        edit(idx)
        with pytest.raises(DimensionError, match="neighbor_idx"):
            small("sa").forward(pts, neighbor_idx=idx)

    @pytest.mark.parametrize("shape", [(1, 32, 3), (2, 16, 3), (2, 32), (2, 32, 0)])
    def test_neighbor_idx_of_wrong_shape(self, shape):
        with pytest.raises(DimensionError, match="neighbor_idx"):
            small("sa").forward(unit_cloud(make_rng(10)),
                                neighbor_idx=np.zeros(shape, np.int64))


class TestFixedShiftInference:
    def test_logits_match_float_within_fixed_point_tolerance(self):
        # bound frozen from measurement: trained desk models deviate < 3e-3
        rng = make_rng(8)
        pts = unit_cloud(rng, b=4)
        m = small("shift")
        a = m.forward(pts, train=False)
        b = m.forward(pts, train=False, fixed_shift=True)
        assert np.abs(a - b).max() < 0.02
        assert (a.argmax(1) == b.argmax(1)).mean() == 1.0

    def test_flag_is_noop_for_adder_variant(self):
        rng = make_rng(9)
        pts = unit_cloud(rng)
        m = small("add")
        np.testing.assert_array_equal(m.forward(pts, train=False),
                                      m.forward(pts, train=False, fixed_shift=True))


class TestState:
    @staticmethod
    def saved(tmp_path, model):
        """model's checkpoint, under a config that builds small("sa")."""
        cfg = RunConfig(embed_widths=SMALL["embed_widths"], encoder_widths=SMALL["encoder_widths"],
                        head_widths=SMALL["head_widths"], knn_k=SMALL["knn_k"],
                        points=SMALL["points_in"])
        assert cfg.model_config() == small("sa").cfg
        path = tmp_path / "state.bin"
        save_checkpoint(path, model, config_to_ini(cfg))
        return path

    def test_state_names_unique(self):
        names = [n for n, _ in small("sa").state_items()]
        assert len(names) == len(set(names))

    def test_load_state_shape_mismatch(self, tmp_path):
        m = small("sa")
        first = m.linear_layers()[0][1]
        first.w.data = np.zeros((1, 1), np.float32)
        path = self.saved(tmp_path, m)
        with pytest.raises(ConfigError, match=f"{path}: checkpoint tensor .*'embed1.w'"):
            load_checkpoint(path)
        m = small("sa")
        dict(m.stages)["embed1.bn"].running_var = np.ones(3, np.float32)
        with pytest.raises(ConfigError, match="running_var"):
            load_checkpoint(self.saved(tmp_path, m))

    def test_load_state_missing_tensor(self, tmp_path):
        m = small("sa")
        m.state_items = lambda: PointCloudClassifier.state_items(m)[1:]
        path = self.saved(tmp_path, m)
        with pytest.raises(ConfigError, match=f"{path}: checkpoint tensor count"):
            load_checkpoint(path)

    def test_load_state_roundtrip_preserves_forward(self, tmp_path):
        rng = make_rng(10)
        pts = unit_cloud(rng)
        m = build_model(ModelConfig(variant="sa", **SMALL), substream(11, 0))
        for _, arr in m.state_items():  # off the initial values, running stats included
            arr += rng.uniform(0.5, 1.0, arr.shape).astype(np.float32)
        want = m.forward(pts, train=False)
        assert not np.array_equal(small("sa").forward(pts, train=False), want)
        m2, _ = load_checkpoint(self.saved(tmp_path, m))
        np.testing.assert_array_equal(m2.forward(pts, train=False), want)


def desk_model(variant):
    model = build_model(replace(SYNTH_MODEL, variant=variant), substream(7, 0))
    return model, desk_optimizers(model)


def desk_optimizers(model):
    return build_optimizers(route_parameters(model), 3)


def desk_batch(rng, b):
    """Train clouds, their labels and eval clouds of one desk step."""
    return unit_cloud(rng, b, 256), rng.integers(0, 4, b), unit_cloud(rng, b, 256)


def train_step_and_eval(model, opts, pts, labels, eval_pts):
    _, logits = backprop_batch(model, pts, labels, {}, "test step")
    for opt, _ in opts:
        opt.step(1e-3)
    return logits, model.forward(eval_pts, train=False)


_EMPTY = np.empty


def nan_empty(*args, **kwargs):
    """np.empty, filled with NaN bytes, so a read before a write shows."""
    arr = _EMPTY(*args, **kwargs)
    arr.ravel(order="A").view(np.uint8).fill(0xFF)
    return arr


# A fresh interpreter that never calls cli.main runs a desk step twice to warm
# up, then once more, and prints the minor faults of the last one. A "step" is
# a train step plus a batch-32 eval forward (argv[2] "train") or one
# cli.evaluate of 32 clouds (argv[2] "eval"), on an argv[3] model.
_FAULT_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from test_models import desk_batch, desk_model, train_step_and_eval
from mulfree.cli import evaluate
from mulfree.data import PointDataset
from mulfree.tensor import make_rng
model, opts = desk_model(sys.argv[3])
rng = make_rng(12)
batches = [desk_batch(rng, 32) for _ in range(3)]
def step(pts, labels, eval_pts):
    if sys.argv[2] == "eval":
        evaluate(model, PointDataset(eval_pts, labels, ["a", "b", "c", "d"]), 32)
    else:
        train_step_and_eval(model, opts, pts, labels, eval_pts)
for batch in batches[:2]:
    step(*batch)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
step(*batches[2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def probe_faults(what, variant):
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(tests.parent / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(tests), what, variant],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


class TestStepMemory:
    @pytest.mark.parametrize("variant", ["mul", "shift", "add", "sa"])
    def test_step_reads_no_stale_memory(self, variant, monkeypatch):
        """A train step and an eval forward at batch 32, then 7, then 32, with
        every np.empty array filled with NaN bytes, give the logits,
        gradients and stepped weights, bit for bit, of a deep copy stepped
        with plain np.empty. A stage that reads an element before writing it
        (MaxPool.backward with np.empty for np.zeros) fails here."""
        model, opts = desk_model(variant)
        twin = copy.deepcopy(model)
        twin_opts = desk_optimizers(twin)
        rng = make_rng(11)
        for b in (32, 7, 32):
            batch = desk_batch(rng, b)
            with monkeypatch.context() as m:
                m.setattr(np, "empty", nan_empty)
                got = train_step_and_eval(model, opts, *batch)
            want = train_step_and_eval(twin, twin_opts, *batch)
            for g, w in zip(got, want):
                assert np.all(np.isfinite(g)) and g.tobytes() == w.tobytes()
            for p, q in zip(model.parameters(), twin.parameters()):
                assert p.grad.tobytes() == q.grad.tobytes(), p.name
                assert p.data.tobytes() == q.data.tobytes(), p.name

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc setting is glibc's")
    def test_repeated_desk_step_faults_in_no_fresh_pages(self):
        """Importing mulfree.tensor is enough to make a repeated step reuse
        malloc's memory: without the setting the step below took thousands
        of minor faults."""
        assert probe_faults("train", "sa") <= 64

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc setting is glibc's")
    def test_repeated_eval_forward_faults_in_no_fresh_pages(self):
        """The shift-eval path (cli.evaluate, never cli.main) reuses malloc's
        memory too; without the setting each batch-32 forward took ~2000."""
        assert probe_faults("eval", "shift") <= 64

    @pytest.mark.parametrize("variant", ["mul", "shift", "add", "sa"])
    def test_cached_eval_reads_no_stale_memory(self, variant, monkeypatch):
        """The per-epoch eval groups each batch once and forwards on the
        cached indices. With every np.empty array filled with NaN bytes,
        the grouping and the eval forward on it give the bytes of plain
        np.empty, for a full batch and a short last one."""
        model, _ = desk_model(variant)
        pts = unit_cloud(make_rng(14), 39, 256)
        for batch in (pts[:32], pts[32:]):
            with monkeypatch.context() as m:
                m.setattr(np, "empty", nan_empty)
                idx = knn_group(batch, model.cfg.knn_k)
                got = model.forward(batch, train=False, neighbor_idx=idx)
            assert np.all(np.isfinite(got))
            assert idx.tobytes() == knn_group(batch, model.cfg.knn_k).tobytes()
            assert got.tobytes() == model.forward(batch, train=False,
                                                  neighbor_idx=idx).tobytes()

    def test_cached_eval_grouping_gives_the_uncached_accuracy(self):
        model, _ = desk_model("sa")
        pts, labels, _ = desk_batch(make_rng(13), 64)
        ds = PointDataset(pts, labels, ["a", "b", "c", "d"])
        cache = {}
        acc, _ = evaluate(model, ds, 32, cache)
        assert len(cache) == 2
        assert evaluate(model, ds, 32, cache)[0] == evaluate(model, ds, 32)[0] == acc
