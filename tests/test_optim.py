import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulfree import optim
from mulfree.cli import RunConfig
from mulfree.errors import ConfigError
from mulfree.layers import Param
from mulfree.models import ModelConfig, build_model
from mulfree.optim import (AdaptiveMoment, CosineSchedule, build_optimizers,
                           modulate_gradient, modulated_sgd_step, route_parameters)
from mulfree.tensor import make_rng, substream


def rms(a):
    return float(np.sqrt(np.mean(np.asarray(a, np.float64) ** 2)))


SMALL = ModelConfig(embed_widths=(4, 4, 8, 8), encoder_widths=(8, 8),
                    head_widths=(8,), num_classes=4, knn_k=2, points_in=32)


class TestModulateGradient:
    def test_uniform_gradient_collapses_to_eta(self):
        for c in (0.5, 3.0, 1e-6):
            out = modulate_gradient(np.full(10, c), 0.2)
            np.testing.assert_allclose(out, 0.2, rtol=1e-12)

    def test_hand_oracle_3_4(self):
        # ||g|| = 5, sqrt(2) = 1.41421356, scale = 0.2 * 1.41421356 / 5
        out = modulate_gradient(np.array([3.0, 4.0]), 0.2)
        np.testing.assert_allclose(out, [0.16970563, 0.22627417], atol=1e-8)

    def test_rms_identity(self):
        rng = make_rng(0)
        for size in (1, 2, 37, 1000):
            g = rng.standard_normal(size)
            assert abs(rms(modulate_gradient(g, 0.2)) - 0.2) < 1e-6

    def test_zero_gradient_returns_zeros(self, caplog):
        out = modulate_gradient(np.zeros(5), 0.2)
        np.testing.assert_array_equal(out, 0.0)

    def test_direction_preserving(self):
        rng = make_rng(1)
        g = rng.standard_normal(64)
        out = modulate_gradient(g, 0.2)
        ratio = out / g
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)
        assert ratio[0] > 0

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 512),
           st.floats(1e-6, 1e6))
    def test_positive_scale_invariance(self, seed, n, c):
        g = make_rng(seed).standard_normal(n)
        a = modulate_gradient(g, 0.2)
        b = modulate_gradient(c * g, 0.2)
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)


class TestModulatedSgdStep:
    def test_uniform_gradient_step_size(self):
        w = np.zeros(8)
        w2 = modulated_sgd_step(w, np.full(8, 3.0), lr=0.02, eta=0.2)
        np.testing.assert_allclose(w2, -0.004, rtol=1e-12)  # 0.02 * 0.2

    def test_zero_gradient_no_change(self):
        w = make_rng(2).standard_normal(5)
        np.testing.assert_array_equal(modulated_sgd_step(w, np.zeros(5), 0.1, 0.2), w)

    def test_two_steps_accumulate_linearly(self):
        w = np.zeros(4)
        g = np.full(4, 7.0)
        w1 = modulated_sgd_step(w, g, 0.02, 0.2)
        w2 = modulated_sgd_step(w1, g, 0.02, 0.2)
        np.testing.assert_allclose(w2, -0.008, rtol=1e-12)


def adaptive_moment_steps(w, grads, lr):
    """Weights after one AdaptiveMoment step per gradient, and the optimizer."""
    p = Param("w", w, "mul")
    opt = AdaptiveMoment([p])
    for g in grads:
        p.grad = g
        opt.step(lr)
    return p.data, opt


class TestAdaptiveMomentStep:
    def test_first_step_close_to_lr(self):
        w = np.zeros(6)
        w2, opt = adaptive_moment_steps(w, [np.ones(6)], lr=1e-3)
        np.testing.assert_allclose(w2, -1e-3, rtol=1e-6)
        assert opt.moments["w"][2] == 1

    def test_zero_gradient_never_moves(self):
        w = make_rng(3).standard_normal(5)
        cur, _ = adaptive_moment_steps(w, [np.zeros(5)] * 3, 1e-2)
        np.testing.assert_array_equal(cur, w)

    def test_first_step_scale_invariance(self):
        g = make_rng(4).standard_normal(8)
        w = np.zeros(8)
        a, _ = adaptive_moment_steps(w, [g], 1e-3)
        b, _ = adaptive_moment_steps(w, [10.0 * g], 1e-3)
        np.testing.assert_allclose(a, b, rtol=1e-5)


class TestCosineSchedule:
    def test_boundaries_and_midpoint(self):
        sched = CosineSchedule(1e-3, 1e-6, 100)
        assert sched.lr_at(0) == 1e-3
        assert sched.lr_at(100) == 1e-6  # the endpoints are exact
        assert abs(sched.lr_at(50) - (1e-3 + 1e-6) / 2) < 1e-12

    def test_monotone_nonincreasing(self):
        sched = CosineSchedule(2e-2, 2e-3, 60)
        lrs = [sched.lr_at(e) for e in range(61)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range(self):
        sched = CosineSchedule(1e-3, 1e-6, 10)
        with pytest.raises(ConfigError):
            sched.lr_at(11)
        with pytest.raises(ConfigError):
            sched.lr_at(-1)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(1e-8, 1.0), st.integers(1, 500))
    def test_monotone_for_any_range(self, lr_end_frac, total):
        sched = CosineSchedule(1e-2, 1e-2 * lr_end_frac, total)
        lrs = [sched.lr_at(e) for e in range(total + 1)]
        assert lrs[0] == 1e-2
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestRouting:
    def test_sa_two_nonempty_groups(self):
        model = build_model(ModelConfig(variant="sa", **{k: v for k, v in SMALL.__dict__.items() if k != "variant"}), substream(0, 0))
        groups = route_parameters(model)
        assert len(groups) == 2
        kinds = set(groups)
        assert kinds == {"adaptive_moment", "modulated_sgd"}
        assert all(groups.values())

    def test_mul_single_group(self):
        model = build_model(ModelConfig(variant="mul", **{k: v for k, v in SMALL.__dict__.items() if k != "variant"}), substream(0, 0))
        groups = route_parameters(model)
        assert len(groups) == 1
        assert list(groups) == ["adaptive_moment"]

    def test_add_variant_routes_norms_to_adaptive(self):
        model = build_model(ModelConfig(variant="add", **{k: v for k, v in SMALL.__dict__.items() if k != "variant"}), substream(0, 0))
        by_kind = route_parameters(model)
        adder_names = {p.name for p in by_kind["modulated_sgd"]}
        other_names = {p.name for p in by_kind["adaptive_moment"]}
        assert all(".bn." not in n for n in adder_names)
        assert any(".bn.gamma" in n for n in other_names)
        assert any(n.startswith("head") for n in other_names)

    def test_partition_is_exact(self):
        model = build_model(SMALL, substream(0, 0))
        groups = route_parameters(model)
        routed = [p for params in groups.values() for p in params]
        assert len(routed) == len(set(id(p) for p in routed))
        assert {id(p) for p in routed} == {id(p) for p in model.parameters()}

    def test_recipe_is_the_papers(self):
        assert optim.RULES == {"mul": "adaptive_moment", "shift": "adaptive_moment",
                               "norm": "adaptive_moment", "adder": "modulated_sgd"}
        assert optim.RATES == {"adaptive_moment": (1e-3, 1e-6), "modulated_sgd": (2e-2, 2e-3)}
        assert optim.ETA == 0.2 and RunConfig().batch_size == 32

    def test_optimizers_follow_groups_adaptive_first(self):
        model = build_model(SMALL, substream(0, 0))
        groups = route_parameters(model)
        built = build_optimizers(groups, 10)
        assert [opt.kind for opt, _ in built] == ["adaptive_moment", "modulated_sgd"]
        assert [opt.params for opt, _ in built] == [groups[opt.kind] for opt, _ in built]
        assert [sched.lr_at(0) for _, sched in built] == [1e-3, 2e-2]
