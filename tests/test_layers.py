import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mulfree.errors import ContextError, DegenerateBatchError, DimensionError
from mulfree.layers import (AdderLinear, BatchNorm, MaxPool, MulLinear, ReLU,
                            ShiftLinear, concat_coords, quantize_shift)
from mulfree.tensor import affine_map, make_rng

from gradcheck import assert_grad_close, central_diff

POW2_IMAGE = {s * 2.0 ** p for s in (-1.0, 1.0) for p in range(-15, 1)}


class TestQuantizeShift:
    def test_exact_power_is_fixed_point(self):
        s, p, wq = quantize_shift(np.array([0.5], np.float32))
        assert (s[0], p[0], wq[0]) == (1, -1, 0.5)

    def test_round_half_away_examples(self):
        # log2(0.3) = -1.737 -> -2; 1.7 clamps to 1.0 first
        s, p, wq = quantize_shift(np.array([-0.3, 1.7], np.float32))
        np.testing.assert_array_equal(s, [-1, 1])
        np.testing.assert_array_equal(p, [-2, 0])
        np.testing.assert_array_equal(wq, np.array([-0.25, 1.0], np.float32))

    def test_half_point_rounds_away_from_zero(self):
        # |w| = 2^-1.5 sits exactly between exponents -1 and -2
        s, p, wq = quantize_shift(np.array([2.0 ** -1.5], np.float64))
        assert p[0] == -2 and wq[0] == 0.25

    def test_zero_maps_to_smallest_magnitude(self):
        s, p, wq = quantize_shift(np.array([0.0], np.float32))
        assert (s[0], p[0]) == (1, -15) and wq[0] == np.float32(2.0 ** -15)

    def test_tiny_magnitudes_clamp_to_minus_15(self):
        _, p, wq = quantize_shift(np.array([1e-9, -1e-9], np.float32))
        np.testing.assert_array_equal(p, [-15, -15])
        np.testing.assert_allclose(np.abs(wq), 2.0 ** -15)

    def test_idempotent_and_image(self):
        rng = make_rng(1)
        w = rng.uniform(-2, 2, (64, 32)).astype(np.float32)
        s, p, wq = quantize_shift(w)
        assert set(np.unique(wq)).issubset(POW2_IMAGE)
        s2, p2, wq2 = quantize_shift(wq)
        np.testing.assert_array_equal(s, s2)
        np.testing.assert_array_equal(p, p2)
        np.testing.assert_array_equal(wq, wq2)

    @settings(deadline=None, max_examples=50)
    @given(arrays(np.float32, (8,), elements=st.floats(-4, 4, width=32)))
    def test_law_holds_elementwise(self, w):
        s, p, wq = quantize_shift(w)
        assert np.all((p >= -15) & (p <= 0))
        assert np.all(np.abs(s) == 1)
        np.testing.assert_array_equal(wq, s.astype(np.float32) * np.exp2(p.astype(np.float32)))


class TestMulLinear:
    def test_identity_backward(self):
        layer = MulLinear(3, 3, make_rng(0), bias=False)
        layer.w.data = np.eye(3, dtype=np.float32)
        x = make_rng(1).standard_normal((2, 4, 3))
        layer.forward(x)
        dy = make_rng(2).standard_normal((2, 4, 3))
        dx = layer.backward(dy)
        np.testing.assert_allclose(dx, dy, rtol=1e-6)

    def test_finite_difference_all_paths(self):
        rng = make_rng(5)
        layer = MulLinear(4, 3, rng, name="fc")
        layer.w.data = layer.w.data.astype(np.float64)
        layer.b.data = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 4))
        dy = rng.standard_normal((2, 2, 3))

        layer.forward(x)
        dx = layer.backward(dy)
        assert_grad_close(dx, central_diff(lambda v: float((affine_map(v, layer.w.data, layer.b.data) * dy).sum()), x))
        assert_grad_close(layer.w.grad, central_diff(lambda v: float((affine_map(x, v, layer.b.data) * dy).sum()), layer.w.data))
        assert_grad_close(layer.b.grad, central_diff(lambda v: float((affine_map(x, layer.w.data, v) * dy).sum()), layer.b.data))

    def test_bias_gradient_is_column_sum(self):
        rng = make_rng(6)
        layer = MulLinear(2, 5, rng)
        x = rng.standard_normal((3, 4, 2))
        dy = rng.standard_normal((3, 4, 5))
        layer.forward(x)
        layer.backward(dy)
        np.testing.assert_allclose(layer.b.grad, dy.reshape(-1, 5).sum(axis=0), rtol=1e-6)

    def test_double_backward_raises(self):
        layer = MulLinear(2, 2, make_rng(0))
        layer.forward(np.zeros((1, 1, 2), np.float32))
        layer.backward(np.zeros((1, 1, 2), np.float32))
        with pytest.raises(ContextError):
            layer.backward(np.zeros((1, 1, 2), np.float32))


class TestShiftLinear:
    def test_power_of_two_weights_match_plain_affine(self):
        layer = ShiftLinear(3, 2, make_rng(0))
        layer.w.data = np.array([[0.5, -0.25, 1.0], [0.125, 1.0, -0.5]], np.float32)
        x = make_rng(1).standard_normal((1, 4, 3)).astype(np.float32)
        np.testing.assert_array_equal(layer.forward(x), affine_map(x, layer.w.data))

    def test_quantized_forward_example(self):
        layer = ShiftLinear(2, 1, make_rng(0))
        layer.w.data = np.array([[0.5, 0.3]], np.float32)
        y = layer.forward(np.array([[[2.0, 3.0]]], np.float32))
        np.testing.assert_allclose(y, [[[1.75]]])  # 0.3 quantizes to 0.25

    def test_zero_input_no_bias(self):
        layer = ShiftLinear(3, 4, make_rng(0))
        y = layer.forward(np.zeros((2, 5, 3), np.float32))
        np.testing.assert_array_equal(y, 0.0)

    def test_backward_example(self):
        layer = ShiftLinear(2, 1, make_rng(0))
        layer.w.data = np.array([[0.5, 0.3]], np.float32)
        layer.forward(np.array([[[2.0, 3.0]]]))
        dx = layer.backward(np.array([[[1.0]]]))
        np.testing.assert_allclose(layer.w.grad, [[2.0, 3.0]])  # straight-through: dY . X
        np.testing.assert_allclose(dx, [[[0.5, 0.25]]])  # quantized weights on the input path

    def test_dx_matches_finite_differences_with_frozen_quantization(self):
        rng = make_rng(9)
        layer = ShiftLinear(4, 3, rng)
        x = rng.standard_normal((2, 3, 4))
        dy = rng.standard_normal((2, 3, 3))
        layer.forward(x)
        dx = layer.backward(dy)
        fd = central_diff(lambda v: float((layer.forward(v) * dy).sum()), x)
        assert_grad_close(dx, fd)

    def test_dw_equals_mul_layer_formula(self):
        rng = make_rng(10)
        layer = ShiftLinear(5, 2, rng)
        x = rng.standard_normal((3, 2, 5))
        dy = rng.standard_normal((3, 2, 2))
        layer.forward(x)
        layer.backward(dy)
        oracle = dy.reshape(-1, 2).T @ x.reshape(-1, 5)
        np.testing.assert_array_equal(layer.w.grad, oracle)

    def test_zero_dy_zero_grads(self):
        layer = ShiftLinear(3, 2, make_rng(0))
        layer.forward(make_rng(1).standard_normal((1, 4, 3)).astype(np.float32))
        dx = layer.backward(np.zeros((1, 4, 2), np.float32))
        np.testing.assert_array_equal(layer.w.grad, 0.0)
        np.testing.assert_array_equal(dx, 0.0)

    def test_batch_doubling_doubles_dw(self):
        rng = make_rng(11)
        layer = ShiftLinear(3, 2, rng)
        x = rng.standard_normal((1, 4, 3))
        dy = rng.standard_normal((1, 4, 2))
        layer.forward(x)
        layer.backward(dy)
        single = layer.w.grad.copy()
        layer.forward(np.concatenate([x, x]))
        layer.backward(np.concatenate([dy, dy]))
        np.testing.assert_allclose(layer.w.grad, 2.0 * single, rtol=1e-12)


def adder_grad_oracle(x, w, dy):
    """Elementwise loops for the smoothed adder gradients, float64."""
    x = np.asarray(x, np.float64).reshape(-1, w.shape[1])
    dy = np.asarray(dy, np.float64).reshape(-1, w.shape[0])
    w = np.asarray(w, np.float64)
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for r in range(x.shape[0]):
        for o in range(w.shape[0]):
            for i in range(w.shape[1]):
                diff = x[r, i] - w[o, i]
                dw[o, i] += dy[r, o] * diff
                dx[r, i] -= dy[r, o] * min(1.0, max(-1.0, diff))
    return dw, dx


def adder_input_grad_loop(x, w, dy):
    """The single-threaded per-output-channel input-gradient pass, in the
    storage dtype; the row-split backward must match it bit for bit."""
    xf = x.reshape(-1, w.shape[1])
    dyf = dy.reshape(-1, w.shape[0])
    dx = np.zeros_like(xf)
    tmp = np.empty_like(xf)
    for o in range(w.shape[0]):
        np.subtract(xf, w[o], out=tmp)
        np.clip(tmp, -1.0, 1.0, out=tmp)
        tmp *= dyf[:, o : o + 1]
        dx -= tmp
    return dx.reshape(x.shape)


class TestAdderLinear:
    def test_forward_is_negative_l1(self):
        layer = AdderLinear(2, 1, make_rng(0))
        layer.w.data = np.zeros((1, 2), np.float32)
        y = layer.forward(np.array([[[1.0, 2.0]]], np.float32))
        np.testing.assert_allclose(y, [[[-3.0]]])

    def test_matching_row_is_maximum(self):
        layer = AdderLinear(3, 2, make_rng(0))
        x = layer.w.data[0][None, None, :].copy()
        y = layer.forward(x)
        assert y[0, 0, 0] == 0.0 and y[0, 0, 1] <= 0.0

    def test_two_output_case(self):
        layer = AdderLinear(2, 2, make_rng(0))
        layer.w.data = np.array([[1.0, 1.0], [0.0, -1.0]], np.float32)
        y = layer.forward(np.array([[[0.5, -0.5]]], np.float32))
        np.testing.assert_allclose(y, [[[-2.0, -1.0]]])

    def test_backward_small_difference(self):
        layer = AdderLinear(1, 1, make_rng(0))
        layer.w.data = np.array([[0.1]], np.float32)
        layer.forward(np.array([[[0.5]]]))  # x - w = 0.4
        dx = layer.backward(np.array([[[1.0]]]))
        np.testing.assert_allclose(layer.w.grad, [[0.4]], atol=1e-7)
        np.testing.assert_allclose(dx, [[[-0.4]]], atol=1e-7)

    def test_backward_saturates_input_path_only(self):
        layer = AdderLinear(1, 1, make_rng(0))
        layer.w.data = np.array([[0.0]], np.float32)
        layer.forward(np.array([[[2.5]]]))  # x - w = 2.5 > 1
        dx = layer.backward(np.array([[[1.0]]]))
        np.testing.assert_allclose(layer.w.grad, [[2.5]])
        np.testing.assert_allclose(dx, [[[-1.0]]])

    def test_zero_dy_zero_grads(self):
        layer = AdderLinear(3, 2, make_rng(1))
        layer.forward(make_rng(2).standard_normal((1, 4, 3)).astype(np.float32))
        dx = layer.backward(np.zeros((1, 4, 2), np.float32))
        np.testing.assert_array_equal(layer.w.grad, 0.0)
        np.testing.assert_array_equal(dx, 0.0)

    def test_gradients_match_loop_oracle_with_saturation(self):
        rng = make_rng(13)
        layer = AdderLinear(6, 4, rng)
        x = rng.uniform(-3, 3, (2, 5, 6))  # differences span both the clipped and linear regions
        dy = rng.standard_normal((2, 5, 4))
        layer.forward(x)
        dx = layer.backward(dy)
        dw_o, dx_o = adder_grad_oracle(x, layer.w.data, dy)
        np.testing.assert_allclose(layer.w.grad, dw_o, rtol=0, atol=1e-6)
        np.testing.assert_allclose(dx.reshape(-1, 6), dx_o, rtol=0, atol=1e-6)

    # 0, 1 and 7 rows: fewer rows than workers, or not divisible by them
    @pytest.mark.parametrize("rows, ci, co", [(0, 5, 3), (1, 5, 3), (7, 5, 3), (2048, 259, 512)])
    def test_row_split_input_grad_bit_identical_to_loop(self, row_workers, rows, ci, co):
        rng = make_rng(rows + 1)
        layer = AdderLinear(ci, co, rng)
        x = rng.uniform(-3, 3, (rows, ci)).astype(np.float32)  # spans both clip regions
        dy = rng.standard_normal((rows, co)).astype(np.float32)
        layer.forward(x)
        dx = layer.backward(dy)
        assert dx.dtype == np.float32
        assert np.array_equal(dx, adder_input_grad_loop(x, layer.w.data, dy))

    def test_opposite_sign_structure_inside_clip_region(self):
        rng = make_rng(14)
        layer = AdderLinear(1, 1, rng)
        layer.w.data = np.array([[0.2]], np.float32)
        layer.forward(np.array([[[0.9]]]))  # |x - w| = 0.7 <= 1
        dx = layer.backward(np.array([[[1.0]]]))
        assert np.sign(layer.w.grad[0, 0]) == -np.sign(dx[0, 0, 0]) != 0

    def test_context_consumed(self):
        layer = AdderLinear(2, 2, make_rng(0))
        layer.forward(np.zeros((1, 1, 2), np.float32))
        layer.backward(np.zeros((1, 1, 2), np.float32))
        with pytest.raises(ContextError):
            layer.backward(np.zeros((1, 1, 2), np.float32))


class TestBatchNorm:
    def test_constant_channel_maps_to_beta(self):
        bn = BatchNorm(2)
        bn.beta.data = np.array([0.5, -1.0], np.float32)
        x = np.full((3, 4, 2), 7.0, np.float32)
        y = bn.forward(x, train=True)
        np.testing.assert_allclose(y[..., 0], 0.5, atol=1e-4)
        np.testing.assert_allclose(y[..., 1], -1.0, atol=1e-4)

    def test_standardized_input_passes_through(self):
        rng = make_rng(15)
        x = rng.standard_normal((200, 3)).astype(np.float64)
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        bn = BatchNorm(3)
        y = bn.forward(x, train=True)
        np.testing.assert_allclose(y, x, atol=1e-4)

    def test_gradients_match_finite_differences(self):
        rng = make_rng(16)
        bn = BatchNorm(3, name="bn")
        bn.gamma.data = rng.uniform(0.5, 1.5, 3)
        bn.beta.data = rng.standard_normal(3)
        x = rng.standard_normal((2, 4, 3))
        dy = rng.standard_normal((2, 4, 3))

        def loss_x(v):
            return float((BatchNormProbe(bn).forward(v) * dy).sum())

        bn.forward(x, train=True)
        dx = bn.backward(dy)
        assert_grad_close(dx, central_diff(loss_x, x), rtol=1e-3, atol=1e-6)

        def loss_gamma(g):
            keep = bn.gamma.data
            bn.gamma.data = g
            try:
                return float((bn.forward(x, train=True) * dy).sum())
            finally:
                bn.gamma.data = keep

        bn.forward(x, train=True)
        bn.backward(dy)
        assert_grad_close(bn.gamma.grad, central_diff(loss_gamma, bn.gamma.data), rtol=1e-3)
        np.testing.assert_allclose(bn.beta.grad, dy.reshape(-1, 3).sum(axis=0), rtol=1e-10)

    def test_single_row_statistics_error(self):
        bn = BatchNorm(4)
        with pytest.raises(DegenerateBatchError):
            bn.forward(np.zeros((1, 1, 4), np.float32), train=True)

    def test_eval_uses_running_stats(self):
        rng = make_rng(17)
        bn = BatchNorm(2)
        for _ in range(50):
            bn.forward(rng.standard_normal((64, 2)).astype(np.float32) * 3.0 + 1.0, train=True)
        x = rng.standard_normal((8, 2)).astype(np.float32) * 3.0 + 1.0
        y = bn.forward(x, train=False)
        expect = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(y, expect, rtol=1e-5, atol=1e-6)


class BatchNormProbe:
    """Stateless training-mode view of a BatchNorm for finite differencing."""

    def __init__(self, bn):
        self.bn = bn

    def forward(self, x):
        xf = x.reshape(-1, self.bn.channels)
        mean = xf.mean(axis=0)
        var = xf.var(axis=0)
        xhat = (xf - mean) / np.sqrt(var + self.bn.eps)
        return (self.bn.gamma.data * xhat + self.bn.beta.data).reshape(x.shape)


class TestReluPoolConcat:
    def test_relu_finite_differences(self):
        rng = make_rng(18)
        relu = ReLU()
        x = rng.standard_normal((3, 4))
        x += np.sign(x) * 0.05  # keep clear of the kink
        dy = rng.standard_normal((3, 4))
        relu.forward(x)
        dx = relu.backward(dy)
        fd = central_diff(lambda v: float((np.maximum(v, 0) * dy).sum()), x)
        assert_grad_close(dx, fd)

    def test_maxpool_finite_differences(self):
        rng = make_rng(19)
        pool = MaxPool()
        x = rng.standard_normal((2, 5, 3))
        dy = rng.standard_normal((2, 3))
        pool.forward(x)
        dx = pool.backward(dy)
        fd = central_diff(lambda v: float((v.max(axis=-2) * dy).sum()), x)
        assert_grad_close(dx, fd)

    def test_maxpool_neighbor_axis(self):
        rng = make_rng(20)
        pool = MaxPool()
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        y = pool.forward(x)
        np.testing.assert_array_equal(y, x.max(axis=2))
        dx = pool.backward(np.ones_like(y))
        assert dx.shape == x.shape and dx.sum() == y.size

    def test_concat_empty_features_returns_points(self):
        pts = make_rng(0).standard_normal((2, 4, 3)).astype(np.float32)
        out = concat_coords(np.zeros((2, 4, 0), np.float32), pts)
        np.testing.assert_array_equal(out, pts)

    def test_concat_layout_and_width(self):
        feats = np.array([[[10.0, 20.0]]], np.float32)
        pts = np.array([[[1.0, 2.0, 3.0]]], np.float32)
        out = concat_coords(feats, pts)
        assert out.shape == (1, 1, 5)
        np.testing.assert_array_equal(out[0, 0], [10.0, 20.0, 1.0, 2.0, 3.0])

    def test_concat_count_mismatch(self):
        with pytest.raises(DimensionError):
            concat_coords(np.zeros((1, 3, 2)), np.zeros((1, 4, 3)))

    def test_concat_feature_gradient_is_slice(self):
        rng = make_rng(22)
        feats = rng.standard_normal((1, 3, 4))
        pts = rng.standard_normal((1, 3, 3))
        dy = rng.standard_normal((1, 3, 7))
        fd = central_diff(lambda f: float((concat_coords(f, pts) * dy).sum()), feats)
        assert_grad_close(dy[..., :4], fd)  # backward drops the coordinate channels

    def test_per_point_layers_commute_with_permutation(self):
        rng = make_rng(21)
        x = rng.standard_normal((1, 6, 4)).astype(np.float32)
        perm = rng.permutation(6)
        for layer in (MulLinear(4, 3, make_rng(1)), ShiftLinear(4, 3, make_rng(2)),
                      AdderLinear(4, 3, make_rng(3))):
            y = layer.forward(x)
            y_perm = layer.forward(x[:, perm, :])
            np.testing.assert_array_equal(y[:, perm, :], y_perm)
