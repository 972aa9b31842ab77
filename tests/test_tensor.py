import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mulfree.errors import DimensionError, EmptyInputError, LabelError
from mulfree.tensor import (affine_map, global_max_pool, make_rng, over_rows,
                            pairwise_l1_neg, softmax_cross_entropy, substream)

from gradcheck import assert_grad_close, central_diff


def affine_loop_oracle(x, w, bias=None):
    """Naive triple loop, float64."""
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    b, n, ci = x.shape
    co = w.shape[0]
    out = np.zeros((b, n, co))
    for bi in range(b):
        for ni in range(n):
            for o in range(co):
                acc = 0.0
                for i in range(ci):
                    acc += w[o, i] * x[bi, ni, i]
                if bias is not None:
                    acc += bias[o]
                out[bi, ni, o] = acc
    return out


def l1_loop_oracle(x, w):
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    rows = x.reshape(-1, x.shape[-1])
    out = np.zeros((rows.shape[0], w.shape[0]))
    for r in range(rows.shape[0]):
        for o in range(w.shape[0]):
            out[r, o] = -sum(abs(rows[r, i] - w[o, i]) for i in range(w.shape[1]))
    return out.reshape(x.shape[:-1] + (w.shape[0],))


class TestAffineMap:
    def test_hand_dot_product(self):
        y = affine_map(np.array([[[2.0, 3.0]]]), np.array([[0.5, 0.25]]))
        np.testing.assert_allclose(y, [[[1.75]]])

    def test_identity_weight(self):
        x = make_rng(0).standard_normal((2, 5, 4)).astype(np.float32)
        np.testing.assert_array_equal(affine_map(x, np.eye(4, dtype=np.float32)), x)

    def test_zero_input_bias_only(self):
        y = affine_map(np.zeros((1, 3, 2), np.float32), np.zeros((1, 2), np.float32),
                       np.array([1.5], np.float32))
        np.testing.assert_allclose(y, 1.5)

    def test_matches_loop_oracle(self):
        rng = make_rng(42)
        for _ in range(5):
            b, n, ci, co = rng.integers(1, 5), rng.integers(1, 8), rng.integers(1, 33), rng.integers(1, 33)
            x = rng.standard_normal((b, n, ci)).astype(np.float32)
            w = rng.standard_normal((co, ci)).astype(np.float32)
            bias = rng.standard_normal(co).astype(np.float32)
            got = affine_map(x, w, bias)
            want = affine_loop_oracle(x, w, bias)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            affine_map(np.zeros((1, 2, 3)), np.zeros((4, 5)))
        assert "(1, 2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_preserves_float64(self):
        y = affine_map(np.zeros((1, 1, 2), np.float64), np.ones((1, 2), np.float64))
        assert y.dtype == np.float64


class TestPairwiseL1Neg:
    def test_distance_from_origin(self):
        y = pairwise_l1_neg(np.array([[[1.0, 2.0]]]), np.zeros((1, 2)))
        np.testing.assert_allclose(y, [[[-3.0]]])

    def test_perfect_match_is_zero(self):
        w = np.array([[0.3, -0.7, 2.0]], np.float32)
        y = pairwise_l1_neg(w[None, :, :], w)
        assert y[0, 0, 0] == 0.0

    def test_two_row_case(self):
        y = pairwise_l1_neg(np.array([[[0.5, -0.5]]]), np.array([[1.0, 1.0], [0.0, -1.0]]))
        np.testing.assert_allclose(y, [[[-2.0, -1.0]]])

    def test_matches_loop_oracle(self):
        rng = make_rng(7)
        x = rng.uniform(-1, 1, (2, 4, 9)).astype(np.float32)
        w = rng.uniform(-1, 1, (5, 9)).astype(np.float32)
        np.testing.assert_allclose(pairwise_l1_neg(x, w), l1_loop_oracle(x, w),
                                   rtol=0, atol=2e-6)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_never_positive(self, seed, ci, co):
        rng = make_rng(seed)
        x = rng.uniform(-2, 2, (1, 3, ci)).astype(np.float32)
        w = rng.uniform(-2, 2, (co, ci)).astype(np.float32)
        y = pairwise_l1_neg(x, w)
        assert np.all(y <= 0.0)

    def test_zero_iff_rows_equal(self):
        x = np.array([[[1.0, 2.0], [1.0, 2.001]]], np.float32)
        w = np.array([[1.0, 2.0]], np.float32)
        y = pairwise_l1_neg(x, w)
        assert y[0, 0, 0] == 0.0 and y[0, 1, 0] < 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_l1_neg(np.zeros((1, 2, 3)), np.zeros((2, 4)))

    # 0, 1 and 7 rows: fewer rows than workers, or not divisible by them
    @pytest.mark.parametrize("rows, ci, co", [(0, 5, 3), (1, 5, 3), (7, 5, 3), (2048, 259, 512)])
    def test_row_split_bit_identical_to_one_cdist_call(self, row_workers, rows, ci, co):
        rng = make_rng(rows)
        x = rng.uniform(-2, 2, (rows, ci)).astype(np.float32)
        w = rng.uniform(-2, 2, (co, ci)).astype(np.float32)
        whole = (-cdist(x.astype(np.float64), w.astype(np.float64), "cityblock")).astype(np.float32)
        y = pairwise_l1_neg(x, w)
        assert y.dtype == np.float32 and np.array_equal(y, whole)


class TestOverRows:
    @pytest.mark.parametrize("rows", [0, 1, 7, 1000])
    def test_each_row_visited_once(self, row_workers, rows):
        hits = np.zeros(rows, np.int64)

        def visit(a, b):
            hits[a:b] += 1

        over_rows(visit, rows)
        np.testing.assert_array_equal(hits, 1)

    def test_slice_error_is_raised_to_caller(self, row_workers):
        def fail(a, b):
            if a == 0:
                raise EmptyInputError("first slice")

        with pytest.raises(EmptyInputError, match="first slice"):
            over_rows(fail, 10)

    def test_forked_child_gets_working_pool(self):
        x = make_rng(0).uniform(-1, 1, (64, 8)).astype(np.float32)
        w = make_rng(1).uniform(-1, 1, (4, 8)).astype(np.float32)
        expected = pairwise_l1_neg(x, w)  # the parent's pool threads are running
        pid = os.fork()
        if pid == 0:
            signal.alarm(10)  # a child left waiting on the parent's threads dies here
            os._exit(0 if np.array_equal(pairwise_l1_neg(x, w), expected) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestGlobalMaxPool:
    def test_elementwise_max(self):
        pooled, arg = global_max_pool(np.array([[[1.0, 5.0], [3.0, 2.0]]]))
        np.testing.assert_array_equal(pooled, [[3.0, 5.0]])
        np.testing.assert_array_equal(arg, [[1, 0]])

    def test_single_point(self):
        x = np.array([[[4.0, -1.0, 0.5]]])
        pooled, _ = global_max_pool(x)
        np.testing.assert_array_equal(pooled, x[:, 0, :])

    def test_identical_points(self):
        x = np.tile(np.array([[1.0, 2.0, 3.0]]), (1, 5, 1)).reshape(1, 5, 3)
        pooled, arg = global_max_pool(x)
        np.testing.assert_array_equal(pooled, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(arg, 0)  # ties -> lowest index

    def test_permutation_invariance(self):
        rng = make_rng(3)
        x = rng.standard_normal((2, 9, 5)).astype(np.float32)
        perm = rng.permutation(9)
        a, _ = global_max_pool(x)
        b, _ = global_max_pool(x[:, perm, :])
        np.testing.assert_array_equal(a, b)

    def test_empty_points_error(self):
        with pytest.raises(EmptyInputError):
            global_max_pool(np.zeros((1, 0, 3)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_saturated_correct_logit(self):
        loss, _ = softmax_cross_entropy(np.array([[20.0, -20.0]]), np.array([0]))
        assert loss < 1e-12

    def test_scalar_log_sum_exp(self):
        loss, _ = softmax_cross_entropy(np.array([[1.0, 2.0]]), np.array([1]))
        assert abs(loss - math.log(1.0 + math.exp(-1.0))) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(11)
        logits = rng.standard_normal((3, 5))
        labels = np.array([0, 2, 4])
        _, dlogits = softmax_cross_entropy(logits, labels)
        fd = central_diff(lambda z: softmax_cross_entropy(z, labels)[0], logits)
        assert_grad_close(dlogits, fd, rtol=1e-4)

    def test_out_of_range_label(self):
        with pytest.raises(LabelError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(LabelError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


class TestRng:
    def test_same_seed_bit_identical(self):
        a = make_rng(123).standard_normal(100)
        b = make_rng(123).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_substreams_independent_and_stable(self):
        a1 = substream(5, 0).standard_normal(8)
        a2 = substream(5, 0).standard_normal(8)
        b = substream(5, 1).standard_normal(8)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)
