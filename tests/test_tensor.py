import math
import os
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mulfree.errors import DimensionError, EmptyInputError, LabelError
from mulfree.tensor import (BLOCK_BYTES, REGION_BYTES, BlockPool, affine_map, column_sum,
                            global_max_pool, make_rng, over_rows, pairwise_l1_neg,
                            softmax_cross_entropy, substream)

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

    # 0, 1 and 7 rows: fewer rows than workers, or not divisible by them;
    # 64x3->16384: each cache-sized block holds a single row
    @pytest.mark.parametrize("rows, ci, co", [(0, 5, 3), (1, 5, 3), (7, 5, 3), (2048, 259, 512),
                                              (64, 3, 16384)])
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


BLOCK_FLOATS = BLOCK_BYTES // 4  # a float32 array of BLOCK_BYTES, the smallest pooled


class TestBlockPool:
    def test_freed_block_is_reused_for_a_request_of_the_same_size(self):
        pool = BlockPool()
        a = pool.empty((64, BLOCK_FLOATS // 64), np.float32)
        addr = a.ctypes.data
        del a
        b = pool.empty(BLOCK_FLOATS // 2, np.float64)  # the same bytes, another shape and dtype
        assert b.ctypes.data == addr and pool.misses == 1

    @pytest.mark.parametrize("cut", [lambda a: a[5:], lambda a: a.T, lambda a: a[1:][:, ::3]],
                             ids=["slice", "transpose", "view-of-view"])
    def test_view_keeps_its_block_reserved(self, cut):
        pool = BlockPool()
        a = pool.empty((256, 256), np.float32)
        a.fill(1.0)
        view = cut(a)
        del a  # the view outlives the array it was cut from
        b = pool.empty((256, 256), np.float32)
        b.fill(2.0)
        assert not np.shares_memory(b, view) and pool.misses == 2
        assert np.all(view == 1.0)
        del view, b
        pool.empty((256, 256), np.float32)
        assert pool.misses == 2  # both blocks are free again

    def test_freed_neighbours_serve_a_larger_request(self):
        pool = BlockPool()
        a = pool.empty(BLOCK_FLOATS, np.float32)
        b = pool.empty(BLOCK_FLOATS, np.float32)
        top = pool.empty(BLOCK_FLOATS, np.float32)
        lo = a.ctypes.data
        del a, b
        c = pool.empty(2 * BLOCK_FLOATS, np.float32)
        assert c.ctypes.data == lo and pool.misses == 3

    def test_small_arrays_come_from_malloc(self):
        pool = BlockPool()
        a = pool.empty(BLOCK_FLOATS - 1, np.float32)
        assert a.flags.owndata and pool.misses == 0 and pool.regions == []

    def test_trim_gives_back_only_regions_without_live_blocks(self):
        pool = BlockPool()
        a = pool.empty(BLOCK_FLOATS, np.float32)
        pool.trim()
        assert pool.touched == [BLOCK_BYTES]
        del a
        pool.trim()
        assert pool.touched == [0] and pool.free == [[]]
        b = pool.empty(BLOCK_FLOATS, np.float32)
        assert pool.misses == 2 and not b.any()  # the OS hands the pages back zeroed

    def test_request_over_a_region_gets_a_region_of_its_own(self):
        pool = BlockPool()  # a region is address space: empty writes nothing to it
        small = pool.empty(3 * BLOCK_FLOATS, np.float32)
        big = pool.empty((REGION_BYTES + BLOCK_BYTES) // 4, np.float32)
        more = pool.empty(BLOCK_FLOATS, np.float32)
        assert len(pool.regions) == 2 and len(pool.regions[1]) == REGION_BYTES + BLOCK_BYTES
        assert pool.touched == [4 * BLOCK_BYTES, REGION_BYTES + BLOCK_BYTES]
        assert not np.shares_memory(small, more) and not np.shares_memory(big, more)

    def test_blocks_released_on_many_threads_all_come_back(self):
        """Eight threads drop the last references to blocks while the main
        thread takes and frees others; a lost release would leave a range
        live, and trim would keep its region."""
        pool = BlockPool()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                batches = [[pool.empty(BLOCK_FLOATS + 16 * (i + j), np.float32)
                            for j in range(4)] for i in range(8)]
                threads = [threading.Thread(target=batch.clear) for batch in batches]
                del batches
                for t in threads:
                    t.start()
                churn = [pool.empty(BLOCK_FLOATS * (1 + k % 3), np.float32) for k in range(6)]
                del churn
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        pool.trim()
        assert pool.touched == [0]


class TestColumnSum:
    # row-major with 8 columns (the narrowest batch norm), one column,
    # column-major and strided views, and an empty batch
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("view", ["c", "one-column", "fortran", "strided", "empty"])
    def test_bit_identical_to_sum_axis0(self, view, dtype):
        x = (make_rng(31).standard_normal((32768, 64)) * 3.0 + 0.5).astype(dtype)
        x = {"c": lambda: x[:, :8].copy(), "one-column": lambda: x[:, :1].copy(),
             "fortran": lambda: np.asfortranarray(x), "strided": lambda: x[::3, ::2],
             "empty": lambda: x[:0]}[view]()
        got, want = column_sum(x), x.sum(axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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

    def test_bit_identical_to_argmax_over_the_point_axis(self):
        """The reference is numpy's argmax over axis 1 and take_along_axis.
        Ties, signed zeros and NaNs all pick the first point."""
        rng = make_rng(9)
        x = rng.integers(-2, 3, (6, 40, 9)).astype(np.float32)
        x[x == 0] = np.where(rng.random(int((x == 0).sum())) < 0.5, -0.0, 0.0)
        x[0, 7, 3] = x[0, 20, 3] = np.nan
        for view in (x, x[:, ::2], x.transpose(0, 2, 1)[:, :5].transpose(0, 2, 1)):
            pooled, arg = global_max_pool(view)
            want_arg = np.argmax(view, axis=1)
            want = np.take_along_axis(view, want_arg[:, None, :], axis=1)[:, 0, :]
            assert np.array_equal(arg, want_arg)
            assert pooled.tobytes() == want.tobytes()

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
