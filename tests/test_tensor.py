import ctypes
import math
import os
import platform
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mulfree import tensor
from mulfree.errors import DimensionError, EmptyInputError, LabelError
from mulfree.tensor import (affine_map, column_sum, global_max_pool, make_rng, over_rows,
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


# A fresh interpreter fills argv[2] arrays of argv[3] MiB at once and frees
# them, then counts the minor faults of filling as many again. By default an
# array over malloc's 128 KiB mmap threshold is mapped anew; one under numpy's
# 4 MiB huge-page advice faults in 4 KiB pages. argv[1] "1" imports
# mulfree.tensor first.
_REUSE_PROBE = """
import resource, sys
import numpy as np
if sys.argv[1] == "1":
    import mulfree.tensor
count, size = int(sys.argv[2]), int(sys.argv[3]) * 2**20 // 8
[np.ones(size) for _ in range(count)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
[np.ones(size) for _ in range(count)]
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestMallocSetting:
    def test_glibc_gets_both_settings(self, monkeypatch):
        calls = []
        monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(
            mallopt=lambda param, value: calls.append((param, value)) or 1))
        tensor._keep_freed_memory()
        assert calls == [(-4, 0), (-1, 2**31 - 1)]  # M_MMAP_MAX, M_TRIM_THRESHOLD

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc setting is glibc's")
    @pytest.mark.parametrize("imported", [True, False], ids=["mulfree-imported", "numpy-alone"])
    @pytest.mark.parametrize("count,mib", [(1, 3), (5, 64)], ids=["3MiB", "5x64MiB"])
    def test_import_keeps_a_freed_array_for_the_next(self, imported, count, mib):
        """Importing mulfree.tensor alone makes malloc hand freed arrays'
        pages to the next ones; numpy alone faults them in anew, which shows
        the probe sees the setting. 5x64 MiB has arrays over the 32 MiB
        mmap threshold limit and frees 320 MiB at once, as a paper-scale
        step (256 MiB arrays, 1.5 GB) does."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", _REUSE_PROBE, str(int(imported)),
                               str(count), str(mib)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        faults = int(proc.stdout)
        assert faults <= 64 if imported else faults >= 512

    def test_a_refused_setting_raises(self, monkeypatch):
        monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(
            mallopt=lambda param, value: 0))
        with pytest.raises(OSError, match="mallopt"):
            tensor._keep_freed_memory()

    def test_another_libc_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(ctypes, "CDLL", None)  # calling it would raise
        tensor._keep_freed_memory()


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
