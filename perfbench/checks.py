"""Correctness checks the workloads run on the program's outputs.

Each check recomputes what it needs with its own NumPy or from a property
the method must have; none compares against a stored copy of an earlier
output. A check raises CheckFailed with the reason when an output is wrong.
"""

from __future__ import annotations

import math

import numpy as np

# Q16.16: a signed 32-bit integer read as value / 2**16
Q16_MIN = -(1 << 31)
Q16_MAX = (1 << 31) - 1


class CheckFailed(AssertionError):
    """A program output contradicts the independent computation."""


def fixed_kernel(x_fixed, s, p, out) -> int:
    """Integer shift-affine outputs against the exact sum, row by row.

    The exact value of out[r, o] is sum_i s[o, i] * x[r, i] * 2**p[o, i]
    ulps, summed here in Python integers (scaled by 2**15 so every term is
    whole). Where that value fits Q16.16, the output must lie at most one
    ulp below it and never above; where it does not fit, the output must
    be the saturated bound. Returns the number of saturated outputs.
    """
    x = np.asarray(x_fixed, dtype=np.int64).astype(object)
    w = (np.asarray(s, dtype=np.int64) << (15 + np.asarray(p, dtype=np.int64))).astype(object)
    exact = x @ w.T  # Python ints: no overflow, no rounding
    out = np.asarray(out, dtype=np.int64)
    if out.shape != exact.shape:
        raise CheckFailed(f"kernel output shape {out.shape}, expected {exact.shape}")
    saturated = 0
    for (r, o), e in np.ndenumerate(exact):
        q = int(out[r, o])
        floor = e >> 15  # Python's shift floors toward -inf
        if floor > Q16_MAX or floor < Q16_MIN:
            saturated += 1
            bound = Q16_MAX if floor > Q16_MAX else Q16_MIN
            if q != bound:
                raise CheckFailed(f"row {r} out {o}: exact {e / 2**15:.3f} ulp saturates, "
                                  f"kernel gave {q}")
        elif not q << 15 <= e < (q + 1) << 15:
            raise CheckFailed(f"row {r} out {o}: kernel {q} ulp, exact {e / 2**15:.6f} ulp")
    return saturated


def logits_close(fixed, ref, tol: float) -> float:
    """Fixed-point logits within tol of the float logits, with the same argmax.
    Returns the largest gap."""
    fixed = np.asarray(fixed, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if fixed.shape != ref.shape:
        raise CheckFailed(f"logit shapes differ: {fixed.shape} vs {ref.shape}")
    gap = float(np.max(np.abs(fixed - ref)))
    if not gap <= tol:
        raise CheckFailed(f"fixed-point logits differ from float by {gap:.3g} > {tol:.3g}")
    flips = np.flatnonzero(np.argmax(fixed, axis=1) != np.argmax(ref, axis=1))
    if flips.size:
        raise CheckFailed(f"fixed-point argmax differs from float on clouds {flips.tolist()}")
    return gap


def accuracy(logits, labels) -> float:
    """Share of rows whose argmax equals the label."""
    return float(np.mean(np.argmax(np.asarray(logits), axis=1) == np.asarray(labels)))


def same_accuracy(own: float, reported: float, n: int, what: str) -> None:
    """Accuracies over n clouds agree when they count the same clouds correct."""
    if round(own * n) != round(reported * n):
        raise CheckFailed(f"{what}: recomputed accuracy {own:.6f} != reported {reported:.6f}")


def above_chance(acc: float, n_classes: int, n: int) -> float:
    """Accuracy at least four binomial standard deviations above chance;
    returns the threshold."""
    p = 1.0 / n_classes
    threshold = p + 4.0 * math.sqrt(p * (1.0 - p) / n)
    if not acc >= threshold:
        raise CheckFailed(f"accuracy {acc:.4f} is not clearly above chance "
                          f"{p:.4f} (needs >= {threshold:.4f})")
    return threshold


def training_log(records: list) -> None:
    """Every epoch's loss finite, and the last epoch's train loss below the first."""
    if len(records) < 2:
        raise CheckFailed(f"{len(records)} epoch record(s), need at least 2")
    losses = [r["train_loss"] for r in records]
    if not all(math.isfinite(v) for v in losses):
        raise CheckFailed(f"non-finite train loss: {losses}")
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"train loss did not fall: first {losses[0]:.4f}, last {losses[-1]:.4f}")


def normalized_clouds(points, tol: float = 1e-5) -> None:
    """Every cloud centred at its centroid with its farthest point at radius 1."""
    pts = np.asarray(points, dtype=np.float64)
    centroid = np.abs(pts.mean(axis=1)).max(axis=1)
    radius = np.linalg.norm(pts, axis=2).max(axis=1)
    bad = np.flatnonzero((centroid > tol) | (np.abs(radius - 1.0) > tol))
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"{bad.size} cloud(s) not unit-normalized, e.g. #{i}: "
                          f"|centroid| {centroid[i]:.2e}, radius {radius[i]:.6f}")


def label_order(class_names, ids, labels, expected_classes) -> None:
    """Class labels are the indices of the classes in lexicographic order,
    and each cloud carries the label of the directory it came from."""
    if list(class_names) != sorted(expected_classes):
        raise CheckFailed(f"class order {list(class_names)}, expected {sorted(expected_classes)}")
    want = [list(class_names).index(i.split("/", 1)[0]) for i in ids]
    got = [int(v) for v in labels]
    if want != got:
        raise CheckFailed(f"labels {got} do not follow the class directories {want}")
