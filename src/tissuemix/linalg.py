"""Dense small-matrix math and batched data-parallel kernels.

Conventions
-----------
* Mat      -- float64 ndarray of shape (rows, cols), C-contiguous (row-major).
* Vec      -- float64 ndarray of shape (len,).
* MatBatch -- float64 ndarray of shape (batch, rows, cols); item i is
  ``A[i]`` and every batched operation treats items independently.
* VecBatch -- float64 ndarray of shape (batch, len).

A single Mat/Vec passed where a batch is expected is broadcast logically
across the batch (no physical replication).

Batched operations are pure functions; every reduction uses a fixed
binary tree over fixed chunk boundaries, so results are bit-identical
regardless of how many workers execute the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BatchItemError",
    "ExecPlan",
    "NumericError",
    "cholesky_batched",
    "gemm_batched",
    "inverse_batched",
    "reduce_sum",
    "spd_jitter_retry",
    "tree_combine",
]

# Smallest |det| accepted by the closed-form inverses before an item is
# declared singular.
DET_GUARD = 1e-300

DEFAULT_CHUNK = 1024


class BatchItemError(ValueError):
    """A batched operation failed on specific items.

    Attributes
    ----------
    indices : list[int]
        Batch indices of the failing items.
    pivots : list[int] or None
        For Cholesky failures, the pivot index at which each item failed.
    """

    def __init__(self, msg, indices, pivots=None):
        super().__init__(f"{msg} (items {list(indices)})")
        self.indices = list(indices)
        self.pivots = list(pivots) if pivots is not None else None


class NumericError(RuntimeError):
    """Numerical failure that survived the jitter-once retry policy."""


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise FloatingPointError(f"non-finite values in {name}")


def gemm_batched(A, B, transa=False, transb=False, alpha=1.0, beta=0.0, C=None):
    """Batched general matrix multiply: C_i <- alpha*op(A_i)@op(B_i) + beta*C_i.

    ``A`` and ``B`` are MatBatches; either may be a single Mat, which is
    broadcast across the other's batch. ``C`` is required when beta != 0.
    Returns a fresh MatBatch (``C`` is never mutated).
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim == 2:
        A = A[None, :, :]
    if B.ndim == 2:
        B = B[None, :, :]
    if A.ndim != 3 or B.ndim != 3:
        raise ValueError("gemm_batched expects (batch, rows, cols) operands")
    if A.shape[0] != B.shape[0] and A.shape[0] != 1 and B.shape[0] != 1:
        raise ValueError(f"batch mismatch: {A.shape[0]} vs {B.shape[0]}")
    _check_finite(A, "A")
    _check_finite(B, "B")
    opA = np.swapaxes(A, -1, -2) if transa else A
    opB = np.swapaxes(B, -1, -2) if transb else B
    if opA.shape[-1] != opB.shape[-2]:
        raise ValueError(f"inner dimensions differ: {opA.shape} @ {opB.shape}")
    out = np.matmul(opA, opB)
    if alpha != 1.0:
        out *= alpha
    if beta != 0.0:
        if C is None:
            raise ValueError("beta != 0 requires C")
        C = np.asarray(C, dtype=np.float64)
        if C.ndim == 2:
            C = C[None, :, :]
        _check_finite(C, "C")
        if C.shape[-2:] != out.shape[-2:]:
            raise ValueError(f"C shape {C.shape} incompatible with result {out.shape}")
        out = out + beta * C
    return out


def _adjugate(m, n: int):
    """Determinant and adjugate of an n x n matrix, n <= 3, entry by entry.

    m[i][j] is a float (one matrix) or an array over the batch, so a single
    matrix and a batch go through the same operations in the same order.
    The adjugate is a nested list indexed like m.
    """
    if n == 1:
        return m[0][0], [[1.0]]
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c, [[d, -b], [-c, a]]
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = m
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    c10 = a02 * a21 - a01 * a22
    c11 = a00 * a22 - a02 * a20
    c12 = a01 * a20 - a00 * a21
    c20 = a01 * a12 - a02 * a11
    c21 = a02 * a10 - a00 * a12
    c22 = a00 * a11 - a01 * a10
    return det, [[c00, c10, c20], [c01, c11, c21], [c02, c12, c22]]


def _small_single(A: np.ndarray) -> bool:
    """A is one d x d matrix with d <= 3, which the scalar fast paths take."""
    return A.ndim == 2 and 1 <= A.shape[0] == A.shape[1] <= 3


def inverse_batched(A):
    """Invert every item of a square MatBatch.

    Sizes 1--3 use closed-form adjugate formulas with a |det| >= 1e-300
    guard (on a single matrix, in scalar arithmetic with the same result);
    larger sizes fall back to LU with partial pivoting. Raises
    BatchItemError naming the singular items.
    """
    A = np.asarray(A, dtype=np.float64)
    if _small_single(A):
        _check_finite(A, "A")
        det, adj = _adjugate(A.tolist(), A.shape[0])
        if not abs(det) < DET_GUARD:
            inv_det = 1.0 / det
            return np.array([[x * inv_det for x in row] for row in adj])
        # a singular matrix raises from the batched path below
    single = A.ndim == 2
    if single:
        A = A[None, :, :]
    if A.ndim != 3 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected square items, got shape {A.shape}")
    _check_finite(A, "A")
    n = A.shape[-1]
    if 1 <= n <= 3:
        det, adj = _adjugate([[A[:, i, j] for j in range(n)] for i in range(n)], n)
        bad = np.abs(det) < DET_GUARD
        if np.any(bad):
            raise BatchItemError(f"singular {n}x{n} item", np.nonzero(bad)[0])
        inv_det = 1.0 / det
        out = np.empty_like(A)
        for i in range(n):
            for j in range(n):
                out[:, i, j] = adj[i][j] * inv_det
    else:
        try:
            out = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            bad = []
            for i in range(A.shape[0]):
                try:
                    np.linalg.inv(A[i])
                except np.linalg.LinAlgError:
                    bad.append(i)
            raise BatchItemError("singular item", bad) from None
    return out[0] if single else out


def _cholesky_single(m: list) -> np.ndarray | None:
    """Cholesky factor of one small matrix given as nested lists of floats.

    The column sweep of cholesky_batched in scalar arithmetic, operation
    for operation (sums of squares and dot products start from 0.0).
    None at the first non-positive pivot.
    """
    n = len(m)
    L = [[0.0] * n for _ in range(n)]
    for j in range(n):
        sq = 0.0
        for k in range(j):
            sq += L[j][k] * L[j][k]
        s = m[j][j] - sq
        if s <= 0.0:
            return None
        L[j][j] = ljj = math.sqrt(s)
        for i in range(j + 1, n):
            dot = 0.0
            for k in range(j):
                dot += L[i][k] * L[j][k]
            L[i][j] = (m[i][j] - dot) / ljj
    return np.array(L)


def cholesky_batched(A):
    """Lower-triangular Cholesky factor of every SPD item.

    Returns L with L_i @ L_i.T == A_i; entries above the diagonal are
    exactly zero. A single matrix of size 1--3 is factored in scalar
    arithmetic with the same result. A non-positive pivot raises
    BatchItemError carrying both the failing item indices and the pivot
    index per item.
    """
    A = np.asarray(A, dtype=np.float64)
    if _small_single(A):
        _check_finite(A, "A")
        L = _cholesky_single(A.tolist())
        if L is not None:
            return L
        # a non-positive pivot raises from the batched path below
    single = A.ndim == 2
    if single:
        A = A[None, :, :]
    if A.ndim != 3 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected square items, got shape {A.shape}")
    _check_finite(A, "A")
    b, n, _ = A.shape
    L = np.zeros_like(A)
    bad_items: list[int] = []
    bad_pivots: list[int] = []
    alive = np.ones(b, dtype=bool)
    for j in range(n):
        s = A[:, j, j] - np.sum(L[:, j, :j] ** 2, axis=-1)
        failed = alive & (s <= 0.0)
        if np.any(failed):
            for i in np.nonzero(failed)[0]:
                bad_items.append(int(i))
                bad_pivots.append(j)
            alive &= ~failed
        if bad_items:
            s = np.where(alive, s, 1.0)  # keep the sweep going for diagnostics
        L[:, j, j] = np.sqrt(s)
        if j + 1 < n:
            # one column of the factor for all remaining rows, batched
            dots = np.einsum("bik,bk->bi", L[:, j + 1 :, :j], L[:, j, :j])
            L[:, j + 1 :, j] = (A[:, j + 1 :, j] - dots) / L[:, j, j][:, None]
    if bad_items:
        order = np.argsort(bad_items)
        raise BatchItemError(
            "non-positive pivot",
            [bad_items[k] for k in order],
            [bad_pivots[k] for k in order],
        )
    return L[0] if single else L


def tree_combine(parts: Sequence):
    """Sum a list of partials with a fixed pairwise binary tree.

    The combination order depends only on len(parts), never on how the
    partials were produced, which is what makes chunked parallel
    reductions reproducible.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("empty partial list")
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def reduce_sum(items, chunk=DEFAULT_CHUNK):
    """Element-wise sum over the batch axis (axis 0).

    Accepts a MatBatch, VecBatch, or plain sequence of reals; returns the
    summed Mat / Vec / scalar. The reduction is a fixed binary tree over
    fixed chunk boundaries, independent of worker count.
    """
    a = np.asarray(items, dtype=np.float64)
    if a.shape[0] == 0:
        raise ValueError("empty batch")
    out = tree_combine([np.sum(a[lo : lo + chunk], axis=0) for lo in range(0, a.shape[0], chunk)])
    if np.ndim(out) == 0:
        return float(out)
    return out


def spd_jitter_retry(op: Callable[[np.ndarray], np.ndarray], A: np.ndarray, context: str = ""):
    """Run an SPD-only batched op, retrying once with diagonal jitter.

    On the first failure, 1e-10 * trace/dim is added to every item's
    diagonal and the op retried; a second failure is a hard NumericError.
    """
    try:
        return op(A)
    except BatchItemError as first:
        dim = A.shape[-1]
        tr = np.trace(A, axis1=-2, axis2=-1)
        jitter = 1e-10 * tr / dim
        eye = np.eye(dim)
        jittered = A + (np.atleast_1d(jitter)[..., None, None] if A.ndim == 3 else jitter) * eye
        try:
            return op(jittered)
        except BatchItemError as second:
            raise NumericError(
                f"{context or 'SPD operation'} failed after jitter retry: {second}"
            ) from first


@dataclass(frozen=True)
class ExecPlan:
    """How batched per-item work is scheduled.

    workers = 1 runs chunks serially; workers > 1 uses a thread pool.
    Chunk boundaries depend only on chunk_size, so results do not depend
    on the worker count.
    """

    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK

    def chunks(self, n: int) -> list[tuple[int, int]]:
        return [(lo, min(lo + self.chunk_size, n)) for lo in range(0, n, self.chunk_size)]

    def map(self, fn: Callable[[int, int], object], n: int) -> list:
        """Apply fn(lo, hi) to every chunk; results in chunk order."""
        spans = self.chunks(n)
        if self.workers <= 1 or len(spans) <= 1:
            return [fn(lo, hi) for lo, hi in spans]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(lambda span: fn(*span), spans))
