import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tissuemix import linalg
from tissuemix.oracles import kahan_sum


def rand_spd(rng, batch, dim):
    a = rng.standard_normal((batch, dim, dim))
    return np.einsum("bij,bkj->bik", a, a) + 0.5 * np.eye(dim)


class TestGemmBatched:
    def test_identity(self):
        A = np.eye(2)[None]
        B = np.array([[[2.0, 3.0], [4.0, 5.0]]])
        out = linalg.gemm_batched(A, B)
        np.testing.assert_array_equal(out, B)

    def test_outer_products_of_unit_vectors(self):
        D = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])  # two 2x1 columns
        out = linalg.gemm_batched(D, D, transb=True)
        np.testing.assert_array_equal(out[0], [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(out[1], [[0.0, 0.0], [0.0, 1.0]])

    def test_matches_serial_loop_exactly(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((1000, 2, 2))
        B = rng.standard_normal((1000, 2, 2))
        batched = linalg.gemm_batched(A, B)
        serial = np.stack([linalg.gemm_batched(A[i], B[i])[0] for i in range(1000)])
        np.testing.assert_array_equal(batched, serial)  # 0 ULP

    def test_transpose_flags(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 2, 3))
        B = rng.standard_normal((4, 2, 3))
        out = linalg.gemm_batched(A, B, transa=True)
        np.testing.assert_allclose(out, np.swapaxes(A, 1, 2) @ B)
        out2 = linalg.gemm_batched(A, B, transb=True)
        np.testing.assert_allclose(out2, A @ np.swapaxes(B, 1, 2))

    def test_alpha_beta_accumulate(self):
        A = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        B = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        C = np.full((1, 2, 2), 10.0)
        out = linalg.gemm_batched(A, B, alpha=2.0, beta=0.5, C=C)
        np.testing.assert_allclose(out, 2.0 * B + 5.0)

    def test_broadcast_single_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((5, 2, 2))
        out = linalg.gemm_batched(A, B)
        np.testing.assert_allclose(out, np.stack([A @ B[i] for i in range(5)]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            linalg.gemm_batched(np.ones((1, 2, 3)), np.ones((1, 2, 3)))
        with pytest.raises(ValueError, match="batch mismatch"):
            linalg.gemm_batched(np.ones((2, 2, 2)), np.ones((3, 2, 2)))

    def test_non_finite_rejected(self):
        A = np.ones((1, 2, 2))
        A[0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            linalg.gemm_batched(A, np.ones((1, 2, 2)))

    def test_shuffle_unshuffle_is_noop(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((64, 3, 3))
        B = rng.standard_normal((64, 3, 3))
        perm = rng.permutation(64)
        plain = linalg.gemm_batched(A, B)
        shuffled = linalg.gemm_batched(A[perm], B[perm])
        np.testing.assert_array_equal(shuffled[np.argsort(perm)], plain)


class TestInverseBatched:
    def test_diagonal(self):
        out = linalg.inverse_batched(np.array([[2.0, 0.0], [0.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.0], [0.0, 0.25]])

    def test_identity(self):
        np.testing.assert_array_equal(linalg.inverse_batched(np.eye(3)), np.eye(3))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_residual_on_random_spd(self, dim):
        rng = np.random.default_rng(5)
        A = rand_spd(rng, 200, dim)
        B = linalg.inverse_batched(A)
        resid = np.einsum("bij,bjk->bik", A, B) - np.eye(dim)
        assert np.max(np.sqrt(np.sum(resid**2, axis=(1, 2)))) < 1e-10

    def test_involution_within_tolerance(self):
        rng = np.random.default_rng(6)
        A = rand_spd(rng, 100, 2)
        back = linalg.inverse_batched(linalg.inverse_batched(A))
        assert np.max(np.sqrt(np.sum((back - A) ** 2, axis=(1, 2)))) < 1e-9

    def test_singular_item_flagged_with_index(self):
        A = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))])
        with pytest.raises(linalg.BatchItemError) as exc:
            linalg.inverse_batched(A)
        assert exc.value.indices == [1, 3]

    def test_large_size_lu_path(self):
        rng = np.random.default_rng(7)
        A = rand_spd(rng, 20, 5)
        B = linalg.inverse_batched(A)
        np.testing.assert_allclose(np.einsum("bij,bjk->bik", A, B), np.broadcast_to(np.eye(5), (20, 5, 5)), atol=1e-9)


class TestCholeskyBatched:
    def test_diagonal(self):
        out = linalg.cholesky_batched(np.array([[4.0, 0.0], [0.0, 9.0]]))
        np.testing.assert_array_equal(out, [[2.0, 0.0], [0.0, 3.0]])

    def test_identity(self):
        np.testing.assert_array_equal(linalg.cholesky_batched(np.eye(2)), np.eye(2))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(8)
        A = rand_spd(rng, 300, 3)
        L = linalg.cholesky_batched(A)
        resid = np.einsum("bij,bkj->bik", L, L) - A
        assert np.max(np.sqrt(np.sum(resid**2, axis=(1, 2)))) < 1e-12

    def test_upper_triangle_exactly_zero(self):
        rng = np.random.default_rng(9)
        A = rand_spd(rng, 50, 3)
        L = linalg.cholesky_batched(A)
        iu = np.triu_indices(3, k=1)
        assert np.all(L[:, iu[0], iu[1]] == 0.0)

    def test_non_pd_item_carries_pivot(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite: pivot 1 fails
        A = np.stack([np.eye(2), bad])
        with pytest.raises(linalg.BatchItemError) as exc:
            linalg.cholesky_batched(A)
        assert exc.value.indices == [1]
        assert exc.value.pivots == [1]

    def test_failed_item_takes_no_root_of_later_pivots(self):
        # after pivot 0 fails, pivot 1 is negative too; it must not reach sqrt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(linalg.BatchItemError) as exc:
                linalg.cholesky_batched(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        assert exc.value.indices == [0]
        assert exc.value.pivots == [0]

    def test_matches_numpy(self):
        rng = np.random.default_rng(10)
        A = rand_spd(rng, 100, 2)
        np.testing.assert_allclose(linalg.cholesky_batched(A), np.linalg.cholesky(A), atol=1e-12)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSingleMatrixFastPath:
    """A single d x d matrix with d <= 3 gives what the batched path gives for it."""

    FNS = [linalg.inverse_batched, linalg.cholesky_batched]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([None, 0.0, -0.0]),
    )
    def test_spd_equals_batched_bit_for_bit(self, dim, seed, exponent, off_diagonal):
        A = rand_spd(np.random.default_rng(seed), 1, dim)[0] * 10.0**exponent
        if off_diagonal is not None and dim > 1:
            A[1, 0] = A[0, 1] = off_diagonal
            A[dim - 1, 0] = A[0, dim - 1] = off_diagonal
        for fn in self.FNS:
            assert _same_bits(fn(A), fn(A[None])[0])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, dim, value):
        A = np.eye(dim)
        A[dim - 1, 0] = value
        for fn in self.FNS:
            with pytest.raises(FloatingPointError):
                fn(A)

    SINGULAR = [np.zeros((1, 1)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((3, 3))]
    INDEFINITE = [np.array([[-2.0]]), np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, 1.0, -1.0])]

    @pytest.mark.parametrize("A", SINGULAR + INDEFINITE)
    def test_failures_match_batched(self, A):
        for fn in self.FNS:
            try:
                fn(A[None])
            except linalg.BatchItemError as batched:
                with pytest.raises(linalg.BatchItemError) as single:
                    fn(A)
                assert single.value.indices == batched.indices == [0]
                assert single.value.pivots == batched.pivots
                assert str(single.value) == str(batched)
            else:
                assert _same_bits(fn(A), fn(A[None])[0])

    @pytest.mark.parametrize("fn", FNS)
    @pytest.mark.parametrize("A", SINGULAR[1:])
    def test_jitter_retry_retries_once(self, fn, A):
        calls = []

        def op(M):
            calls.append(M.ndim)
            return fn(M)

        out = linalg.spd_jitter_retry(op, A)
        assert calls == [2, 2]
        assert _same_bits(out, linalg.spd_jitter_retry(fn, A[None])[0])


class TestReduceSum:
    def test_two_vectors(self):
        out = linalg.reduce_sum(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_zero_matrices(self):
        out = linalg.reduce_sum(np.zeros((7, 2, 2)))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_matches_compensated_sum(self):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal(8000) * np.exp(rng.uniform(-8, 8, size=8000))
        got = linalg.reduce_sum(xs)
        want = kahan_sum(xs)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-300)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            linalg.reduce_sum(np.zeros((0, 2)))

    def test_chunking_does_not_change_bits(self):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((5000, 2))
        full = linalg.reduce_sum(xs, chunk=1024)
        assert np.array_equal(full, linalg.reduce_sum(xs, chunk=1024))
        # fixed chunk boundaries: partial sums recombine to the same bits
        parts = [np.sum(xs[lo : lo + 1024], axis=0) for lo in range(0, 5000, 1024)]
        assert np.array_equal(linalg.tree_combine(parts), full)


class TestExecPlan:
    def test_worker_count_does_not_change_bits(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((4000, 2, 2))

        def kernel(lo, hi):
            return linalg.reduce_sum(np.einsum("bij,bkj->bik", data[lo:hi], data[lo:hi]))

        serial = linalg.tree_combine(linalg.ExecPlan(workers=1).map(kernel, 4000))
        threaded = linalg.tree_combine(linalg.ExecPlan(workers=4).map(kernel, 4000))
        assert np.array_equal(serial, threaded)

    def test_chunk_spans_cover_exactly(self):
        plan = linalg.ExecPlan(chunk_size=100)
        spans = plan.chunks(250)
        assert spans == [(0, 100), (100, 200), (200, 250)]


class TestJitterRetry:
    def test_recovers_marginal_matrix(self):
        # barely non-PD by roundoff scale; jitter must rescue it
        A = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-16]])
        out = linalg.spd_jitter_retry(linalg.cholesky_batched, A)
        assert np.all(np.isfinite(out))

    def test_hard_failure_after_retry(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(linalg.NumericError):
            linalg.spd_jitter_retry(linalg.cholesky_batched, A, "test")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31 - 1))
def test_reduce_sum_permutation_invariant_in_fixed_tree(n, seed):
    # permuting then unpermuting the batch leaves per-item ops unchanged;
    # the deterministic reduction itself is a fixed function of the array
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, 3))
    a = linalg.reduce_sum(xs)
    b = linalg.reduce_sum(xs.copy())
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=30))
def test_tree_combine_matches_fsum_on_ones(k):
    parts = [np.float64(1.0)] * k
    assert linalg.tree_combine(parts) == k
