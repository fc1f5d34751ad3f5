import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tissuemix import linalg, samplers
from tissuemix.samplers import (
    GammaParams,
    RngStream,
    RngStreamSet,
    WishartParams,
    philox4x32,
    sample_gamma,
    sample_mvn,
    sample_wishart,
    wishart_factors,
)

from conftest import ZeroStream


class TestPhiloxCore:
    # Known-answer vectors published with the reference implementation of
    # the philox4x32-10 block cipher.
    KAT = [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        (
            (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
            (0xFFFFFFFF, 0xFFFFFFFF),
            (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
        ),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ]

    def test_known_answer_vectors(self):
        for ctr, key, want in self.KAT:
            got = philox4x32(np.array(ctr, dtype=np.uint64), np.array(key, dtype=np.uint64))
            assert tuple(int(x) for x in got) == want

    def test_vectorized_matches_scalar(self):
        ctrs = np.array([k[0] for k in self.KAT], dtype=np.uint64)
        keys = np.array([k[1] for k in self.KAT], dtype=np.uint64)
        got = philox4x32(ctrs, keys)
        for i, (_, _, want) in enumerate(self.KAT):
            assert tuple(int(x) for x in got[i]) == want


class TestStreams:
    def test_same_seed_and_stream_reproduce(self):
        a = RngStream(42, 7).normals(33)
        b = RngStream(42, 7).normals(33)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).normals(16)
        b = RngStream(42, 1).normals(16)
        assert not np.array_equal(a, b)

    def test_sequence_continues_across_calls(self):
        s = RngStream(5, 0)
        first = np.concatenate([s.uniforms(3), s.uniforms(5)])
        joined = RngStream(5, 0).uniforms(8)
        # calls consume whole blocks, so the second call starts at block 2
        np.testing.assert_array_equal(first[:3], joined[:3])
        assert s._block == 2 + 3

    def test_uniforms_in_half_open_unit_interval(self):
        u = RngStream(1, 2).uniforms(10_000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_set_rows_match_single_streams(self):
        ss = RngStreamSet.for_batch(9, 4, base=100)
        block = ss.normals(5)
        for i in range(4):
            np.testing.assert_array_equal(block[i], RngStream(9, 100 + i).normals(5))

    def test_set_advances_in_lockstep(self):
        ss = RngStreamSet.for_batch(9, 3)
        a = ss.normals(2)
        b = ss.normals(2)
        assert not np.array_equal(a, b)
        joined = RngStreamSet.for_batch(9, 3).normals(4)
        np.testing.assert_array_equal(a, joined[:, :2])

    def test_normal_moments(self):
        z = RngStream(77, 0).normals(400_000)
        assert abs(z.mean()) < 3.0 / np.sqrt(len(z))
        assert abs(z.var() - 1.0) < 3.0 * np.sqrt(2.0 / len(z))


# Value counts per call: none, one, odd and small, and above the per-stream
# window cap (samplers._STREAM_WINDOW blocks of two values).
CALL_SIZES = st.one_of(st.integers(0, 9), st.integers(10, 300), st.integers(1020, 1100))
SEEDS = st.integers(0, 2**64 - 1)


class TestPrefetchWindow:
    """Each call returns what an unbuffered draw of its blocks returns."""

    @staticmethod
    def check(stream, seed, stream_ids, kind, n):
        block = stream._block
        if kind == "jump":
            stream._block = n
            return
        got = stream.uniforms(n) if kind == "uniform" else stream.normals(n)
        want = samplers._draw(seed, stream_ids, block, n, kind)
        want = want[0] if np.ndim(stream_ids) == 0 else want
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert stream._block == block + -(-n // 2)

    @settings(max_examples=60, deadline=None)
    @given(
        SEEDS,
        st.integers(0, 2**40),
        st.integers(0, 2**20),
        st.lists(st.tuples(st.sampled_from(["uniform", "normal", "normal", "jump"]), CALL_SIZES), max_size=40),
    )
    def test_stream_calls(self, seed, stream_id, start, calls):
        stream = RngStream(seed, stream_id, start)
        for kind, n in calls:
            self.check(stream, seed, stream_id, kind, n)

    @settings(max_examples=40, deadline=None)
    @given(
        SEEDS,
        st.sampled_from([1, 2, 3, 56, 4096, 4097]),
        st.integers(0, 2**20),
        st.lists(st.tuples(st.sampled_from(["normal", "normal", "jump", "view"]), st.integers(0, 200)), max_size=25),
    )
    def test_set_calls_and_views(self, seed, batch, start, calls):
        streams = RngStreamSet(seed, np.arange(batch, dtype=np.uint64) + np.uint64(1_000_000), _block=start)
        for kind, n in calls:
            if batch > 56:
                n %= 4
            if kind == "view":
                index = n % batch
                view = streams.stream(index)
                for view_kind, view_n in [("normal", n), ("uniform", 3), ("normal", 1)]:
                    self.check(view, seed, int(streams.stream_ids[index]), view_kind, view_n)
            else:
                self.check(streams, seed, streams.stream_ids, kind, n)

    def test_large_calls_bypass_the_window(self):
        stream = RngStream(3)
        stream.normals(5)
        window = stream._window
        stream.normals(2 * samplers._STREAM_WINDOW + 1)
        assert stream._window is window
        streams = RngStreamSet.for_batch(3, samplers._SET_WINDOW + 1)
        streams.normals(1)
        assert streams._window is None


class TestGamma:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaParams(1.0, -2.0)

    def test_rate_scaling_is_exact(self):
        s1 = sample_gamma(RngStream(3), GammaParams(4.0, 1.0))
        s2 = sample_gamma(RngStream(3), GammaParams(4.0, 2.0))
        assert s1 / 2.0 == s2

    def test_strictly_positive(self):
        draws = sample_gamma(RngStream(8), GammaParams(0.5, 0.5), size=20_000)
        assert np.all(draws > 0.0)

    def test_large_shape_mean(self):
        n = 1_000_000
        draws = sample_gamma(RngStream(10), GammaParams(2000.5, 1.0), size=n)
        tol = 3.0 * np.sqrt(2000.5 / n)
        assert abs(draws.mean() - 2000.5) < tol

    def test_unit_shape_variance(self):
        n = 200_000
        draws = sample_gamma(RngStream(11), GammaParams(1.0, 1.0), size=n)
        # var of the sample variance of Exp(1) is (m4 - var^2)/n with m4 = 9
        se = np.sqrt((9.0 - 1.0) / n)
        assert abs(draws.var() - 1.0) < 3.0 * se

    def test_acceptance_rate_above_95_percent(self):
        rng = RngStream(12)
        n = 50_000
        draws = sample_gamma(rng, GammaParams(2.0, 1.0), size=n)
        # blocks consumed: 2 per attempt round-trip; efficiency shows up as
        # total block usage close to the 2-blocks-per-sample floor
        assert rng._block < 2 * n / 0.95
        assert len(draws) == n

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 1.0), (2000.5, 1.0)])
    def test_kolmogorov_smirnov(self, a, b):
        draws = sample_gamma(RngStream(13), GammaParams(a, b), size=10_000)
        res = stats.kstest(draws, stats.gamma(a, scale=1.0 / b).cdf)
        assert res.pvalue > 0.001

    def test_scalar_and_vector_paths_agree_in_distribution(self):
        scalar = np.array([sample_gamma(RngStream(14, i), GammaParams(3.0, 2.0)) for i in range(4000)])
        vector = sample_gamma(RngStream(15), GammaParams(3.0, 2.0), size=4000)
        res = stats.ks_2samp(scalar, vector)
        assert res.pvalue > 0.001


class TestMvn:
    def test_zero_noise_hook_returns_mean(self):
        mean = np.array([3.0, -1.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        out = sample_mvn(ZeroStream(), mean, cov)
        np.testing.assert_array_equal(out, mean)

    def test_mean_recovery(self):
        mean = np.array([5.0, 7.0])
        draws = RngStreamSet.for_batch(20, 100_000)
        u = draws.normals(2)
        samples = mean + u  # identity covariance: direct check of the normals
        assert np.all(np.abs(samples.mean(0) - mean) < 3.0 / np.sqrt(100_000))

    def test_empirical_covariance(self):
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        L = linalg.cholesky_batched(cov)
        u = RngStreamSet.for_batch(21, 100_000).normals(2)
        samples = u @ L.T
        emp = np.cov(samples.T)
        assert np.linalg.norm(emp - cov) < 0.05 * np.linalg.norm(cov)

    def test_precision_mode_matches_cov_mode(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        prec = np.linalg.inv(cov)
        a = sample_mvn(RngStream(22), np.zeros(2), cov, mode="cov")
        b = sample_mvn(RngStream(22), np.zeros(2), prec, mode="precision")
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_non_pd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(linalg.BatchItemError):
            sample_mvn(RngStream(23), np.zeros(2), bad)

    def test_mode_flag_validated(self):
        with pytest.raises(ValueError, match="mode"):
            sample_mvn(RngStream(24), np.zeros(2), np.eye(2), mode="sigma")


class TestWishart:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="integer"):
            WishartParams(2.5, np.eye(2))
        with pytest.raises(ValueError, match="dof"):
            WishartParams(1, np.eye(2))

    def test_every_draw_symmetric(self):
        for i in range(50):
            W = sample_wishart(RngStream(30, i), WishartParams(5, np.eye(2)))
            np.testing.assert_array_equal(W, W.T)

    def test_every_draw_positive_definite(self):
        for i in range(50):
            W = sample_wishart(RngStream(31, i), WishartParams(3, np.array([[1.0, 0.2], [0.2, 0.5]])))
            linalg.cholesky_batched(W)  # raises if not PD

    def test_mean_is_dof_times_scale(self):
        n_draws = 100_000
        acc = np.zeros((2, 2))
        scale = np.eye(2) / 10.0
        # vectorized: dof*dim normals per draw across a stream set
        u = RngStreamSet.for_batch(32, n_draws).normals(10 * 2).reshape(n_draws, 10, 2)
        R = linalg.cholesky_batched(scale)
        S = u @ R.T
        W = np.einsum("mnd,mne->mde", S, S)
        acc = W.mean(axis=0)
        assert np.linalg.norm(acc - np.eye(2)) < 0.05

    def test_sample_wishart_moments_small(self):
        draws = np.stack(
            [sample_wishart(RngStream(33, i), WishartParams(10, np.eye(2) / 10.0)) for i in range(20_000)]
        )
        assert np.linalg.norm(draws.mean(0) - np.eye(2)) < 0.05

    def test_dim1_reduces_to_chi_square(self):
        scale = 2.0
        draws = np.array(
            [sample_wishart(RngStream(34, i), WishartParams(7, np.array([[scale]])))[0, 0] for i in range(20_000)]
        )
        # W ~ scale * chi2_7: mean 7*scale, var 2*7*scale^2
        se = np.sqrt(2 * 7 * scale**2 / len(draws))
        assert abs(draws.mean() - 7 * scale) < 4 * se
        res = stats.kstest(draws / scale, stats.chi2(7).cdf)
        assert res.pvalue > 0.001


class TestWishartFactors:
    SCALES = {
        1: np.array([[2.0]]),
        2: np.array([[1.0, 0.2], [0.2, 0.5]]),
        3: np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.5]]),
    }

    @pytest.mark.parametrize("d, dof", [(d, dof) for d in (1, 2, 3) for dof in (d, d + 1, 4001)])
    def test_moments(self, d, dof):
        # W = F F^T ~ Wishart(dof, S): E[W_ij] = dof S_ij and
        # Var[W_ij] = dof (S_ij^2 + S_ii S_jj). The variance's z uses the
        # sample's own fourth central moment.
        S = self.SCALES[d]
        n = 40_000
        F = wishart_factors(RngStream(35, 10 * d + min(dof - d, 2)), WishartParams(dof, S), n)
        assert F.shape == (n, d, d)
        W = F @ F.transpose(0, 2, 1)
        var = dof * (S**2 + np.outer(np.diag(S), np.diag(S)))
        z_mean = (W.mean(0) - dof * S) / np.sqrt(var / n)
        dev = W - W.mean(0)
        m2, m4 = (dev**2).mean(0), (dev**4).mean(0)
        z_var = (m2 - var) / np.sqrt((m4 - m2**2) / n)
        assert np.max(np.abs(z_mean)) < 5.0
        assert np.max(np.abs(z_var)) < 5.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lower_triangular_with_positive_diagonal(self, d):
        F = wishart_factors(RngStream(36), WishartParams(d, self.SCALES[d]), 500)
        assert np.all(np.triu(F, 1) == 0.0)
        assert np.all(np.diagonal(F, axis1=1, axis2=2) > 0.0)

    def test_reproducible(self):
        p = WishartParams(5, self.SCALES[2])
        np.testing.assert_array_equal(
            wishart_factors(RngStream(37), p, 100), wishart_factors(RngStream(37), p, 100)
        )

    def test_count_validated(self):
        with pytest.raises(ValueError):
            wishart_factors(RngStream(38), WishartParams(3, np.eye(2)), 0)
