import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from tissuemix import model
from tissuemix.samplers import RngStream

from conftest import ZeroStream, make_dataset, reference_lambda


def profile(*vals):
    return model.ExpressionProfile(np.array(vals, dtype=float))


class TestTransform:
    def test_single_network_upregulated(self):
        ds = model.transform([model.RawRecord(0.5, profile(1, 0, 0))])
        assert ds.mu[0] == 0.0
        np.testing.assert_array_equal(ds.D[0], [1.0, 0.0])

    def test_two_networks_constant(self):
        ds = model.transform([model.RawRecord(0.5, profile(1, 1))])
        assert ds.mu[0] == 1.0
        np.testing.assert_array_equal(ds.D[0], [0.0])

    def test_mixed_profile(self):
        ds = model.transform([model.RawRecord(0.0, profile(0, 1, 1))])
        assert ds.mu[0] == 1.0
        np.testing.assert_array_equal(ds.D[0], [-1.0, 0.0])

    def test_inconsistent_network_count(self):
        with pytest.raises(ValueError, match="networks"):
            model.transform([model.RawRecord(0.0, profile(1, 0)), model.RawRecord(0.0, profile(1, 0, 0))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            model.transform([])

    def test_roundtrip_reconstructs_profiles(self):
        rng = RngStream(1)
        profiles = model.random_profiles(rng, 50, 4)
        ds = model.transform([model.RawRecord(float(i), p) for i, p in enumerate(profiles)])
        raw = model.untransform(ds)
        np.testing.assert_array_equal(raw, np.stack([p.d for p in profiles]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=1, max_size=20))
def test_transform_untransform_property(bits):
    profiles = [profile(*row) for row in bits]
    ds = model.transform([model.RawRecord(0.0, p) for p in profiles])
    np.testing.assert_array_equal(model.untransform(ds), np.array(bits, dtype=float))


class TestDefaultHyperparams:
    def test_reference_precision_matrix(self):
        hp = model.default_hyperparams(3)
        want = np.array([[145.454545454545, -90.909090909090], [-90.909090909090, 181.818181818181]])
        np.testing.assert_allclose(hp.Lambda0, want, rtol=1e-9)

    def test_k0_thirds(self):
        hp = model.default_hyperparams(3)
        np.testing.assert_allclose(hp.K0, [1.0 / 3.0, 1.0 / 3.0])
        assert hp.a0 == 0.5 and hp.b0 == 0.5 and hp.q0 == 0.001 and hp.n0 == 1

    def test_two_networks_scalar_reduction(self):
        hp = model.default_hyperparams(2)
        np.testing.assert_allclose(hp.K0, [1.0 / 3.0])
        np.testing.assert_allclose(hp.Lambda0, [[100.0]])

    def test_minimum_networks(self):
        with pytest.raises(ValueError):
            model.default_hyperparams(1)


class TestFullWeights:
    def test_reference_triple(self):
        np.testing.assert_allclose(model.full_weights([0.1, 0.3]), [0.1, 0.3, 0.6])

    def test_symmetric(self):
        np.testing.assert_allclose(model.full_weights([1 / 3, 1 / 3]), [1 / 3, 1 / 3, 1 / 3])

    def test_fibroblast_style_triple(self):
        np.testing.assert_allclose(model.full_weights([0.6676, 0.2782]), [0.6676, 0.2782, 0.0542])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=6))
    def test_sums_to_one(self, k):
        w = model.full_weights(np.array(k))
        assert w[-1] == 1.0 - np.asarray(k).sum()


class TestSynthGenerate:
    def test_zero_noise_hook(self):
        profiles = [profile(1, 0, 0), profile(0, 1, 1), profile(1, 1, 0)]
        truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
        ds = model.synth_generate(ZeroStream(), truth, profiles)
        want = ds.D @ truth.K + ds.mu
        np.testing.assert_array_equal(ds.r, want)

    def test_reproducible_bit_for_bit(self):
        ds1, _ = make_dataset(300, seed=5)
        ds2, _ = make_dataset(300, seed=5)
        assert np.array_equal(ds1.r, ds2.r) and np.array_equal(ds1.D, ds2.D)

    def test_noise_variance_with_flat_profiles(self):
        V = 100_000
        profiles = [profile(1, 1, 1)] * V  # D = 0: residual variance is 1/rho
        truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
        ds = model.synth_generate(RngStream(6), truth, profiles)
        resid = ds.r - ds.mu
        assert abs(resid.var() * truth.rho - 1.0) < 0.05

    def test_profile_truth_mismatch(self):
        truth = model.ModelParams(K=np.array([0.1]), Lam=np.array([[100.0]]), rho=10.0)
        with pytest.raises(ValueError, match="networks"):
            model.synth_generate(RngStream(0), truth, [profile(1, 0, 0)])


class TestRandomProfiles:
    def test_includes_constants_by_default(self):
        profiles = model.random_profiles(RngStream(7), 4000, 3)
        mat = np.stack([p.d for p in profiles])
        spread = mat.max(axis=1) - mat.min(axis=1)
        n_const = int(np.sum(spread == 0))
        assert 0.18 * 4000 < n_const < 0.32 * 4000  # ~2/8 of uniform codes

    def test_exclusion_flag(self):
        profiles = model.random_profiles(RngStream(8), 2000, 3, include_constant=False)
        mat = np.stack([p.d for p in profiles])
        assert np.all(mat.max(axis=1) - mat.min(axis=1) > 0)

    def test_binary_values(self):
        profiles = model.random_profiles(RngStream(9), 500, 4)
        mat = np.stack([p.d for p in profiles])
        assert set(np.unique(mat)) <= {0.0, 1.0}


class TestMarginalLoglik:
    def test_flat_profiles_reduce_to_plain_gaussian(self):
        V = 40
        profiles = [profile(1, 1, 1)] * V
        truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
        ds = model.synth_generate(RngStream(10), truth, profiles)
        got = model.marginal_loglik(ds, truth)
        want = float(np.sum(norm.logpdf(ds.r, loc=ds.mu, scale=np.sqrt(1.0 / truth.rho))))
        assert abs(got - want) < 1e-9

    def test_single_gene_against_quadrature(self):
        ds = model.Dataset(r=np.array([0.7]), mu=np.array([0.2]), D=np.array([[0.8]]), n_networks=2)
        p = model.ModelParams(K=np.array([0.4]), Lam=np.array([[25.0]]), rho=50.0)

        def integrand(beta):
            return norm.pdf(0.7, loc=0.8 * beta + 0.2, scale=np.sqrt(1 / 50.0)) * norm.pdf(
                beta, loc=0.4, scale=np.sqrt(1 / 25.0)
            )

        want = np.log(quad(integrand, -10, 10, epsabs=1e-12)[0])
        got = model.marginal_loglik(ds, p)
        assert abs(got - want) < 1e-6

    def test_location_shift_invariance(self):
        ds, truth = make_dataset(60, seed=12)
        shifted = model.Dataset(r=ds.r + 3.7, mu=ds.mu + 3.7, D=ds.D, n_networks=ds.n_networks)
        assert model.marginal_loglik(ds, truth) == pytest.approx(
            model.marginal_loglik(shifted, truth), rel=1e-12
        )

    def test_maximized_at_gls_solution(self):
        ds, truth = make_dataset(120, seed=14)
        lam_inv = np.linalg.inv(truth.Lam)
        s2 = 1.0 / truth.rho + np.einsum("vd,de,ve->v", ds.D, lam_inv, ds.D)
        w = 1.0 / s2
        A = ds.D.T @ (ds.D * w[:, None])
        b = ds.D.T @ ((ds.r - ds.mu) * w)
        k_gls = np.linalg.solve(A, b)
        at_gls = model.marginal_loglik(ds, model.ModelParams(K=k_gls, Lam=truth.Lam, rho=truth.rho))
        for delta in ([0.01, 0.0], [0.0, -0.01], [0.005, 0.005]):
            other = model.ModelParams(K=k_gls + np.array(delta), Lam=truth.Lam, rho=truth.rho)
            assert model.marginal_loglik(ds, other) < at_gls


def inv_exact(M):
    """Gauss-Jordan inverse of an SPD matrix of Fractions, exactly."""
    d = len(M)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(M)]
    for j in range(d):
        aug[j] = [v / aug[j][j] for v in aug[j]]
        for k in range(d):
            if k != j:
                f = aug[k][j]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[j])]
    return [row[d:] for row in aug]


def det_exact(M):
    """Determinant of a 1x1, 2x2 or 3x3 matrix of Fractions."""
    if len(M) == 1:
        return M[0][0]
    if len(M) == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return sum(M[0][j] * det_exact([row[:j] + row[j + 1 :] for row in M[1:]]) * (-1) ** j for j in range(3))


class TestBetaGaussian:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rho_s", [0.0, 1e-3, 1.0, 1e3, 1e6])
    def test_matches_direct_inversion(self, d, rho_s):
        # reference: each precision Lambda + rho D_i D_i^T inverted directly,
        # in exact rational arithmetic so that its own rounding does not count
        rng = np.random.default_rng(d)
        B = rng.standard_normal((d, d))
        A = B @ B.T + 0.3 * np.eye(d)  # random SPD covariance, so Lambda = A^-1
        D = rng.standard_normal((12, d))
        D[:3] = 0.0
        D[3:6] *= 1e-4
        x = rng.standard_normal(12)
        K = rng.standard_normal(d)
        rho = rho_s / np.einsum("vi,ij,vj->v", D, A, D).max()  # largest rho s_i is rho_s
        q = model.BetaGaussian(A, rho, D)

        F = np.vectorize(Fraction, otypes=[object])
        lam = inv_exact(F(A).tolist())
        mean, cov, logdet, quad = [], [], [], []
        for Di, xi in zip(F(D).tolist(), F(x).tolist()):
            prec = [[lam[j][k] + Fraction(rho) * Di[j] * Di[k] for k in range(d)] for j in range(d)]
            sigma = inv_exact(prec)
            rhs = [sum(lam[j][k] * Fraction(K[k]) for k in range(d)) + Fraction(rho) * xi * Di[j] for j in range(d)]
            mean.append([float(sum(sigma[j][k] * rhs[k] for k in range(d))) for j in range(d)])
            cov.append([[float(v) for v in row] for row in sigma])
            det = det_exact(sigma)
            logdet.append(math.log(det.numerator) - math.log(det.denominator))
            quad.append(float(sum(Di[j] * sigma[j][k] * Di[k] for j in range(d) for k in range(d))))

        np.testing.assert_allclose(q.mean(K, x), mean, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(q.cov(), cov, rtol=0, atol=1e-14 * np.abs(A).max())
        np.testing.assert_allclose(q.logdet(), logdet, rtol=0, atol=1e-13)
        np.testing.assert_allclose(q.quad(), quad, rtol=1e-13, atol=0)
        # an uninformative profile leaves the prior exactly
        np.testing.assert_array_equal(q.mean(K, x)[:3], np.broadcast_to(K, (3, d)))
        np.testing.assert_array_equal(q.cov()[:3], np.broadcast_to(A, (3, d, d)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_draw_applies_cholesky_factor_of_covariance(self, d):
        rng = np.random.default_rng(d + 7)
        B = rng.standard_normal((d, d))
        A = B @ B.T + 0.3 * np.eye(d)
        D = rng.standard_normal((20, d))
        D[:2] = 0.0
        mean = rng.standard_normal((20, d))
        u = rng.standard_normal((20, d))
        q = model.BetaGaussian(A, 50.0, D)
        want = mean + np.einsum("vij,vj->vi", np.linalg.cholesky(q.cov()), u)
        np.testing.assert_allclose(q.draw(mean, u), want, rtol=1e-10, atol=1e-12)


class TestValidation:
    def test_dataset_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            model.Dataset(r=np.zeros(0), mu=np.zeros(0), D=np.zeros((0, 2)), n_networks=3)

    def test_dataset_immutable(self):
        ds, _ = make_dataset(10, seed=15)
        with pytest.raises(ValueError):
            ds.r[0] = 1.0

    def test_model_params_require_spd(self):
        with pytest.raises(Exception):
            model.ModelParams(K=np.zeros(2), Lam=np.array([[1.0, 2.0], [2.0, 1.0]]), rho=1.0)

    def test_profile_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            model.ExpressionProfile(np.array([1.0, np.nan]))

    def test_record_rejects_nonfinite_reading(self):
        with pytest.raises(ValueError):
            model.RawRecord(np.inf, profile(1, 0))


def per_gene_loglik(ds, p):
    """The marginal log-likelihood summed gene by gene, with no class grouping."""
    s2 = 1.0 / p.rho + np.einsum("vd,de,ve->v", ds.D, np.linalg.inv(p.Lam), ds.D)
    resid = ds.r - ds.mu - ds.D @ p.K
    return math.fsum(-0.5 * (np.log(2.0 * np.pi * s2) + resid**2 / s2))


class TestMarginalLoglikClassSums:
    def test_real_valued_profiles_match_per_gene_sum(self):
        rng = RngStream(16)
        profiles = [model.ExpressionProfile(row) for row in rng.uniforms(300 * 3).reshape(300, 3)]
        truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
        ds = model.synth_generate(rng, truth, profiles)
        assert ds.classes.C == ds.V
        p = model.ModelParams(K=np.array([0.15, 0.2]), Lam=0.5 * reference_lambda(), rho=60.0)
        want = per_gene_loglik(ds, p)
        assert model.marginal_loglik(ds, p) == pytest.approx(want, rel=1e-13)

    def test_centred_class_sums_do_not_cancel(self):
        # thousands of genes per class whose readings sit far from zero and
        # close to D_c^T K: sums of x and x^2 would lose about 7 digits here
        ds, truth = make_dataset(20000, seed=15, K=[3000.0, -2000.0])
        ds = model.Dataset(r=ds.r + 1e4, mu=ds.mu + 1e4, D=ds.D, n_networks=3)
        cl = ds.classes
        assert cl.C == 7 and cl.n.min() > 2000
        want = per_gene_loglik(ds, truth)
        assert model.marginal_loglik(ds, truth) == pytest.approx(want, rel=1e-13)

        x = ds.r - ds.mu
        t = cl.D @ truth.K
        raw = np.bincount(cl.index, x * x) - 2.0 * t * np.bincount(cl.index, x) + cl.n * t * t
        centred = cl.ss + cl.n * (cl.xbar - t) ** 2
        assert np.max(np.abs(raw - centred) / centred) > 1e-9
