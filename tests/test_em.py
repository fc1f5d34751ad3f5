import math

import numpy as np
import pytest
from scipy.optimize import minimize

from tissuemix import em, linalg, model
from tissuemix.samplers import RngStream

from conftest import make_dataset, reference_lambda


def init_params(hp):
    return model.ModelParams(K=hp.K0, Lam=hp.Lambda0, rho=hp.a0 / hp.b0)


class TestEstep:
    def test_vanishing_rho_leaves_prior_covariance(self):
        ds, truth = make_dataset(20, seed=30)
        p = model.ModelParams(K=truth.K, Lam=truth.Lam, rho=1e-300)
        state = em.EmState(params=p, Sigma=np.empty(0), M=np.empty(0), S=np.empty(0))
        new = em.em_step(state, ds)
        lam_inv = np.linalg.inv(truth.Lam)
        np.testing.assert_allclose(new.Sigma, np.broadcast_to(lam_inv, (20, 2, 2)), rtol=1e-9)

    def test_flat_profiles_fixed_point_of_k(self):
        # constant profiles: M_i = K for every gene, so K is stationary and
        # rho becomes 1 / mean squared residual
        V = 60
        profiles = [model.ExpressionProfile(np.array([1.0, 1.0, 1.0]))] * V
        truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
        ds = model.synth_generate(RngStream(31), truth, profiles)
        p0 = model.ModelParams(K=np.array([0.2, 0.2]), Lam=truth.Lam, rho=5.0)
        state = em.EmState(params=p0, Sigma=np.empty(0), M=np.empty(0), S=np.empty(0))
        new = em.em_step(state, ds)
        np.testing.assert_allclose(new.params.K, p0.K, rtol=1e-12)
        np.testing.assert_allclose(new.M, np.broadcast_to(p0.K, (V, 2)), rtol=1e-12)
        want_rho = V / float(np.sum((ds.r - ds.mu) ** 2))
        assert new.params.rho == pytest.approx(want_rho, rel=1e-12)

    def test_equal_s_gives_reciprocal_rho(self):
        ds, truth = make_dataset(25, seed=32)
        state = em.EmState(params=truth, Sigma=np.empty(0), M=np.empty(0), S=np.empty(0))
        new = em.em_step(state, ds)
        assert new.params.rho == pytest.approx(ds.V / float(np.sum(new.S)), rel=1e-12)

    def test_sigma_spd_for_every_gene(self):
        ds, truth = make_dataset(150, seed=33)
        state = em.EmState(params=truth, Sigma=np.empty(0), M=np.empty(0), S=np.empty(0))
        new = em.em_step(state, ds)
        linalg.cholesky_batched(new.Sigma)


class TestFit:
    def test_ascent_on_random_small_instances(self):
        for seed in range(37, 57):
            ds, _ = make_dataset(50, seed=seed)
            hp = model.default_hyperparams(3)
            params, trace = em.em_fit(ds, init_params(hp), max_iter=150)
            ll = trace.loglik
            assert np.all(np.diff(ll) >= -1e-9 * np.abs(ll[1:])), f"seed {seed}"

    def test_fixed_point_after_convergence(self):
        # real-valued profiles identify (rho, Lambda) sharply, so the
        # iteration reaches a genuine stationary point quickly
        rng = RngStream(34)
        raw = rng.uniforms(120 * 3).reshape(120, 3)
        profiles = [model.ExpressionProfile(row) for row in raw]
        truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
        ds = model.synth_generate(rng, truth, profiles)
        hp = model.default_hyperparams(3)
        params, _ = em.em_fit(ds, init_params(hp), max_iter=5000, rel_tol=1e-15)
        state = em.EmState(params=params, Sigma=np.empty(0), M=np.empty(0), S=np.empty(0))
        after = em.em_step(state, ds).params
        assert np.max(np.abs(after.K - params.K)) < 1e-6
        assert abs(after.rho - params.rho) < 1e-5 * params.rho
        assert np.max(np.abs(after.Lam - params.Lam)) < 1e-4 * np.max(np.abs(params.Lam))

    def test_noiseless_data_keeps_k_exact(self):
        # exact readings pin the K update: M_i = K when r = D^T K + mu.
        # rho legitimately diverges on zero-noise data (degenerate ML), so
        # only the weight estimate is asserted.
        from conftest import ZeroStream

        profiles = model.random_profiles(RngStream(35), 40, 3)
        truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
        ds = model.synth_generate(ZeroStream(), truth, profiles)
        p0 = model.ModelParams(K=truth.K, Lam=truth.Lam, rho=1e9)
        state = em.EmState(params=p0, Sigma=np.empty(0), M=np.empty(0), S=np.empty(0))
        new = em.em_step(state, ds)
        np.testing.assert_allclose(new.params.K, truth.K, atol=1e-10)
        assert new.params.rho > p0.rho  # pushes toward the zero-noise limit

    def test_matches_direct_maximization_on_tiny_instance(self):
        ds, _ = make_dataset(40, seed=36, N=2)
        hp = model.default_hyperparams(2)
        params, _ = em.em_fit(ds, init_params(hp), max_iter=5000, rel_tol=1e-14)

        def neg_ll(theta):
            k, log_lam, log_rho = theta
            p = model.ModelParams(K=np.array([k]), Lam=np.array([[np.exp(log_lam)]]), rho=np.exp(log_rho))
            return -model.marginal_loglik(ds, p)

        # coarse grid then polish
        best = None
        for k in np.linspace(-0.5, 1.0, 16):
            for ll_ in np.linspace(0, 8, 9):
                for lr in np.linspace(0, 8, 9):
                    v = neg_ll([k, ll_, lr])
                    if best is None or v < best[1]:
                        best = ([k, ll_, lr], v)
        res = minimize(neg_ll, best[0], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        assert abs(params.K[0] - res.x[0]) < 1e-3

    def test_permutation_invariance(self):
        ds, _ = make_dataset(200, seed=38)
        hp = model.default_hyperparams(3)
        perm = np.random.default_rng(1).permutation(ds.V)
        ds_p = model.Dataset(r=ds.r[perm], mu=ds.mu[perm], D=ds.D[perm], n_networks=3)
        p1, _ = em.em_fit(ds, init_params(hp), max_iter=60)
        p2, _ = em.em_fit(ds_p, init_params(hp), max_iter=60)
        np.testing.assert_allclose(p1.K, p2.K, rtol=1e-9)
        np.testing.assert_allclose(p1.rho, p2.rho, rtol=1e-9)

    def test_serial_parallel_bit_identical(self):
        ds, _ = make_dataset(1500, seed=39)
        hp = model.default_hyperparams(3)
        p1, t1 = em.em_fit(ds, init_params(hp), max_iter=25, plan=linalg.ExecPlan(workers=1))
        p2, t2 = em.em_fit(ds, init_params(hp), max_iter=25, plan=linalg.ExecPlan(workers=3))
        assert np.array_equal(p1.K, p2.K)
        assert p1.rho == p2.rho
        assert np.array_equal(t1.loglik, t2.loglik)

    def test_max_iter_validated(self):
        ds, _ = make_dataset(10, seed=40)
        hp = model.default_hyperparams(3)
        with pytest.raises(ValueError):
            em.em_fit(ds, init_params(hp), max_iter=0)

    def test_stops_on_tolerance(self):
        ds, _ = make_dataset(200, seed=41)
        hp = model.default_hyperparams(3)
        _, trace = em.em_fit(ds, init_params(hp), max_iter=1000, rel_tol=1e-6)
        assert trace.converged and trace.stop_reason == "tolerance"
        assert len(trace) < 1000
        ll = trace.loglik
        assert abs(ll[-1] - ll[-2]) < 1e-6 * abs(ll[-1])

    def test_stops_on_max_iter(self):
        ds, _ = make_dataset(200, seed=41)
        hp = model.default_hyperparams(3)
        _, trace = em.em_fit(ds, init_params(hp), max_iter=5, rel_tol=0.0)
        assert not trace.converged and trace.stop_reason == "max_iter"
        assert len(trace) == 5


def per_gene_step(params, ds):
    """One EM step gene by gene from BetaGaussian, with no class grouping."""
    q = model.BetaGaussian(np.linalg.inv(params.Lam), params.rho, ds.D)
    x = ds.r - ds.mu
    M = q.mean(params.K, x)
    Sigma = q.cov()
    S = (x - np.einsum("vi,vi->v", ds.D, M)) ** 2 + q.quad()
    V = ds.V
    K = np.array([math.fsum(col) for col in M.T]) / V
    dev = M - K
    lam_inv = (dev.T @ dev + Sigma.sum(axis=0)) / V
    lam = np.linalg.inv(0.5 * (lam_inv + lam_inv.T))
    return model.ModelParams(K=K, Lam=0.5 * (lam + lam.T), rho=V / math.fsum(S)), Sigma, M, S


def binary_dataset():
    return make_dataset(300, seed=42)[0]


def real_valued_dataset():
    rng = RngStream(43)
    profiles = [model.ExpressionProfile(row) for row in rng.uniforms(200 * 3).reshape(200, 3)]
    truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
    return model.synth_generate(rng, truth, profiles)


def constant_dataset():
    # all-zero and all-one profiles: different mu, the same D row (0, 0)
    rng = RngStream(44)
    bits = rng.uniforms(150) < 0.5
    profiles = [model.ExpressionProfile(np.full(3, float(b))) for b in bits]
    truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
    return model.synth_generate(rng, truth, profiles)


class TestClassSums:
    @pytest.mark.parametrize(
        "make, classes",
        [(binary_dataset, 7), (real_valued_dataset, 200), (constant_dataset, 1)],
        ids=["binary", "real-valued", "constant"],
    )
    def test_step_matches_per_gene_computation(self, make, classes):
        ds = make()
        assert ds.classes.C == classes
        p0 = model.ModelParams(K=np.array([0.2, 0.25]), Lam=0.7 * reference_lambda(), rho=40.0)
        state = em.EmState(params=p0, Sigma=np.empty(0), M=np.empty(0), S=np.empty(0))
        new = em.em_step(state, ds)
        want, Sigma, M, S = per_gene_step(p0, ds)
        np.testing.assert_allclose(new.Sigma, Sigma, rtol=1e-12)
        np.testing.assert_allclose(new.M, M, rtol=1e-12)
        np.testing.assert_allclose(new.S, S, rtol=1e-12)
        np.testing.assert_allclose(new.params.K, want.K, rtol=1e-12)
        np.testing.assert_allclose(new.params.Lam, want.Lam, rtol=1e-12)
        assert new.params.rho == pytest.approx(want.rho, rel=1e-12)

    @pytest.mark.parametrize("make", [binary_dataset, real_valued_dataset], ids=["binary", "real-valued"])
    def test_fit_bit_identical_under_gene_permutation(self, make):
        ds = make()
        perm = np.random.default_rng(5).permutation(ds.V)
        ds_p = model.Dataset(r=ds.r[perm], mu=ds.mu[perm], D=ds.D[perm], n_networks=3)
        hp = model.default_hyperparams(3)
        p1, t1 = em.em_fit(ds, init_params(hp), max_iter=80, rel_tol=0.0)
        p2, t2 = em.em_fit(ds_p, init_params(hp), max_iter=80, rel_tol=0.0)
        assert np.array_equal(p1.K, p2.K)
        assert np.array_equal(p1.Lam, p2.Lam)
        assert p1.rho == p2.rho
        assert np.array_equal(t1.loglik, t2.loglik)
        assert np.array_equal(t1.K, t2.K) and np.array_equal(t1.rho, t2.rho)
