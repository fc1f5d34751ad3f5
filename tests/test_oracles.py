import math

import numpy as np
import pytest

from tissuemix import model, oracles, vb
from tissuemix.samplers import RngStream

from conftest import make_dataset


class TestKahanSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(5000) * np.exp(rng.uniform(-10, 10, 5000))
        assert oracles.kahan_sum(xs) == pytest.approx(math.fsum(xs), rel=1e-15)

    def test_catastrophic_cancellation(self):
        xs = [1e16, 1.0, -1e16, 1.0]
        assert oracles.kahan_sum(xs) == 2.0


class TestPosteriorQuadrature:
    def gentle_hp(self):
        return model.HyperParams(
            a0=2.0, b0=0.2, q0=0.5, n0=3, K0=np.array([1 / 3]), Lambda0=np.array([[50.0]])
        )

    def test_flat_data_recovers_prior_mean_of_k(self):
        # all-constant profiles: the readings say nothing about K, so the
        # posterior K mean is the prior mean K0
        profiles = [model.ExpressionProfile(np.array([1.0, 1.0]))] * 3
        truth = model.ModelParams(K=np.array([0.3]), Lam=np.array([[50.0]]), rho=40.0)
        ds = model.synth_generate(RngStream(70), truth, profiles)
        hp = self.gentle_hp()
        mom = oracles.oracle_posterior_mean(ds, hp, res=200, check_convergence=False)
        assert mom.e_k == pytest.approx(hp.K0[0], abs=2e-3)

    def test_grid_convergence_gate(self):
        profiles = [model.ExpressionProfile(np.array(v, dtype=float)) for v in ([1, 0], [0, 1], [1, 0])]
        truth = model.ModelParams(K=np.array([0.3]), Lam=np.array([[50.0]]), rho=40.0)
        ds = model.synth_generate(RngStream(71), truth, profiles)
        mom = oracles.oracle_posterior_mean(ds, self.gentle_hp(), res=300)
        assert mom.resolution == 600  # returned values come from the doubled pass

    def test_requires_two_networks(self):
        ds, _ = make_dataset(3, seed=72, N=3)
        with pytest.raises(ValueError, match="two-network"):
            oracles.oracle_posterior_mean(ds, model.default_hyperparams(3))

    def test_resolution_floor(self):
        ds, _ = make_dataset(3, seed=73, N=2)
        with pytest.raises(ValueError, match="200"):
            oracles.oracle_posterior_mean(ds, model.default_hyperparams(2), res=100)


class TestMcElbo:
    def test_se_scales_with_draws(self):
        ds, _ = make_dataset(5, seed=74)
        hp = model.default_hyperparams(3)
        state, _ = vb.vb_fit(ds, hp, max_iter=60)
        small = oracles.oracle_mc_elbo(state, ds, hp, 10_000, RngStream(75))
        big = oracles.oracle_mc_elbo(state, ds, hp, 1_000_000, RngStream(76))
        ratio = small.se / big.se
        assert abs(ratio - 10.0) < 2.0  # within 20% of sqrt scaling

    def test_minimum_draws(self):
        ds, _ = make_dataset(5, seed=77)
        hp = model.default_hyperparams(3)
        state, _ = vb.vb_fit(ds, hp, max_iter=5)
        with pytest.raises(ValueError):
            oracles.oracle_mc_elbo(state, ds, hp, 100, RngStream(0))

    def test_degenerate_q_estimate_equals_pointwise_ratio(self):
        # concentrate Q hard around a point: the MC average collapses to
        # the integrand there
        ds, _ = make_dataset(4, seed=78)
        hp = model.default_hyperparams(3)
        state, _ = vb.vb_fit(ds, hp, max_iter=40)
        tight = vb.VbState(
            a_rho=1e8,
            b_rho=1e8 / state.e_rho,
            mu_beta=state.mu_beta,
            lam_beta=state.lam_beta * 1e8,
            k0k=state.k0k,
            lam0l_inv=state.lam0l_inv,
            e_bbt=state.e_bbt,
            e_rho=state.e_rho,
            beta_cov0=state.beta_cov0,
            beta_rho=state.beta_rho,
        )
        mc = oracles.oracle_mc_elbo(tight, ds, hp, 10_000, RngStream(79))
        # with beta and rho pinned, the remaining spread comes from (K, Lambda)
        point = oracles.elbo_log_ratio(
            np.array([state.e_rho]),
            state.mu_beta[None],
            state.k0k[None],
            ((hp.n0 + ds.V) * np.linalg.inv(state.lam0l_inv))[None],
            tight,
            ds,
            hp,
        )[0]
        assert np.isfinite(mc.estimate) and np.isfinite(point)
        assert mc.n_excluded == 0

    def test_nonfinite_draws_reported(self):
        ds, _ = make_dataset(4, seed=80)
        hp = model.default_hyperparams(3)
        state, _ = vb.vb_fit(ds, hp, max_iter=40)
        mc = oracles.oracle_mc_elbo(state, ds, hp, 20_000, RngStream(81))
        assert mc.n_excluded == 0
        assert mc.n_draws == 20_000


class TestEvidence:
    def test_requires_two_networks(self):
        ds, _ = make_dataset(2, seed=82, N=3)
        with pytest.raises(ValueError, match="two-network"):
            oracles.oracle_log_evidence(ds, model.default_hyperparams(3))

    def test_stable_under_resolution(self):
        profile = model.ExpressionProfile(np.array([1.0, 0.0]))
        truth = model.ModelParams(K=np.array([0.4]), Lam=np.array([[100.0]]), rho=100.0)
        ds = model.synth_generate(RngStream(83), truth, [profile])
        hp = model.default_hyperparams(2)
        e1 = oracles.oracle_log_evidence(ds, hp, res=400)
        e2 = oracles.oracle_log_evidence(ds, hp, res=800)
        assert abs(e1 - e2) < 5e-3
