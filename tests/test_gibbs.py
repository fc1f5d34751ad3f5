import numpy as np
import pytest

from tissuemix import gibbs, linalg, model, oracles
from tissuemix.samplers import (
    GammaParams,
    RngStream,
    RngStreamSet,
    WishartParams,
    sample_gamma,
    sample_mvn,
    sample_wishart,
)

from conftest import make_dataset


def tiny_two_network_instance():
    profiles = [model.ExpressionProfile(np.array(v, dtype=float)) for v in ([1, 0], [0, 1], [1, 0])]
    truth = model.ModelParams(K=np.array([0.3]), Lam=np.array([[50.0]]), rho=40.0)
    ds = model.synth_generate(RngStream(50), truth, profiles)
    hp = model.HyperParams(a0=2.0, b0=0.2, q0=0.5, n0=3, K0=np.array([1 / 3]), Lambda0=np.array([[50.0]]))
    return ds, hp


class TestFullConditionals:
    def test_lambda_dof_counts_genes_plus_one(self):
        hp = model.default_hyperparams(3)
        p = gibbs.lambda_full_conditional(hp, hp.K0, np.zeros((2, 2)), V=56)
        assert p.n == 58

    def test_lambda_rate_accumulation(self):
        hp = model.default_hyperparams(3)
        K = np.array([0.2, 0.1])
        scatter = np.array([[3.0, 1.0], [1.0, 2.0]])
        p = gibbs.lambda_full_conditional(hp, K, scatter, V=10)
        dk = K - hp.K0
        want_rate = np.linalg.inv(hp.Lambda0) + hp.q0 * np.outer(dk, dk) + scatter
        np.testing.assert_allclose(np.linalg.inv(p.scale), want_rate, rtol=1e-9)

    def test_k_prior_recovery_with_no_genes(self):
        hp = model.default_hyperparams(3)
        lam = np.array([[150.0, -90.0], [-90.0, 180.0]])
        mean, cov = gibbs.k_full_conditional(hp, lam, np.zeros(2), V=0)
        np.testing.assert_allclose(mean, hp.K0)
        np.testing.assert_allclose(cov, np.linalg.inv(hp.q0 * lam), rtol=1e-12)

    def test_rho_perfect_fit_reduces_to_prior_rate(self):
        hp = model.default_hyperparams(3)
        p = gibbs.rho_full_conditional(hp, ssr=0.0, V=20)
        assert p.b == hp.b0
        assert p.a == hp.a0 + 10.0

    @pytest.mark.parametrize("rho", [100.0, 1e5])
    def test_beta_draw_moments(self, rho):
        # beta_i given (K, Lambda, rho) is N(m_i, (Lambda + rho D_i D_i^T)^-1);
        # the draw gibbs_step makes, on n genes per profile with their own streams
        lam = np.linalg.inv(model.REFERENCE_LAMBDA_INV)
        K = np.array([0.1, 0.3])
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 1.0], [1.0, 1.0]])
        xs = np.array([0.2, 0.4, -0.1, 0.5])
        n = 40_000
        q = model.BetaGaussian(np.linalg.inv(lam), rho, np.repeat(rows, n, axis=0))
        u = RngStreamSet.for_batch(43, 4 * n).normals(2)
        draws = q.draw(q.mean(K, np.repeat(xs, n)), u).reshape(4, n, 2)
        for Di, xi, got in zip(rows, xs, draws):
            prec = lam + rho * np.outer(Di, Di)
            sigma = np.linalg.inv(prec)
            mean = np.linalg.solve(prec, lam @ K + rho * xi * Di)
            sd = np.sqrt(np.diag(sigma))
            assert np.all(np.abs(got.mean(0) - mean) < 4.5 * sd / np.sqrt(n))
            se_cov = np.sqrt((np.outer(sd, sd) ** 2 + sigma**2) / n)
            assert np.all(np.abs(np.cov(got.T) - sigma) < 4.5 * se_cov)


class TestChainMechanics:
    def test_deterministic_replay(self):
        ds, _ = make_dataset(40, seed=60)
        hp = model.default_hyperparams(3)
        cfg = gibbs.ChainConfig(iterations=50, burn_in=10, thin=2, seed=3)
        c1 = gibbs.gibbs_run(RngStream(3), ds, hp, cfg)
        c2 = gibbs.gibbs_run(RngStream(3), ds, hp, cfg)
        np.testing.assert_array_equal(c1.K, c2.K)
        np.testing.assert_array_equal(c1.rho, c2.rho)

    def test_kept_count(self):
        ds, _ = make_dataset(20, seed=61)
        hp = model.default_hyperparams(3)
        for iters, burn, thin in [(10, 0, 1), (10, 0, 3), (25, 5, 4), (13, 2, 1)]:
            cfg = gibbs.ChainConfig(iterations=iters, burn_in=burn, thin=thin, seed=1)
            chain = gibbs.gibbs_run(RngStream(1), ds, hp, cfg)
            assert chain.K.shape[0] == (iters - burn) // thin == cfg.kept

    def test_config_validation(self):
        with pytest.raises(ValueError):
            gibbs.ChainConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            gibbs.ChainConfig(iterations=10, burn_in=0, thin=0)

    def test_kept_draws_valid(self):
        ds, _ = make_dataset(30, seed=62)
        hp = model.default_hyperparams(3)
        cfg = gibbs.ChainConfig(iterations=60, burn_in=0, thin=1, seed=4)
        chain = gibbs.gibbs_run(RngStream(4), ds, hp, cfg)
        assert np.all(chain.rho > 0)
        linalg.cholesky_batched(chain.Lam)  # every kept Lambda SPD

    def test_gene_and_stream_permutation_equality(self):
        # permuting genes together with their streams leaves the chain's
        # global draws identical and permutes the betas
        ds, _ = make_dataset(17, seed=63)
        hp = model.default_hyperparams(3)
        perm = np.random.default_rng(2).permutation(ds.V)
        ds_p = model.Dataset(r=ds.r[perm], mu=ds.mu[perm], D=ds.D[perm], n_networks=3)
        ids = np.arange(100, 100 + ds.V, dtype=np.uint64)

        def advance(dataset, stream_ids, steps=4):
            state = gibbs.ChainState(
                K=hp.K0.copy(),
                Lam=hp.Lambda0.copy(),
                rho=1.0,
                beta=np.broadcast_to(hp.K0, (ds.V, 2)).copy(),
            )
            rng = RngStream(9)
            streams = RngStreamSet(9, stream_ids.copy())
            for _ in range(steps):
                state = gibbs.gibbs_step(rng, state, dataset, hp, streams=streams)
            return state

        plain = advance(ds, ids)
        permuted = advance(ds_p, ids[perm])
        # reductions are worker-invariant but not input-order-invariant, so
        # permuted sums may differ in the last bit; everything else is keyed
        # by stream id and carries only that rounding
        np.testing.assert_allclose(plain.K, permuted.K, rtol=1e-12)
        np.testing.assert_allclose(plain.Lam, permuted.Lam, rtol=1e-12)
        assert permuted.rho == pytest.approx(plain.rho, rel=1e-12)
        np.testing.assert_allclose(plain.beta[perm], permuted.beta, rtol=1e-10)

    def test_serial_parallel_bit_identical(self):
        ds, _ = make_dataset(1300, seed=64)
        hp = model.default_hyperparams(3)
        cfg = gibbs.ChainConfig(iterations=12, burn_in=0, thin=1, seed=8)
        c1 = gibbs.gibbs_run(RngStream(8), ds, hp, cfg, plan=linalg.ExecPlan(workers=1))
        c2 = gibbs.gibbs_run(RngStream(8), ds, hp, cfg, plan=linalg.ExecPlan(workers=3))
        np.testing.assert_array_equal(c1.K, c2.K)
        np.testing.assert_array_equal(c1.Lam, c2.Lam)
        np.testing.assert_array_equal(c1.rho, c2.rho)


class TestDiagnostics:
    def test_iid_chain_ess_near_n(self):
        x = np.random.default_rng(5).standard_normal(4000)
        e = gibbs.ess(x)
        assert abs(e - 4000) < 0.2 * 4000

    def test_ar1_chain_ess(self):
        rng = np.random.default_rng(6)
        phi = 0.5
        n = 40_000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(n) * np.sqrt(1 - phi**2)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        want = n * (1 - phi) / (1 + phi)
        assert abs(gibbs.ess(x) - want) < 0.25 * want

    def test_constant_chain_flagged(self):
        ds, _ = make_dataset(10, seed=65)
        chain = gibbs.Chain(
            K=np.zeros((200, 2)),
            Lam=np.broadcast_to(np.eye(2), (200, 2, 2)).copy(),
            rho=np.ones(200),
            config=gibbs.ChainConfig(iterations=200, burn_in=0, thin=1, seed=0),
        )
        diags = gibbs.gibbs_diagnostics(chain)
        assert diags["rho"]["degenerate"] == 1.0
        assert np.isnan(diags["rho"]["rhat"])

    def test_short_chain_rejected(self):
        chain = gibbs.Chain(
            K=np.zeros((50, 2)),
            Lam=np.broadcast_to(np.eye(2), (50, 2, 2)).copy(),
            rho=np.ones(50),
            config=gibbs.ChainConfig(iterations=50, burn_in=0, thin=1, seed=0),
        )
        with pytest.raises(ValueError, match="100"):
            gibbs.gibbs_diagnostics(chain)

    def test_healthy_chain_rhat_near_one(self):
        ds, _ = make_dataset(60, seed=66)
        hp = model.default_hyperparams(3)
        cfg = gibbs.ChainConfig(iterations=1200, burn_in=200, thin=1, seed=11)
        chain = gibbs.gibbs_run(RngStream(11), ds, hp, cfg)
        diags = gibbs.gibbs_diagnostics(chain)
        for name in ("K1", "K2"):
            assert diags[name]["rhat"] < 1.1

    def test_overdispersed_start_converges_to_same_region(self):
        ds, _ = make_dataset(80, seed=67)
        hp = model.default_hyperparams(3)
        cfg = gibbs.ChainConfig(iterations=1500, burn_in=500, thin=1, seed=12)
        plain = gibbs.gibbs_run(RngStream(12), ds, hp, cfg)
        wide = gibbs.gibbs_run(
            RngStream(12), ds, hp, cfg, init=gibbs.overdispersed_init(RngStream(99), ds, hp)
        )
        assert np.linalg.norm(wide.K.mean(0) - plain.K.mean(0)) < 0.05
        for x in (wide.K[:, 0], wide.K[:, 1]):
            assert gibbs.split_rhat(x) < 1.2


class TestPosteriorCorrectness:
    def test_matches_quadrature_oracle(self):
        ds, hp = tiny_two_network_instance()
        mom = oracles.oracle_posterior_mean(ds, hp, res=320)
        cfg = gibbs.ChainConfig(iterations=22_000, burn_in=2_000, thin=1, seed=7)
        chain = gibbs.gibbs_run(RngStream(7), ds, hp, cfg)
        se_k = chain.K[:, 0].std(ddof=1) / np.sqrt(gibbs.ess(chain.K[:, 0]))
        se_r = chain.rho.std(ddof=1) / np.sqrt(gibbs.ess(chain.rho))
        assert abs(chain.K.mean() - mom.e_k) < 3.0 * se_k
        assert abs(chain.rho.mean() - mom.e_rho) < 3.0 * se_r

    def test_prior_reproduction_geweke(self):
        # alternating data re-simulation and one Gibbs scan must leave the
        # prior invariant; compared against direct prior draws at a = 0.001
        V = 5
        profiles = [
            model.ExpressionProfile(np.array(v, dtype=float))
            for v in ([1, 0], [0, 1], [1, 0], [0, 1], [1, 0])
        ]
        base = model.transform([model.RawRecord(0.0, p) for p in profiles])
        hp = model.HyperParams(a0=2.0, b0=1.0, q0=1.0, n0=7, K0=np.array([0.3]), Lambda0=np.array([[2.0]]))

        # direct prior draws, vectorized
        M = 40_000
        u = RngStreamSet.for_batch(1000, M).normals(hp.n0)
        lam_prior = hp.Lambda0[0, 0] * np.sum(u**2, axis=1)
        zk = RngStream(1001).normals(M)
        k_prior = hp.K0[0] + zk / np.sqrt(hp.q0 * lam_prior)
        rho_prior = np.asarray(sample_gamma(RngStream(1002), GammaParams(hp.a0, hp.b0), size=M))

        # successive-conditional chain
        rng = RngStream(2000)
        streams = RngStreamSet.for_batch(2000, V, base=500_000)
        lam0 = sample_wishart(rng, WishartParams(hp.n0, hp.Lambda0))
        k0 = sample_mvn(rng, hp.K0, hp.q0 * lam0, mode="precision")
        rho0 = float(sample_gamma(rng, GammaParams(hp.a0, hp.b0)))
        beta0 = np.stack([sample_mvn(rng, k0, lam0, mode="precision") for _ in range(V)])
        state = gibbs.ChainState(K=k0, Lam=lam0, rho=rho0, beta=beta0)
        N = 15_000
        k_chain = np.empty(N)
        lam_chain = np.empty(N)
        rho_chain = np.empty(N)
        for n in range(N):
            eps = rng.normals(V) / np.sqrt(state.rho)
            r = np.einsum("vd,vd->v", base.D, state.beta) + base.mu + eps
            ds = model.Dataset(r=r, mu=base.mu, D=base.D, n_networks=2)
            state = gibbs.gibbs_step(rng, state, ds, hp, streams=streams)
            k_chain[n] = state.K[0]
            lam_chain[n] = state.Lam[0, 0]
            rho_chain[n] = state.rho

        def z(prior_x, chain_x):
            se1 = prior_x.std(ddof=1) / np.sqrt(len(prior_x))
            se2 = chain_x.std(ddof=1) / np.sqrt(gibbs.ess(chain_x))
            return (prior_x.mean() - chain_x.mean()) / np.sqrt(se1**2 + se2**2)

        crit = 3.29  # two-sided alpha = 0.001
        stats = {
            "K": z(k_prior, k_chain),
            "K2": z(k_prior**2, k_chain**2),
            "lam": z(lam_prior, lam_chain),
            "lam2": z(lam_prior**2, lam_chain**2),
            "rho": z(rho_prior, rho_chain),
            "rho2": z(rho_prior**2, rho_chain**2),
        }
        for name, value in stats.items():
            assert abs(value) < crit, f"{name}: z = {value:.2f}"
