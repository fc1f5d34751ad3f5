import numpy as np
import pytest
from scipy import stats

from tissuemix import analysis, linalg, model, oracles, vb
from tissuemix.samplers import RngStream

from conftest import make_dataset, reference_lambda


def fit_small(V=120, seed=21, **kw):
    ds, truth = make_dataset(V, seed=seed)
    hp = model.default_hyperparams(3)
    state, trace = vb.vb_fit(ds, hp, **kw)
    return ds, hp, state, trace


class TestInit:
    def test_means_start_at_k0(self):
        ds, _ = make_dataset(50, seed=1)
        hp = model.default_hyperparams(3)
        state = vb.vb_init(ds, hp)
        np.testing.assert_allclose(state.mu_beta, np.full((50, 2), 1.0 / 3.0))
        np.testing.assert_allclose(state.k0k, [1.0 / 3.0, 1.0 / 3.0])

    def test_rho_block_starts_at_prior(self):
        ds, _ = make_dataset(50, seed=1)
        hp = model.default_hyperparams(3)
        state = vb.vb_init(ds, hp)
        assert state.a_rho == 0.5 and state.b_rho == 0.5

    def test_precisions_start_at_lambda0(self):
        ds, _ = make_dataset(5, seed=2)
        hp = model.default_hyperparams(3)
        state = vb.vb_init(ds, hp)
        for i in range(5):
            np.testing.assert_array_equal(state.lam_beta[i], hp.Lambda0)
        np.testing.assert_array_equal(state.lam0l_inv, hp.Lambda0)

    def test_dim_mismatch_rejected(self):
        ds, _ = make_dataset(5, seed=2)
        with pytest.raises(ValueError, match="dim"):
            vb.vb_init(ds, model.default_hyperparams(4))


class TestStep:
    def test_a_rho_is_data_size_only(self):
        ds, _ = make_dataset(4000, seed=3)
        hp = model.default_hyperparams(3)
        state = vb.vb_init(ds, hp)
        for _ in range(3):
            state = vb.vb_step(state, ds, hp)
            assert state.a_rho == 0.5 + 2000.0

    def test_beta_precision_formula(self):
        # lam_beta must equal E[Lambda] + E[rho] D D^T with the expectations
        # the sweep actually used (recomputed independently here)
        ds, _ = make_dataset(30, seed=4)
        hp = model.default_hyperparams(3)
        state = vb.vb_init(ds, hp)
        e_lam_used = (hp.n0 + ds.V) * np.linalg.inv(state.lam0l_inv)
        # recompute b_rho the way the sweep does, from the init moments
        sigma = np.linalg.inv(state.lam_beta)
        e_bbt = np.einsum("vi,vj->vij", state.mu_beta, state.mu_beta) + sigma
        rm = ds.r - ds.mu
        b_rho = hp.b0 + 0.5 * float(
            np.sum(rm**2 - 2 * rm * (ds.D @ hp.K0) + np.einsum("vi,vij,vj->v", ds.D, e_bbt, ds.D))
        )
        e_rho_used = (hp.a0 + 0.5 * ds.V) / b_rho
        new = vb.vb_step(state, ds, hp)
        want = e_lam_used + e_rho_used * np.einsum("vi,vj->vij", ds.D, ds.D)
        np.testing.assert_allclose(new.lam_beta, want, rtol=1e-12)
        assert new.b_rho == pytest.approx(b_rho, rel=1e-12)

    def test_weight_mean_update_arithmetic(self):
        # K update: (sum mu_beta + q0 K0) / (V + q0), checked on V = 1
        ds, _ = make_dataset(1, seed=5)
        hp = model.default_hyperparams(3)
        state = vb.vb_init(ds, hp)
        new = vb.vb_step(state, ds, hp)
        want = (new.mu_beta[0] + hp.q0 * hp.K0) / (1 + hp.q0)
        np.testing.assert_allclose(new.k0k, want, rtol=1e-12)

    def test_reference_arithmetic_case(self):
        # V=1, E[beta] = (0.1, 0.3): K update equals the hand-computed value
        mu = np.array([0.1, 0.3])
        k0 = np.full(2, 1.0 / 3.0)
        want = (mu + 0.001 * k0) / 1.001
        np.testing.assert_allclose(want, [(0.1 + 0.001 / 3) / 1.001, (0.3 + 0.001 / 3) / 1.001])

    def test_posterior_beta_covariance_spd(self):
        ds, hp, state, _ = fit_small(max_iter=20)
        sigma = linalg.inverse_batched(state.lam_beta)
        cov = state.e_bbt - np.einsum("vi,vj->vij", state.mu_beta, state.mu_beta)
        np.testing.assert_allclose(cov, sigma, atol=1e-10)
        linalg.cholesky_batched(cov + 1e-13 * np.eye(2))

    def test_permutation_invariance(self):
        ds, _ = make_dataset(257, seed=6)
        hp = model.default_hyperparams(3)
        perm = np.random.default_rng(0).permutation(ds.V)
        ds_p = model.Dataset(r=ds.r[perm], mu=ds.mu[perm], D=ds.D[perm], n_networks=3)
        s1, _ = vb.vb_fit(ds, hp, max_iter=40)
        s2, _ = vb.vb_fit(ds_p, hp, max_iter=40)
        np.testing.assert_allclose(s1.k0k, s2.k0k, rtol=1e-9)
        np.testing.assert_allclose(s1.b_rho, s2.b_rho, rtol=1e-9)
        np.testing.assert_allclose(s1.lam0l_inv, s2.lam0l_inv, rtol=1e-9)

    def test_sweep_permutation_equivariance(self):
        # sweeps on permuted genes give the same globals up to the
        # rounding of the gene sums, and the per-gene blocks permuted
        ds, _ = make_dataset(257, seed=6)
        hp = model.default_hyperparams(3)
        perm = np.random.default_rng(0).permutation(ds.V)
        ds_p = model.Dataset(r=ds.r[perm], mu=ds.mu[perm], D=ds.D[perm], n_networks=3)
        s1, s2 = vb.vb_init(ds, hp), vb.vb_init(ds_p, hp)
        for _ in range(5):
            s1, s2 = vb.vb_step(s1, ds, hp), vb.vb_step(s2, ds_p, hp)
        np.testing.assert_allclose(s2.k0k, s1.k0k, rtol=1e-12)
        np.testing.assert_allclose(s2.b_rho, s1.b_rho, rtol=1e-12)
        np.testing.assert_allclose(s2.lam0l_inv, s1.lam0l_inv, rtol=1e-12)
        np.testing.assert_allclose(s2.mu_beta, s1.mu_beta[perm], rtol=1e-12, atol=1e-14)


class TestElbo:
    def test_monotone_along_fit(self):
        _, _, _, trace = fit_small(V=300, seed=7, max_iter=150)
        e = trace.elbo
        assert np.all(np.diff(e) >= -1e-9 * np.abs(e[1:]))

    def test_matches_mc_oracle_improper_prior(self):
        ds, truth = make_dataset(5, seed=8)
        hp = model.default_hyperparams(3)
        state, _ = vb.vb_fit(ds, hp, max_iter=150)
        closed = vb.vb_elbo(state, ds, hp)
        mc = oracles.oracle_mc_elbo(state, ds, hp, 200_000, RngStream(80))
        assert abs(closed - mc.estimate) < 3.0 * mc.se

    def test_matches_mc_oracle_proper_prior(self):
        ds, truth = make_dataset(5, seed=9)
        hp = model.HyperParams(
            a0=0.5, b0=0.5, q0=0.001, n0=3, K0=np.full(2, 1 / 3), Lambda0=reference_lambda()
        )
        state, _ = vb.vb_fit(ds, hp, max_iter=150)
        closed = vb.vb_elbo(state, ds, hp)
        mc = oracles.oracle_mc_elbo(state, ds, hp, 200_000, RngStream(81))
        assert abs(closed - mc.estimate) < 3.0 * mc.se

    def test_bounded_by_quadrature_evidence(self):
        # two networks, one gene with an informative profile: the
        # converged bound must sit below the brute-force log evidence
        profile = model.ExpressionProfile(np.array([1.0, 0.0]))
        truth = model.ModelParams(K=np.array([0.4]), Lam=np.array([[100.0]]), rho=100.0)
        ds = model.synth_generate(RngStream(10), truth, [profile])
        hp = model.default_hyperparams(2)
        state, _ = vb.vb_fit(ds, hp, max_iter=400)
        bound = vb.vb_elbo(state, ds, hp)
        evidence = oracles.oracle_log_evidence(ds, hp, res=600)
        assert bound <= evidence + 1e-6
        assert evidence - bound < 5.0  # sanity: the gap is bounded

    def test_accelerated_fit_reaches_plain_fixed_point(self):
        # The bound is flat at its maximum, so a bound-change stop pins the
        # parameters only to about the square root of its tolerance.
        # rel_tol=0 never stops, which leaves the fixed point itself to
        # compare with a long plain run.
        ds, _ = make_dataset(300, seed=7)
        hp = model.default_hyperparams(3)
        state, trace = vb.vb_fit(ds, hp, max_iter=600, rel_tol=0.0)
        assert trace.stop_reason == "max_iter" and not trace.converged
        assert len(trace) + trace.rejected == 600
        assert trace.sweeps <= 600

        def blocks(s):
            return (s.k0k, s.a_rho / s.b_rho, s.lam0l_inv)

        plain = vb.vb_init(ds, hp)
        moves = []
        for _ in range(3000):
            new = vb.vb_step(plain, ds, hp)
            moves.append([np.max(np.abs(a - b)) for a, b in zip(blocks(new), blocks(plain))])
            plain = new
        moves = np.array(moves)
        scale = np.array([np.max(np.abs(b)) for b in blocks(plain)])
        # By sweep 3000 the plain run sits at the rounding floor (a block
        # can stop moving at all), so its last moves bound nothing. Sweep
        # 1800 is still in the geometric phase: every block moves by far
        # more than its rounding error.
        assert np.all(moves[1800] > 1e3 * np.finfo(float).eps * scale)
        # per-sweep contraction of plain CAVI over sweeps 1300-1800
        c = float(np.max((moves[1800] / moves[1300]) ** (1.0 / 500)))
        assert 0.0 < c < 1.0
        # a sweep that moves a block by m leaves it within m * c / (1 - c)
        # of the fixed point: the plain run's own bound after sweep 1800,
        # which its last 1200 sweeps shrink by a further c**1200
        tol = moves[1800] * c / (1.0 - c)
        for got, want, t in zip(blocks(state), blocks(plain), tol):
            assert np.max(np.abs(got - want)) <= t

    def test_converged_state_is_fixed_point(self):
        ds, hp, state, trace = fit_small(V=150, seed=11, max_iter=2500, rel_tol=1e-12)
        e0 = vb.vb_elbo(state, ds, hp)
        state2 = vb.vb_step(state, ds, hp)
        e1 = vb.vb_elbo(state2, ds, hp)
        assert abs(e1 - e0) < 1e-10 * abs(e0)


class TestFit:
    def test_max_iter_one(self):
        _, _, _, trace = fit_small(max_iter=1)
        assert len(trace) == 1

    def test_budget_counts_rejected_extrapolations(self):
        ds, _ = make_dataset(257, seed=6)
        hp = model.default_hyperparams(3)
        saw_rejection = False
        for max_iter in range(1, 41):
            _, trace = vb.vb_fit(ds, hp, max_iter=max_iter)
            assert len(trace) + trace.rejected == max_iter
            assert trace.stop_reason == "max_iter" and not trace.converged
            assert trace.sweeps <= max_iter
            # rows are numbered by sweep evaluations; a rejected step leaves
            # a gap, never a repeated zero-change row
            assert np.all(np.diff(trace.sweep) >= 1) and trace.sweep[-1] <= trace.sweeps
            moved = np.maximum.reduce([trace.delta_k0k, trace.delta_rho, trace.delta_lam])
            assert np.all(moved > 0.0)
            saw_rejection |= trace.rejected > 0
        assert saw_rejection

    def test_gene_order_does_not_change_fit(self):
        ds, _ = make_dataset(257, seed=6)
        hp = model.default_hyperparams(3)
        perm = np.random.default_rng(0).permutation(ds.V)
        ds_p = model.Dataset(r=ds.r[perm], mu=ds.mu[perm], D=ds.D[perm], n_networks=3)
        s1, t1 = vb.vb_fit(ds, hp, max_iter=40)
        s2, t2 = vb.vb_fit(ds_p, hp, max_iter=40)
        assert np.array_equal(t1.elbo, t2.elbo)
        assert np.array_equal(s1.lam0l_inv, s2.lam0l_inv)
        assert np.array_equal(s2.mu_beta, s1.mu_beta[perm])
        # per-gene blocks come back in the caller's gene order
        fit, _ = vb.vb_fit(ds, hp, max_iter=1)
        step = vb.vb_step(vb.vb_init(ds, hp), ds, hp)
        np.testing.assert_allclose(fit.mu_beta, step.mu_beta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(fit.lam_beta, step.lam_beta, rtol=1e-12)

    def test_stops_on_tolerance(self):
        _, _, _, trace = fit_small(max_iter=300, rel_tol=1e-8)
        assert trace.stop_reason == "tolerance" and trace.converged
        assert len(trace) + trace.rejected <= 300
        e = trace.elbo
        assert abs(e[-1] - e[-2]) < 1e-8 * abs(e[-1])

    def test_decoupled_flat_profile_limit(self):
        # all profiles constant: beta decouples from the data, K collapses
        # to K0 and b_rho to b0 + half the squared residuals
        V = 80
        profiles = [model.ExpressionProfile(np.array([1.0, 1.0, 1.0]))] * V
        truth = model.ModelParams(K=np.array([0.1, 0.3]), Lam=reference_lambda(), rho=100.0)
        ds = model.synth_generate(RngStream(12), truth, profiles)
        hp = model.default_hyperparams(3)
        state, _ = vb.vb_fit(ds, hp, max_iter=500, rel_tol=1e-12)
        np.testing.assert_allclose(state.k0k, hp.K0, atol=1e-6)
        np.testing.assert_allclose(state.mu_beta, np.broadcast_to(hp.K0, (V, 2)), atol=1e-6)
        want_b = hp.b0 + 0.5 * float(np.sum((ds.r - ds.mu) ** 2))
        assert state.b_rho == pytest.approx(want_b, rel=1e-9)

    def test_param_delta_fallback_stopping(self):
        ds, _ = make_dataset(60, seed=13)
        hp = model.default_hyperparams(3)
        state, trace = vb.vb_fit(ds, hp, max_iter=4000, compute_elbo=False, param_tol=1e-11)
        assert len(trace) < 4000
        assert np.all(np.isnan(trace.elbo))

    def test_serial_parallel_bit_identical(self):
        ds, _ = make_dataset(1500, seed=14)
        hp = model.default_hyperparams(3)
        s1, t1 = vb.vb_fit(ds, hp, max_iter=30, plan=linalg.ExecPlan(workers=1))
        s2, t2 = vb.vb_fit(ds, hp, max_iter=30, plan=linalg.ExecPlan(workers=3))
        assert np.array_equal(s1.k0k, s2.k0k)
        assert np.array_equal(s1.lam0l_inv, s2.lam0l_inv)
        assert np.array_equal(np.asarray(t1.elbo), np.asarray(t2.elbo))
        assert s1.b_rho == s2.b_rho


class TestPosteriorSample:
    def test_moment_recovery(self):
        ds, hp, state, _ = fit_small(V=200, seed=15, max_iter=120)
        draws = vb.vb_posterior_sample(RngStream(90), state, hp, ds.V, 100_000)
        nu = hp.n0 + ds.V
        np.testing.assert_allclose(draws["rho"].mean(), state.a_rho / state.b_rho, rtol=0.01)
        np.testing.assert_allclose(draws["K"].mean(0), state.k0k, atol=5e-3)
        want_lam = nu * np.linalg.inv(state.lam0l_inv)
        got_lam = draws["Lambda"].mean(0)
        assert np.linalg.norm(got_lam - want_lam) < 0.05 * np.linalg.norm(want_lam)

    def test_reproducible(self):
        ds, hp, state, _ = fit_small(V=50, seed=16, max_iter=40)
        a = vb.vb_posterior_sample(RngStream(91), state, hp, ds.V, 500)
        b = vb.vb_posterior_sample(RngStream(91), state, hp, ds.V, 500)
        np.testing.assert_array_equal(a["K"], b["K"])
        np.testing.assert_array_equal(a["rho"], b["rho"])

    def test_k_draws_match_t_covariance(self):
        # Marginally K is multivariate t with nu - d + 1 degrees of freedom,
        # so its covariance is lam0l_inv / ((nu - d - 1)(q0 + V)).
        ds, hp, state, _ = fit_small(V=30, seed=18, max_iter=60)
        n = 200_000
        K = vb.vb_posterior_sample(RngStream(93), state, hp, ds.V, n)["K"]
        d = state.dim
        cov = state.lam0l_inv / ((hp.n0 + ds.V - d - 1) * (hp.q0 + ds.V))
        dev = K - state.k0k
        for i in range(d):
            assert abs(dev[:, i].mean()) < 5.0 * np.sqrt(cov[i, i] / n)
            for j in range(i, d):
                x = dev[:, i] * dev[:, j]
                assert abs(x.mean() - cov[i, j]) < 5.0 * x.std() / np.sqrt(n)

    def test_lambda_draws_symmetric_positive_definite(self):
        ds, hp, state, _ = fit_small(V=50, seed=16, max_iter=40)
        lam = vb.vb_posterior_sample(RngStream(94), state, hp, ds.V, 2000)["Lambda"]
        np.testing.assert_array_equal(lam, lam.transpose(0, 2, 1))
        assert np.all(np.linalg.eigvalsh(lam)[:, 0] > 0.0)

    def test_sample_count_validated(self):
        ds, hp, state, _ = fit_small(V=20, seed=17, max_iter=5)
        with pytest.raises(ValueError):
            vb.vb_posterior_sample(RngStream(92), state, hp, ds.V, 0)


class TestSummary:
    @staticmethod
    def shape(report):
        if isinstance(report, dict):
            return {k: TestSummary.shape(v) for k, v in report.items()}
        return np.shape(report)

    def test_matches_scipy_marginals(self):
        ds, hp, state, _ = fit_small(V=300, seed=19, max_iter=200)
        got = vb.vb_summary(state, hp, ds.V)
        d, nu, qv = state.dim, hp.n0 + ds.V, hp.q0 + ds.V
        df = nu - d + 1
        scale = state.lam0l_inv / (df * qv)
        J = np.vstack([np.eye(d), -np.ones((1, d))])
        loc_w = np.append(state.k0k, 1.0 - state.k0k.sum())
        sd_w = np.sqrt(np.diag(J @ scale @ J.T))
        for j in range(d + 1):
            want = stats.t(df, loc=loc_w[j], scale=sd_w[j])
            for block, name in (("full_weights", f"w{j + 1}"), ("parameters", f"K{j + 1}")):
                if name == f"K{d + 1}":
                    continue
                entry = got[block][name]
                np.testing.assert_allclose(entry["ci95"], want.ppf([0.025, 0.975]), rtol=1e-12)
                assert entry["mean"] == pytest.approx(want.mean(), rel=1e-12)
                assert entry["mode"] == entry["mean"]
        np.testing.assert_allclose(got["full_weights"]["mode_vector"], loc_w, rtol=1e-12)
        g = stats.gamma(state.a_rho, scale=1.0 / state.b_rho)
        rho = got["parameters"]["rho"]
        np.testing.assert_allclose(rho["ci95"], g.ppf([0.025, 0.975]), rtol=1e-12)
        assert rho["mean"] == pytest.approx(g.mean(), rel=1e-12)
        assert rho["mode"] == pytest.approx((state.a_rho - 1.0) / state.b_rho, rel=1e-12)
        np.testing.assert_allclose(got["parameters"]["Lambda_mean"], nu * np.linalg.inv(state.lam0l_inv), rtol=1e-12)

    def test_agrees_with_summarize_on_draws(self):
        ds, hp, state, _ = fit_small(V=300, seed=19, max_iter=200)
        draws = vb.vb_posterior_sample(RngStream(95), state, hp, ds.V, 200_000)
        exact = vb.vb_summary(state, hp, ds.V)
        est = analysis.summarize(draws)
        assert self.shape(exact) == self.shape(est)
        for block in ("parameters", "full_weights"):
            for name, entry in exact[block].items():
                if name in ("Lambda_mean", "mode_vector"):
                    continue
                sd = (entry["ci95"][1] - entry["ci95"][0]) / 3.92
                # quantile standard errors are near 0.006 sd at n = 200k
                np.testing.assert_allclose(est[block][name]["ci95"], entry["ci95"], atol=0.03 * sd)
                assert abs(est[block][name]["mean"] - entry["mean"]) < 5.0 * sd / np.sqrt(len(draws["rho"]))
                # the KDE mode of 200k draws strays by up to about 0.1 sd
                assert abs(est[block][name]["mode"] - entry["mode"]) < 0.3 * sd
        np.testing.assert_allclose(
            est["parameters"]["Lambda_mean"], exact["parameters"]["Lambda_mean"], rtol=0.01
        )
