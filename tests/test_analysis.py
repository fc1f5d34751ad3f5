import numpy as np
import pytest
from scipy.stats import norm

from tissuemix import analysis


class TestKdeFit:
    def test_scott_bandwidth_formula(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10_000)
        kde = analysis.kde_fit(x)
        want = np.std(x, ddof=1) * 10_000 ** (-0.2)
        assert kde.bandwidth == pytest.approx(want, rel=1e-12)
        assert kde.bandwidth == pytest.approx(0.158, abs=0.02)

    def test_explicit_bandwidth_honored(self):
        kde = analysis.kde_fit([0.0, 1.0, 2.0], bandwidth=0.37)
        assert kde.bandwidth == 0.37

    def test_degenerate_samples_need_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            analysis.kde_fit([2.0, 2.0, 2.0])
        analysis.kde_fit([2.0, 2.0, 2.0], bandwidth=0.1)  # explicit is fine

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            analysis.kde_fit([1.0])


class TestKdeDensity:
    def test_close_to_normal_density(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100_000)
        kde = analysis.kde_fit(x)
        grid = np.linspace(-4, 4, 401)
        dens = analysis.kde_density(kde, grid)
        assert np.max(np.abs(dens - norm.pdf(grid))) < 0.01

    def test_nonnegative_and_integrates_to_one(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.standard_normal(3000), 4 + 0.5 * rng.standard_normal(2000)])
        kde = analysis.kde_fit(x)
        grid = analysis.kde_grid(kde, lo=x.min() - 5 * kde.bandwidth, hi=x.max() + 5 * kde.bandwidth, n=2048)
        assert np.all(grid.density >= 0)
        assert 0.98 <= grid.integral <= 1.02

    def test_default_grid_captures_most_mass(self):
        rng = np.random.default_rng(3)
        kde = analysis.kde_fit(rng.standard_normal(5000))
        grid = analysis.kde_grid(kde, n=512)
        assert 0.9 <= grid.integral <= 1.0


class TestKdeMode:
    def test_constant_samples_mode_is_constant(self):
        kde = analysis.kde_fit([3.25, 3.25, 3.25, 3.25], bandwidth=0.5)
        mode, multimodal = analysis.kde_mode(kde)
        assert mode == pytest.approx(3.25, abs=1e-3)
        assert not multimodal

    def test_gaussian_mode_near_mean(self):
        # oversmoothed bandwidth keeps the argmax noise below the cell size
        rng = np.random.default_rng(4)
        x = 2.0 + rng.standard_normal(100_000)
        kde = analysis.kde_fit(x, bandwidth=0.4)
        mode, _ = analysis.kde_mode(kde, n=512)
        lo = x.min() - 4 * kde.bandwidth
        hi = x.max() + 4 * kde.bandwidth
        cell = (hi - lo) / 511
        assert abs(mode - x.mean()) < 2 * cell

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(400)
        kde1 = analysis.kde_fit(x)
        kde2 = analysis.kde_fit(x[rng.permutation(400)])
        assert analysis.kde_mode(kde1)[0] == analysis.kde_mode(kde2)[0]

    def test_affine_equivariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(2000) + 0.7
        s = 3.5
        kde1 = analysis.kde_fit(x, bandwidth=0.2)
        kde2 = analysis.kde_fit(s * x, bandwidth=s * 0.2)
        m1, _ = analysis.kde_mode(kde1, n=1024)
        m2, _ = analysis.kde_mode(kde2, n=1024)
        assert m2 == pytest.approx(s * m1, abs=s * 0.01)

    def test_symmetric_bimodal_flagged_lowest_mode(self):
        x = np.array([-2.0, 2.0])
        kde = analysis.kde_fit(x, bandwidth=0.3)
        mode, multimodal = analysis.kde_mode(kde, n=1025, lo=-4.0, hi=4.0)
        assert multimodal
        assert mode < 0  # lowest-coordinate mode wins

    def test_resolution_floor(self):
        kde = analysis.kde_fit([0.0, 1.0], bandwidth=1.0)
        with pytest.raises(ValueError, match="256"):
            analysis.kde_mode(kde, n=100)


class TestClampedKernel:
    @staticmethod
    def unclamped(model, x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        z = (x[:, None] - model.samples[None, :]) / model.bandwidth
        norm = 1.0 / (len(model.samples) * model.bandwidth * np.sqrt(2.0 * np.pi))
        return norm * np.exp(-0.5 * z**2).sum(axis=1)

    def test_grid_and_mode_equal_direct_unclamped_evaluation(self, monkeypatch):
        # Outliers put many grid-sample pairs beyond |z| = 37.7, where the
        # unclamped kernel is subnormal or zero, while every grid point
        # stays within a few dozen bandwidths of a sample (a point farther
        # from every sample has a density near 1e-304 instead of 0).
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.standard_normal(3000), [-9.0, -7.5, 8.0, 10.0]])
        kde = analysis.kde_fit(x)
        want = self.unclamped(kde, np.linspace(x.min() - 4 * kde.bandwidth, x.max() + 4 * kde.bandwidth, 512))
        z = (x.max() - x[None, :]) / kde.bandwidth
        assert np.any(-0.5 * z**2 < -708.4) and want.min() > 1e-280
        got = analysis.kde_grid(kde)
        got_mode = analysis.kde_mode(kde)
        monkeypatch.setattr(analysis, "kde_density", self.unclamped)
        ref = analysis.kde_grid(kde)
        np.testing.assert_array_equal(got.density, ref.density)
        np.testing.assert_array_equal(got.density, want)
        assert got.mode == ref.mode
        assert got_mode == analysis.kde_mode(kde)

    def test_grid_mode_is_kde_mode(self):
        kde = analysis.kde_fit(np.random.default_rng(10).gamma(3.0, size=2000))
        assert analysis.kde_grid(kde, n=600).mode == analysis.kde_mode(kde, n=600)[0]


class TestSummarize:
    def test_constant_weight_samples(self):
        K = np.tile([0.1, 0.3], (200, 1))
        rho = np.full(200, 7.0)
        report = analysis.summarize({"K": K, "rho": rho})
        np.testing.assert_allclose(report["full_weights"]["mode_vector"], [0.1, 0.3, 0.6], atol=1e-12)
        assert report["parameters"]["rho"]["mode"] == 7.0

    def test_central_interval_of_standard_normal(self):
        rng = np.random.default_rng(7)
        K = rng.standard_normal((100_000, 1))
        rho = np.abs(rng.standard_normal(100_000)) + 0.5
        report = analysis.summarize({"K": K, "rho": rho})
        lo, hi = report["parameters"]["K1"]["ci95"]
        assert abs(lo + 1.96) < 0.05
        assert abs(hi - 1.96) < 0.05

    def test_minimum_samples(self):
        with pytest.raises(ValueError, match="100"):
            analysis.summarize({"K": np.zeros((50, 2)), "rho": np.ones(50)})

    def test_lambda_mean_reported(self):
        rng = np.random.default_rng(8)
        report = analysis.summarize(
            {
                "K": rng.standard_normal((300, 2)),
                "rho": np.abs(rng.standard_normal(300)) + 1.0,
                "Lambda": np.broadcast_to(np.eye(2), (300, 2, 2)).copy(),
            }
        )
        np.testing.assert_allclose(report["parameters"]["Lambda_mean"], np.eye(2))
