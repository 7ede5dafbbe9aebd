import math

import numpy as np
import pytest
from scipy.special import gammainc, kolmogorov, ndtr, ndtri

from mixlab import (
    DomainError,
    OUProcess,
    RadialProfile,
    SphericalMeasure,
    StructuralError,
    coordinate_ks,
    empirical_tv_1d,
    ks_statistic,
    projected_tv_vs_gaussian,
)
from mixlab.rng import derive


def gaussian_projection_mass(k: int, r: float, mu: float) -> float:
    """Mass pi(1 + |G_k|^2 <= r^2) for the Gaussian noise measure N(0, I/mu).

    Under N(0, I/mu) the squared projection norm times mu is chi-square with
    k degrees of freedom, so the value is P(chi2_k <= mu (r^2 - 1)) exactly.
    The p = 2 oracle for the projection laws of the package.
    """
    if not r > 1:
        raise DomainError("level r must exceed 1")
    if not mu > 0:
        raise DomainError("mu must be positive")
    return float(gammainc(k / 2, mu * (r * r - 1.0) / 2))


class TestGaussianProjectionMass:
    def test_limits(self):
        assert gaussian_projection_mass(3, 1.0 + 1e-12, 1.0) < 1e-9
        assert gaussian_projection_mass(3, 100.0, 1.0) > 1 - 1e-12
        with pytest.raises(DomainError):
            gaussian_projection_mass(3, 1.0, 1.0)

    def test_median_by_bisection(self):
        # chi2(3) median from the CDF oracle by bisection
        lo, hi = 0.0, 20.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if gammainc(1.5, mid / 2) < 0.5:
                lo = mid
            else:
                hi = mid
        q = (lo + hi) / 2
        assert gaussian_projection_mass(3, math.sqrt(1 + q), 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_monotonicity(self):
        rs = np.linspace(1.01, 6.0, 40)
        vals = [gaussian_projection_mass(3, r, 1.0) for r in rs]
        assert np.all(np.diff(vals) > 0)
        mus = np.linspace(0.2, 5.0, 40)
        vals = [gaussian_projection_mass(3, 2.0, mu) for mu in mus]
        assert np.all(np.diff(vals) > 0)

    def test_monte_carlo_cross_check(self):
        rng_cases = [(3, 2.0, 1.0), (3, 1.5, 2.0), (4, 2.5, 0.5), (5, 2.0, 1.0),
                     (3, 3.0, 0.7), (6, 1.8, 1.5), (3, 2.2, 3.0), (4, 1.7, 1.0),
                     (5, 2.8, 0.4), (3, 1.3, 5.0)]
        n = 200_000
        for i, (k, r, mu) in enumerate(rng_cases):
            pi = SphericalMeasure(k + 3, RadialProfile.quadratic(mu / 2.0))
            x = pi.sample(n, 100 + i)
            ind = 1.0 + np.sum(x[:, :k] ** 2, axis=1) <= r * r
            p_hat = ind.mean()
            se = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / n) / n)
            assert abs(p_hat - gaussian_projection_mass(k, r, mu)) <= 3 * se


class TestKSStatistic:
    def test_exact_quantile_construction(self):
        n = 1000
        samples = ndtri((np.arange(1, n + 1) - 0.5) / n)
        res = ks_statistic(samples, ndtr)
        assert res.statistic == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_point_mass_at_median(self):
        n = 10_000
        res = ks_statistic(np.zeros(n), ndtr)
        assert res.statistic == pytest.approx(0.5, abs=1e-12)
        assert res.p_value < 1e-10

    def test_p_value_against_series_oracle(self):
        # scipy's kolmogorov SF is the converged version of the 100-term series
        rng = np.random.default_rng(0)
        for n in (100, 10_000):
            x = rng.standard_normal(n)
            res = ks_statistic(x, ndtr)
            lam = math.sqrt(n) * res.statistic
            assert res.p_value == pytest.approx(float(kolmogorov(lam)), abs=1e-8)

    @pytest.mark.parametrize("lam", [1.001e-3, 1e-2])
    def test_p_value_near_perfect_fit(self, lam):
        # samples at the quantiles (i - 1 + c)/n give D = c/n exactly, so
        # lambda = sqrt(n) D = c/sqrt(n); a fit this close has p = 1
        n = 360_000 if lam < 5e-3 else 3_600
        c = lam * math.sqrt(n)
        samples = ndtri((np.arange(1, n + 1) - 1 + c) / n)
        res = ks_statistic(samples, ndtr)
        assert math.sqrt(n) * res.statistic == pytest.approx(lam, rel=1e-6)
        assert res.p_value == pytest.approx(1.0, abs=1e-9)

    def test_null_calibration(self):
        # under the null the p-value is roughly uniform: p > 0.001 nearly always
        n, reps = 100_000, 200
        good = 0
        for seed in range(reps):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            res = ks_statistic(rng.standard_normal(n), ndtr)
            good += res.p_value > 0.001
        assert good >= 198

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5000)
        base = ks_statistic(x, ndtr)
        transformed = ks_statistic(np.exp(x), lambda y: ndtr(np.log(y)))
        assert transformed.statistic == pytest.approx(base.statistic, abs=1e-14)

    def test_errors(self):
        with pytest.raises(DomainError):
            ks_statistic([], ndtr)
        with pytest.raises(DomainError):
            ks_statistic([np.nan, 0.0], ndtr)


class TestEmpiricalTV:
    def test_identical_sequences(self):
        x = np.linspace(-3, 3, 1000)
        assert empirical_tv_1d(x, x.copy()).value == 0.0

    def test_null_bias_threshold(self):
        # calibrated once by simulation: default-bin bias at n=1e6 is ~0.009
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
        x = rng.standard_normal(1_000_000)
        assert empirical_tv_1d(x, ndtr).value <= 0.01

    def test_disjoint_supports(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20_000)
        res = empirical_tv_1d(x, lambda t: ndtr(t - 10.0), bin_range=(-5.0, 15.0))
        assert res.value >= 0.999

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(4000)
        b = rng.standard_normal(6000) + 0.3
        assert empirical_tv_1d(a, b).value == empirical_tv_1d(b, a).value

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000) + 0.2
        base = empirical_tv_1d(a, b, bins=50, bin_range=(-4.0, 4.5))
        shifted = empirical_tv_1d(a + 0.5, b + 0.5, bins=50, bin_range=(-3.5, 5.0))
        assert shifted.value == pytest.approx(base.value, abs=1e-9)

    def test_default_bins(self):
        a = np.linspace(0, 1, 400)
        b = np.linspace(0, 1, 900)
        assert empirical_tv_1d(a, b).bins == 20  # ceil(sqrt(min(400, 900)))

    def test_errors(self):
        with pytest.raises(DomainError):
            empirical_tv_1d([], ndtr)
        with pytest.raises(StructuralError):
            empirical_tv_1d([1.0, 2.0], [1.0], bins=1)
        with pytest.raises(StructuralError):
            empirical_tv_1d([1.0], [1.0], bin_range=(2.0, 1.0))

    def test_projected_tv_of_an_empty_sample_raises(self):
        # the range pass once took the minimum of an empty array and leaked numpy's ValueError
        for empty in ([], np.empty((0, 3))):
            with pytest.raises(DomainError, match="empty samples"):
                projected_tv_vs_gaussian(empty, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_raise(self, bad):
        # a NaN once read nan against a CDF, was dropped on a given range, read 0
        # against a second sample and reached projected_tv_vs_gaussian's range check
        clean = np.random.default_rng(6).standard_normal(1000)
        x = np.append(clean, bad)
        for call in (lambda: empirical_tv_1d(x, ndtr),
                     lambda: empirical_tv_1d(x, ndtr, bin_range=(-4.0, 4.0)),
                     lambda: empirical_tv_1d(x, clean),
                     lambda: empirical_tv_1d(clean, x),
                     lambda: projected_tv_vs_gaussian(x, 1.0)):
            with pytest.raises(DomainError, match="samples must be finite"):
                call()

    def test_counts_match_the_clipped_histogram(self):
        # oracle: np.histogram of the samples clipped into the range, on the same
        # edges; ties, samples on an edge, samples outside the range, both modes
        def histogram_tv(a, b, bins, bin_range):
            cdf_mode = callable(b)
            if bin_range is None:
                lo = a.min() if cdf_mode else min(a.min(), b.min())
                hi = a.max() if cdf_mode else max(a.max(), b.max())
                lo, hi = (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)
            else:
                lo, hi = bin_range
            edges = np.linspace(lo, hi, bins + 1)
            p = np.histogram(np.clip(a, lo, hi), bins=edges)[0] / a.size
            if cdf_mode:
                F = b(edges)
                q = np.diff(F)
                q[0] += F[0]
                q[-1] += 1.0 - F[-1]
            else:
                q = np.histogram(np.clip(b, lo, hi), bins=edges)[0] / b.size
            return 0.5 * float(np.abs(p - q).sum())

        rng = np.random.default_rng(7)
        for _ in range(400):
            bins = int(rng.integers(2, 40))
            # one decimal makes ties
            a = np.round(rng.standard_normal(int(rng.integers(1, 300))) * 2.0, 1)
            b = (ndtr if rng.random() < 0.5
                 else np.round(rng.standard_normal(int(rng.integers(1, 300))) + 0.3, 1))
            form = rng.integers(4)
            if form == 3:
                # a range a few float spacings wide, where inner edges round to lo
                bin_range = (1e16, 1e16 + 2.0 * float(rng.integers(1, 4)))
                a, b = a + 1e16, b if callable(b) else b + 1e16
            elif form == 0:
                bin_range = None
                if not callable(b) and rng.random() < 0.2:
                    a = np.full(a.size, 0.7)  # every sample equal: the range widens by 0.5
                    b = np.full(b.size, 0.7)
            else:
                # inside the data (samples outside it) or around it
                half = rng.uniform(0.5, 2.0) if form == 1 else rng.uniform(5.0, 9.0)
                bin_range = (-half + rng.uniform(-0.3, 0.3), half)
                edges = np.linspace(*bin_range, bins + 1)
                a = np.append(a, rng.choice(edges, 5))
                if not callable(b):
                    b = np.append(b, rng.choice(edges, 5))
            expected = histogram_tv(a, b, bins, bin_range)
            assert empirical_tv_1d(a, b, bins, bin_range).value == expected


class TestProjectedTV:
    def test_stationary_samples_are_small(self):
        mu, d, n = 2.0, 4, 1_000_000
        pi = SphericalMeasure(d, RadialProfile.quadratic(mu / 2.0))
        x = pi.sample(n, 5)
        direction = np.zeros(d)
        direction[1] = 1.0
        assert projected_tv_vs_gaussian(x @ direction, mu).value <= 0.01

    def test_far_point_mass(self):
        # point mass at distance 10 along the direction: essentially disjoint
        d, R = 3, 10.0
        direction = np.array([1.0, 0.0, 0.0])
        x = np.tile(direction * R, (20_000, 1))
        assert projected_tv_vs_gaussian(x @ direction, 1.0).value >= 0.99

    def test_direction_invariance_for_spherical_samples(self):
        pi = SphericalMeasure(6, RadialProfile.quadratic(0.5))
        x = pi.sample(100_000, 6)
        e0 = np.eye(6)[0]
        other = np.ones(6) / math.sqrt(6)
        v1 = projected_tv_vs_gaussian(x @ e0, 1.0).value
        v2 = projected_tv_vs_gaussian(x @ other, 1.0).value
        assert abs(v1 - v2) <= 0.01


class TestKSSweep:
    def test_far_start_and_mixed_end(self):
        d, R, mu = 256, 100.0, 1.0
        ou = OUProcess(mu, d)
        x0 = R * np.ones(d) / math.sqrt(d)
        out = [coordinate_ks(ou.evolve(x0, t, derive(3, 1 + i))[0], mu)
               for i, t in enumerate([0.0, 12.0])]
        assert out[0].statistic >= 0.3
        assert out[1].statistic <= 0.08

    def test_monotone_trend_small(self):
        d, R, mu = 256, 100.0, 1.0
        ou = OUProcess(mu, d)
        x0 = R * np.ones(d) / math.sqrt(d)
        times = [0.0, 2.0, 4.0, 9.0]
        firsts, lasts = [], []
        for seed in range(5):
            res = [coordinate_ks(ou.evolve(x0, t, derive(seed, 1 + i))[0], mu)
                   for i, t in enumerate(times)]
            firsts.append(res[0].statistic)
            lasts.append(res[-1].statistic)
        assert np.median(firsts) >= np.median(lasts)

    def test_standardize_flag(self):
        d = 128
        ou = OUProcess(1.0, d)
        x0 = 50.0 * np.ones(d) / math.sqrt(d)
        coords = ou.evolve(x0, 0.5, derive(4, 1))[0]
        raw = coordinate_ks(coords, 1.0)
        std = coordinate_ks(coords, 1.0, standardize=True)
        # centring removes the residual mean shift, so the statistic drops
        assert std.statistic < raw.statistic

    def test_standardize_keeps_the_bits_and_the_float_range(self):
        coords = OUProcess(1.0, 128).evolve(np.full(128, 3.0), 0.5, 6)[0]
        old = (coords - coords.mean()) / coords.std()
        assert coordinate_ks(coords, 1.0, standardize=True) == ks_statistic(old, ndtr)
        # near 1e154 the squares of the deviations pass the float range; a
        # power-of-two scale leaves every bit of the standardized sample
        far = np.ldexp(coords, 510)
        assert coordinate_ks(far, 1.0, standardize=True) == ks_statistic(old, ndtr)
        # a constant sample has sd 0, read as 1: every point sits at 0
        assert coordinate_ks(np.full(5, 1e160), 1.0, standardize=True) == \
            ks_statistic(np.zeros(5), ndtr)

    def test_draw_from_mixture_start(self):
        from mixlab import ModeSpec, MultiModalData

        d = 128
        center = np.zeros(d)
        center[0] = 51.0
        spec = MultiModalData(d, 50.0, 0.02, 0.05, modes=(ModeSpec(center, 1.0, 1.0),))
        ou = OUProcess(1.0, d)
        x0 = spec.sample(1, (5, 0))[0]
        out = [coordinate_ks(ou.evolve(x0, t, derive(5, 1 + i))[0], 1.0)
               for i, t in enumerate([0.0, 10.0])]
        assert out[0].statistic > out[1].statistic
        # deterministic in the seed
        again = [coordinate_ks(ou.evolve(x0, t, derive(5, 1 + i))[0], 1.0)
                 for i, t in enumerate([0.0, 10.0])]
        assert again[0].statistic == out[0].statistic
