import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta as beta_dist
from scipy.stats import gamma as gamma_dist

from mixlab import OUProcess, RadialProfile, SphericalMeasure, projection_quantile
from mixlab.cli import resolve_config
from mixlab.experiments import (
    build_data_spec,
    run_cutoff,
    run_ks_sweep,
    run_lowerbound,
    run_quantile_table,
)
from mixlab.stats import projected_tv_vs_gaussian


def quantile_oracle(p, d, a, eps, k=3):
    """Quadrature oracle for the (1-eps/2)-quantile of |first-k-coords|.

    |G_k| = r * sqrt(B) with independent radius (Gamma in s = a r^p) and
    B ~ Beta(k/2, (d-k)/2); the mixture CDF is a one-dimensional integral.
    """
    shape = d / p
    lev = 1.0 - eps / 2.0

    def cdf(q):
        if d == k:
            return gamma_dist.cdf(a * q**p, shape)

        def integrand(b):
            return gamma_dist.cdf(a * (q / math.sqrt(b)) ** p, shape) * beta_dist.pdf(
                b, k / 2.0, (d - k) / 2.0)

        return quad(integrand, 0.0, 1.0, limit=300)[0]

    lo, hi = 0.0, 1.0
    while cdf(hi) < lev:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < lev:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQuantileOracle:
    @pytest.mark.parametrize("p,d", [(1.0, 3), (1.4, 300), (1.8, 3000)])
    def test_estimator_matches_quadrature(self, p, d):
        q_exact = quantile_oracle(p, d, 1.0, 0.1)
        pi = SphericalMeasure(d, RadialProfile.power_tail(1.0, p))
        est = projection_quantile(pi, 3, 0.1, 300_000, 99)
        assert est.ball_radius == pytest.approx(q_exact, rel=0.01)
        assert est.r == pytest.approx(math.sqrt(1.0 + q_exact**2), rel=0.01)


class TestQuantileTableRun:
    def test_gaussian_profile_is_dimension_free(self):
        # p = 2: the k-coordinate marginal does not depend on d
        res = run_quantile_table(
            {"p_list": (2.0,), "d_list": (3, 100, 1000), "eps": 0.1, "n": 100_000,
             "a": 1.0, "k": 3},
            7,
        )
        row = res.rows[0]
        vals = [row["q_d3"], row["q_d100"], row["q_d1000"]]
        assert max(vals) / min(vals) - 1.0 <= 0.02


class TestKSSweepRun:
    def test_stationary_start_is_null_at_all_times(self):
        res = run_ks_sweep(
            {"d": 512, "R": 0.0, "mu": 1.0, "eps": 0.1, "delta": 0.0, "reps": 10,
             "times": (0.0, 1.0, 4.0)},
            17,
        )
        for t, med in zip(res.info["times"], res.info["median_ks"]):
            assert med <= 0.08, t

    def test_far_start_decays(self):
        res = run_ks_sweep(
            {"d": 512, "R": 255.0, "mu": 1.0, "eps": 0.1, "delta": 0.0, "reps": 5,
             "times": ()},
            18,
        )
        med = res.info["median_ks"]
        assert med[0] >= 0.3
        assert med[-1] <= 0.05


def cutoff_cfg(n):
    return resolve_config("cutoff", {"d": "16", "R": "50", "delta": "0.02", "eps": "0.05",
                                     "n": str(n)})


class TestCutoffRun:
    def test_rows_evolve_one_start_draw(self):
        cfg, seed = cutoff_cfg(2000), 31
        spec = build_data_spec(cfg)
        y0 = spec.sample_coefficients(cfg["n"], spec.mode_direction[None, :], (seed, 1))
        ou = OUProcess(cfg["mu"], 1)
        res = run_cutoff(cfg, seed)
        assert len(res.rows) == 10
        for i, row in enumerate(res.rows):
            yt = ou.evolve(y0, row["t"], (seed, 2, i))
            assert row["tv"] == projected_tv_vs_gaussian(yt, [1.0], cfg["mu"]).value

    def test_shared_start_draw_keeps_the_mean_tv(self):
        # oracle: a fresh start draw per grid time, on (seed, 1, i); sharing one
        # draw across the rows changes no row's law, so the means agree
        cfg = cutoff_cfg(20_000)
        spec = build_data_spec(cfg)
        ou = OUProcess(cfg["mu"], 1)
        shared = {"t_onset": [], "t_mix_simple": []}
        redrawn = {"t_onset": [], "t_mix_simple": []}
        for seed in range(1001, 1021):
            for i, row in enumerate(run_cutoff(cfg, seed).rows):
                for col in shared:
                    if row["t"] == row[col]:
                        shared[col].append(row["tv"])
                        y0 = spec.sample_coefficients(cfg["n"], spec.mode_direction[None, :],
                                                      (seed, 1, i))
                        yt = ou.evolve(y0, row["t"], (seed, 2, i))
                        redrawn[col].append(projected_tv_vs_gaussian(yt, [1.0], cfg["mu"]).value)
        for col in shared:
            a, b = np.array(shared[col]), np.array(redrawn[col])
            assert len(a) == len(b) == 20
            se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
            assert abs(a.mean() - b.mean()) <= 4.0 * se, col

    def test_memory_does_not_grow_with_dimension(self):
        # one n x d start array at d = 1e5 would take n * d * 8 B = 1.6 GB
        cfg = {"d": 100_000, "R": 50.0, "delta": 0.02, "eps": 0.05, "b_rho": 0.5,
               "bulk_scale": 0.0, "mode_kind": "uniform-ball", "mu": 1.0, "n": 2000,
               "bins": 0, "times": ()}
        tracemalloc.start()
        try:
            res = run_cutoff(cfg, 23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20
        assert len(res.rows) == 10
        assert all(0.0 <= r["tv"] <= 1.0 for r in res.rows)


class TestLowerboundRun:
    @pytest.mark.parametrize("process, R", [("ou", 50.0), ("tempered", 1e4)])
    def test_memory_does_not_grow_with_dimension(self, process, R):
        # one n x d sample of rho0 or pi at d = 1e5 would take n * d * 8 B = 1.6 GB;
        # the tempered r_k at this d is about 1.6e3, so R = 1e4 keeps 2 r_k < R
        cfg = {"process": process, "d": 100_000, "R": R, "delta": 0.02, "eps": 0.05,
               "b_rho": 0.5, "bulk_scale": 0.0, "mode_kind": "truncated-gaussian", "mu": 1.0,
               "k": 3, "profile_a": 0.6, "profile_p": 1.0, "ell": 0.4, "r_k": 0.0,
               "rk_n": 1000, "n": 2000, "rho0": "data", "times": ()}
        tracemalloc.start()
        try:
            res = run_lowerbound(cfg, 29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20
        assert len(res.rows) == 6
        assert all(-1.0 <= r["total"] <= 1.0 for r in res.rows)
