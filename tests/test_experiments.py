import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from mixlab import (
    MultiModalData,
    OUProcess,
    RadialProfile,
    SphericalMeasure,
    projection_quantile,
)
from mixlab.bounds import ou_tv_upper_bound
from mixlab.cli import resolve_config
from mixlab.experiments import (
    _build_process,
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
    ka, kb = k / 2.0, (d - k) / 2.0

    def cdf(q):
        if d == k:
            return gammainc(shape, a * q**p)
        log_norm = math.lgamma(ka + kb) - math.lgamma(ka) - math.lgamma(kb)

        def integrand(b):
            # Gamma CDF of the radius times the Beta(k/2, (d-k)/2) density of B
            log_pdf = log_norm + (ka - 1.0) * math.log(b) + (kb - 1.0) * math.log1p(-b)
            return gammainc(shape, a * (q / math.sqrt(b)) ** p) * math.exp(log_pdf)

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
    # d = 3 is k = d, and d = 4 leaves one coordinate out (d - k = 1)
    @pytest.mark.parametrize("d", [3, 4, 16, 300, 3000])
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.4, 1.8, 2.0])
    def test_estimator_matches_quadrature(self, p, d):
        q_exact = quantile_oracle(p, d, 1.0, 0.1)
        pi = SphericalMeasure(d, RadialProfile.power_tail(1.0, p))
        est = projection_quantile(pi, 3, 0.1)
        assert est.ball_radius == pytest.approx(q_exact, rel=1e-9)
        assert est.r == pytest.approx(math.sqrt(1.0 + q_exact**2), rel=1e-9)


class TestQuantileTableRun:
    def test_gaussian_profile_is_dimension_free(self):
        # p = 2: the k-coordinate marginal does not depend on d
        res = run_quantile_table(
            {"p_list": (2.0,), "d_list": (3, 100, 1000), "eps": 0.1, "a": 1.0, "k": 3},
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
        for row in res.rows:
            if row["rep"] is None:
                assert row["ks_stat"] <= 0.08, row["t"]

    def test_far_start_decays(self):
        res = run_ks_sweep(
            {"d": 512, "R": 255.0, "mu": 1.0, "eps": 0.1, "delta": 0.0, "reps": 5,
             "times": ()},
            18,
        )
        med = [row["ks_stat"] for row in res.rows if row["rep"] is None]
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
            assert row["tv"] == projected_tv_vs_gaussian(yt, cfg["mu"]).value

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
                        redrawn[col].append(projected_tv_vs_gaussian(yt, cfg["mu"]).value)
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

    @pytest.mark.parametrize("process, R", [("ou", 50.0), ("tempered", 1e4)])
    def test_stationary_start_memory_does_not_grow_with_dimension(self, process, R):
        # rho0 = pi draws its k coefficients through SphericalMeasure.sample_coefficients
        cfg = {"process": process, "d": 100_000, "R": R, "delta": 0.02, "eps": 0.05,
               "b_rho": 0.5, "bulk_scale": 0.0, "mode_kind": "uniform-ball", "mu": 1.0,
               "k": 3, "profile_a": 0.6, "profile_p": 1.0, "ell": 0.4, "r_k": 0.0,
               "rk_n": 1000, "n": 2000, "rho0": "pi", "times": ()}
        tracemalloc.start()
        try:
            res = run_lowerbound(cfg, 31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20
        assert len(res.rows) == 6
        assert all(-1.0 <= r["total"] <= 1.0 for r in res.rows)


def lowerbound_cfg(**extra):
    return resolve_config("lowerbound", {"d": "8", "R": "50", "delta": "0.02", "eps": "0.05",
                                         "n": "2000", **extra})


class TestLowerboundExactTerms:
    @pytest.mark.parametrize("process", ["ou", "tempered"])
    def test_pi_term_at_the_horizon_is_one_minus_half_eps(self, process):
        cfg = lowerbound_cfg(process=process, R="400", profile_a="0.6", ell="0.4")
        res = run_lowerbound(cfg, 41)
        row, = [r for r in res.rows if r["t"] == r["t_lower"]]
        assert abs(row["pi_term"] - (1.0 - cfg["eps"] / 2.0)) <= 1e-12
        assert row["pi_se"] == 0.0
        _, pi = _build_process(cfg)
        assert row["r_k"] == projection_quantile(pi, cfg["k"], cfg["eps"]).r

    def test_rk_n_is_ignored(self):
        a = run_lowerbound(lowerbound_cfg(rk_n="1000"), 43)
        b = run_lowerbound(lowerbound_cfg(rk_n="300000"), 43)
        assert a.rows == b.rows

    def test_upper_bound_reads_the_ball_mass_once(self, monkeypatch):
        cfg = lowerbound_cfg(times="0.2,0.5,1,2,4,8")
        calls = []
        original = MultiModalData.mass_within_origin_ball

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MultiModalData, "mass_within_origin_ball", counted)
        res = run_lowerbound(cfg, 47)
        assert len(calls) == 1
        spec = build_data_spec(cfg)
        uppers = [r["tv_upper"] for r in res.rows]
        # mu * t > log(2)/2 excludes t = 0.2 only
        assert uppers[0] is None and None not in uppers[1:]
        for row in res.rows[1:]:
            alone, = ou_tv_upper_bound(cfg["mu"], spec, [row["t"]], cfg["n"], (47, 5))
            assert row["tv_upper"] == alone
