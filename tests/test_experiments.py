import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc
from scipy.stats import ks_2samp, kstest

from mixlab import (
    MultiModalData,
    OUProcess,
    RadialProfile,
    SphericalMeasure,
    projection_quantile,
)
from mixlab import experiments
from mixlab.bounds import ou_tv_upper_bound
from mixlab.cli import format_number, resolve_config
from mixlab.experiments import (
    _build_process,
    build_data_spec,
    run_cutoff,
    run_ks_sweep,
    run_lowerbound,
    run_quantile_table,
    run_validate,
)
from mixlab.rng import substream
from mixlab.stats import coordinate_ks, projected_tv_vs_gaussian


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
            {"d": 512, "R": 0.0, "mu": 1.0, "eps": 0.1, "reps": 10,
             "times": (0.0, 1.0, 4.0)},
            17,
        )
        for row in res.rows:
            if row["rep"] is None:
                assert row["ks_stat"] <= 0.08, row["t"]

    @pytest.mark.parametrize("mu", [1.0, 1.1125369292536007e-308])
    def test_stationary_start_law(self, monkeypatch, mu):
        # R = 0 starts at one N(0, I/mu) draw; at t = 0 the statistics read it
        starts = []

        def record(coords, mu, standardize=False):
            if not standardize:
                starts.append(coords.copy())
            return coordinate_ks(coords, mu, standardize)

        monkeypatch.setattr(experiments, "coordinate_ks", record)
        d, reps = 16, 100
        run_ks_sweep({"d": d, "R": 0.0, "mu": mu, "eps": 0.1, "reps": reps,
                      "times": (0.0,)}, 19)
        pooled = np.concatenate(starts)
        assert pooled.size == d * reps
        assert kstest(pooled, "norm", args=(0.0, 1.0 / math.sqrt(mu))).pvalue > 1e-3
        # the start's earlier law, as SphericalMeasure draws N(0, I/mu): a radius
        # with r^2 mu/2 ~ Gamma(d/2) times a uniform direction, formed in units of
        # 1/sqrt(mu) so that it stays in the float range
        rng = substream(20)
        u = rng.standard_normal((reps, d))
        u *= (np.sqrt(2.0 * rng.gamma(d / 2.0, size=reps)) / np.linalg.norm(u, axis=1))[:, None]
        assert ks_2samp(pooled, u.ravel() / math.sqrt(mu)).pvalue > 1e-3

    def test_far_start_decays(self):
        res = run_ks_sweep(
            {"d": 512, "R": 255.0, "mu": 1.0, "eps": 0.1, "reps": 5,
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
        # every row reads the start draw on (seed, 1) and the noise draw on (seed, 2)
        cfg, seed = cutoff_cfg(2000), 31
        spec = build_data_spec(cfg)
        y0 = spec.sample_coefficients(cfg["n"], 1, (seed, 1))[:, 0]
        z = substream((seed, 2)).standard_normal(cfg["n"])
        ou = OUProcess(cfg["mu"], 1)
        res = run_cutoff(cfg, seed)
        assert len(res.rows) == 10
        assert res.rows[0]["t"] == 0.0
        for row in res.rows:
            decay, scale = ou.transition(row["t"])
            yt = scale * z + decay * y0
            assert row["tv"] == projected_tv_vs_gaussian(yt, cfg["mu"])
        assert res.rows[0]["tv"] == projected_tv_vs_gaussian(y0, cfg["mu"])

    def test_shared_noise_keeps_each_marginal(self):
        # oracle: the marginal at each grid time drawn by OUProcess.evolve from a
        # fresh start draw on (seed, 1, i) and fresh noise on (seed, 2, i); the
        # shared-noise y_t of every row has the same law
        cfg, seed = cutoff_cfg(20_000), 31
        spec = build_data_spec(cfg)
        ou = OUProcess(cfg["mu"], 1)
        n = cfg["n"]
        y0 = spec.sample_coefficients(n, 1, (seed, 1))[:, 0]
        z = substream((seed, 2)).standard_normal(n)
        times = [row["t"] for row in run_cutoff(cfg, seed).rows]
        assert len(times) == 10
        for i, t in enumerate(times):
            decay, scale = ou.transition(t)
            fresh = ou.evolve(spec.sample_coefficients(n, 1, (seed, 1, i)), t, (seed, 2, i))
            assert ks_2samp(scale * z + decay * y0, fresh[:, 0]).pvalue > 1e-3, t

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
                        y0 = spec.sample_coefficients(cfg["n"], 1, (seed, 1, i))
                        yt = ou.evolve(y0, row["t"], (seed, 2, i))
                        redrawn[col].append(projected_tv_vs_gaussian(yt, cfg["mu"]))
        for col in shared:
            a, b = np.array(shared[col]), np.array(redrawn[col])
            assert len(a) == len(b) == 20
            se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
            assert abs(a.mean() - b.mean()) <= 4.0 * se, col

    @pytest.mark.parametrize("mu, R", [(4.0, "25"), (0.25, "100"), (16.0, "12.5")])
    def test_horizons_run_on_the_ou_clock(self, mu, R):
        # the OU law at (mu, R) at time t is the law at (1, R sqrt(mu)) at time
        # mu t scaled by 1/sqrt(mu); with sqrt(mu) a power of 2 the run at
        # (mu, R) must reproduce the (1, 50) run bit for bit on that clock
        def run(mu, R):
            cfg = resolve_config("cutoff", {"d": "16", "R": R, "delta": "0.02",
                                            "eps": "0.05", "n": "5000", "mu": repr(mu)})
            return run_cutoff(cfg, 5)

        ref, res = run(1.0, "50"), run(mu, R)
        assert len(res.rows) == len(ref.rows)
        for row, base in zip(res.rows, ref.rows):
            assert row["t"] * mu == base["t"]
            assert row["t_onset"] * mu == base["t_onset"]
            assert row["t_mix_simple"] * mu == base["t_mix_simple"]
            assert row["tv"] == base["tv"]
        assert [(c.value, c.threshold) for c in res.checks] == \
            [(c.value, c.threshold) for c in ref.checks]
        assert res.passed

    def test_memory_does_not_grow_with_dimension(self):
        # one n x d start array at d = 1e5 would take n * d * 8 B = 1.6 GB
        cfg = {"d": 100_000, "R": 50.0, "delta": 0.02, "eps": 0.05, "b_rho": 0.5,
               "bulk_scale": 0.0, "mode_kind": "uniform-ball", "mu": 1.0, "n": 2000,
               "times": ()}
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
               "k": 3, "profile_a": 0.6, "profile_p": 1.0, "ell": 0.4,
               "rk_n": 1000, "n": 2000, "times": ()}
        tracemalloc.start()
        try:
            res = run_lowerbound(cfg, 29)
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
        assert row["total_se"] == 0.0
        _, pi = _build_process(cfg)
        assert row["r_k"] == projection_quantile(pi, cfg["k"], cfg["eps"]).r

    @pytest.mark.parametrize("extra, names", [
        ({}, ["lower-bound-at-horizon", "bound-ordering"]),
        ({"process": "tempered", "R": "400", "profile_a": "0.6", "ell": "0.4"},
         ["lower-bound-at-horizon", "generator-bound"]),
    ], ids=["ou", "tempered"])
    def test_run_end_checks_pass(self, extra, names):
        res = run_lowerbound(lowerbound_cfg(**extra), 45)
        assert [c.name for c in res.checks] == names
        assert res.passed
        at_low, = [r for r in res.rows if r["t"] == r["t_lower"]]
        assert res.checks[0].value == at_low["total"]
        assert res.checks[0].threshold == at_low["floor"]

    def test_level_one_fails_the_horizon_check(self, monkeypatch):
        # at the exact r_k the gate holds by construction; at r_k = 1 the pi
        # term pi(H >= 1) is 0, so the bound cannot reach the floor
        monkeypatch.setattr(experiments, "projection_quantile",
                            lambda pi, k, eps: SimpleNamespace(r=1.0))
        res = run_lowerbound(lowerbound_cfg(), 45)
        assert not res.passed
        assert [c.name for c in res.checks if not c.passed] == ["lower-bound-at-horizon"]

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
            alone, = ou_tv_upper_bound(cfg["mu"], spec, [row["t"]])
            assert row["tv_upper"] == alone


def tempered_cfg(sub, **extra):
    """The benchmark's tempered process (a = 0.6, p = 1, ell = 0.4) at d = 16, R = 400."""
    return resolve_config(sub, {"process": "tempered", "d": "16", "R": "400", "delta": "0.02",
                                "eps": "0.05", "profile_a": "0.6", "profile_p": "1",
                                "ell": "0.4", **extra})


def probe_values(res):
    return {c.name: (c.passed, c.value) for c in res.checks}


class TestValidateTailMass:
    """validate's data/tail-mass row sums the mass outside B(0, R(1+2 delta))
    from the outside: with a mode tangent to the ball it is the bulk's
    0.5 P(chi2_d > z^2), z = R(1+2 delta)/bulk_scale, in full digits."""

    @pytest.mark.parametrize("cfg, printed", [
        # the envelope-em-d16 benchmark's validate call; 1 - inside read 1.73194792e-14
        (tempered_cfg("validate"), "1.73199834e-14"),
        # 1 - inside read 0
        (resolve_config("validate", {"d": "100000", "R": "50", "delta": "0.02",
                                     "eps": "0.05"}), "6.66901798e-18"),
    ], ids=["d16", "d1e5"])
    def test_is_the_bulk_chi_square_tail(self, cfg, printed):
        row = next(r for r in run_validate(cfg, 1).rows if r["check"] == "data/tail-mass")
        spec = build_data_spec(cfg)
        z = spec.R * (1.0 + 2.0 * spec.delta) / spec.bulk_scale
        assert row["value"] == pytest.approx(0.5 * gammaincc(cfg["d"] / 2, z * z / 2),
                                             rel=1e-15, abs=0.0)
        assert format_number(row["value"]) == printed and row["passed"] == 1


class TestProcessProbeGrid:
    """validate's process probes and lowerbound's premise check read probe_grid."""

    def test_benchmark_process_passes_every_probe(self):
        checks = probe_values(run_validate(tempered_cfg("validate"), 1))
        assert all(passed for passed, _ in checks.values()), checks
        assert checks["linear-growth"][1] == pytest.approx(0.126411, rel=1e-5)
        assert checks["generator-bound"][1] == pytest.approx(-2.64999e-4, rel=1e-5)

    def test_grid_reaches_where_the_drift_turns_superlinear(self):
        # the drift points outward for |x| < 4/3 and |b|/(mu |x|) passes 1 below
        # |x| ~ 0.43; at d = 3 the grid reaches r = 0.078
        cfg = tempered_cfg("validate", d="3", R="50")
        passed, value = probe_values(run_validate(cfg, 1))["linear-growth"]
        assert not passed and value == pytest.approx(10.73, rel=1e-3)

    def test_drift_condition_is_not_the_premise(self):
        # a = 1, p = 0.5, ell = 0 fails the sufficient drift condition but meets
        # A H <= mu H, so lowerbound passes
        extra = {"R": "5000", "profile_a": "1", "profile_p": "0.5", "ell": "0"}
        checks = probe_values(run_validate(tempered_cfg("validate", **extra), 1))
        assert not checks["drift-condition"][0]
        assert checks["generator-bound"] == (True, pytest.approx(-2.3e-5, rel=0.01))
        res = run_lowerbound(tempered_cfg("lowerbound", **extra), 1)
        assert res.passed and res.checks[-1].name == "generator-bound"

    def test_lowerbound_fails_where_its_premise_does(self):
        # the bound's total at t_lower is the same for every process; the grid
        # sees the generator excess that the bound rests on
        extra = {"R": "5000", "profile_a": "1", "profile_p": "1", "ell": "1"}
        res = run_lowerbound(tempered_cfg("lowerbound", **extra), 1)
        assert [c.name for c in res.checks] == ["lower-bound-at-horizon", "generator-bound"]
        assert res.checks[0].passed and not res.passed
        assert res.checks[1].value == pytest.approx(1198.85, rel=1e-5)
        assert probe_values(run_validate(tempered_cfg("validate", **extra), 1))[
            "generator-bound"] == (False, res.checks[1].value)

    def test_validate_memory_does_not_grow_with_dimension(self):
        # the grid holds 64 x 65 values whatever d is; 1e4 points in R^d take 8 GB
        cfg = resolve_config("validate", {"d": "100000", "R": "50", "delta": "0.02",
                                          "eps": "0.05", "n_points": "100"})
        tracemalloc.start()
        try:
            res = run_validate(cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert probe_values(res)["generator-bound"][0]


# the golden cutoff and ks-sweep configs (tests/test_golden.py) on the golden seed
SCALE_RUNS = {
    "cutoff-uniform-ball": (run_cutoff, "cutoff", {"d": "8", "delta": "0.02", "eps": "0.05",
                                                   "b_rho": "0.5", "n": "5000"}),
    "cutoff-truncated-gaussian": (run_cutoff, "cutoff", {
        "d": "8", "delta": "0.02", "eps": "0.05", "b_rho": "0.5", "n": "5000",
        "mode_kind": "truncated-gaussian"}),
    "ks-sweep": (run_ks_sweep, "ks-sweep", {"d": "64", "reps": "3"}),
}


@pytest.mark.parametrize("c", [0.25, 4.0, 16.0])
@pytest.mark.parametrize("run", list(SCALE_RUNS))
def test_scale_covariance_is_byte_exact(run, c):
    # the OU state at (c mu, R/sqrt(c), t/c) is the state at (mu, R, t) over
    # sqrt(c); with c a power of 4 every factor is a power of two, so each
    # cell but a time is the same float, and each time is exactly 1/c of it
    runner, sub, raw = SCALE_RUNS[run]
    base = runner(resolve_config(sub, {**raw, "mu": "1", "R": "50"}), 1111)
    scaled = runner(resolve_config(sub, {**raw, "mu": repr(c), "R": repr(50.0 / math.sqrt(c))}),
                    1111)
    assert base.columns == scaled.columns and len(base.rows) == len(scaled.rows)
    for row, other in zip(base.rows, scaled.rows):
        for col in base.columns:
            if col in ("t", "t_onset", "t_mix_simple"):
                assert row[col] == c * other[col], (col, row, other)
            else:
                assert row[col] == other[col], (col, row, other)
