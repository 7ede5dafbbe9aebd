import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from mixlab import (
    DomainError,
    IntegratorConfig,
    LinearRate,
    ModeSpec,
    MultiModalData,
    OUProcess,
    RadialProfile,
    SphericalMeasure,
    StructuralError,
    SubspaceProjector,
    TemperedLangevin,
    check_compatibility,
    check_dispersion_balance,
    check_generator_bound,
    check_growth_envelope,
    check_linear_growth,
    mixing_horizons,
    ou_tv_upper_bound,
    probe_grid,
    projection_norm_samples,
    projection_quantile,
    projection_tail,
    tv_lower_bound,
)
from mixlab import measures
from mixlab.bounds import _generator, _h_and_hg, _norm_at_level
from mixlab.measures import _checked_basis
from mixlab.rng import substream
from tests.oracles import frame
from tests.test_measures import reference_sample
from tests.test_stats import gaussian_projection_mass


def fd_generator(process, proj, x, h_rel=1e-4):
    """Centered-difference oracle for <b, grad H> + 0.5 Tr(a Hess H).

    Reads the drift b(x) in d coordinates and a = noise_scale(|x|)^2, the
    isotropic dispersion, so it shares no algebra with the radial closed form.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    h = h_rel * (1.0 + np.linalg.norm(x))
    b = np.atleast_2d(process.drift(x[None, :]))[0]
    a = float(process.noise_scale(np.array([np.linalg.norm(x)]))[0]) ** 2
    hx = float(proj.lyapunov(x[None, :])[0])
    val = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        hp = float(proj.lyapunov((x + e)[None, :])[0])
        hm = float(proj.lyapunov((x - e)[None, :])[0])
        val += b[i] * (hp - hm) / (2 * h)
        val += 0.5 * a * (hp - 2 * hx + hm) / (h * h)
    return val


def single_mode_spec(d=16, R=50.0, delta=0.02, eps=0.05, b_rho=0.5, **kw):
    center = np.zeros(d)
    center[0] = R * (1 + delta)
    return MultiModalData(d, R, delta, eps, modes=(ModeSpec(center, delta * R, b_rho),), **kw)


def ou_kl_to_stationary(mu, t, d, r0):
    """KL(N(e^{-mu t} x0, sigma_t^2 I_d) || N(0, I/mu)) for |x0| = r0, with
    mu sigma_t^2 = 1 - x and x = e^{-2 mu t}."""
    x = math.exp(-2.0 * mu * t)
    return 0.5 * d * (-x - math.log1p(-x)) + 0.5 * mu * x * r0 * r0


class TestLinearRate:
    def test_growth_time(self):
        rate = LinearRate(1.0)
        assert rate.growth_time(1.0, math.e) == pytest.approx(1.0, abs=1e-15)
        assert rate.growth_time(0.3, 0.3) == 0.0
        with pytest.raises(DomainError):
            rate.growth_time(0.0, 1.0)
        with pytest.raises(DomainError):
            rate.growth_time(2.0, 1.0)

    def test_grow(self):
        rate = LinearRate(1.0)
        assert rate.grow(0.5, math.log(2.0)) == pytest.approx(1.0, abs=1e-15)
        assert rate.grow(0.37, 0.0) == 0.37
        with pytest.raises(DomainError):
            rate.grow(-1.0, 1.0)

    def test_threshold(self):
        rate = LinearRate(1.0)
        assert rate.threshold_level(2.0, math.log(2.0)) == pytest.approx(0.25, abs=1e-15)
        assert rate.threshold_level(1.0, 0.0) == 1.0
        # at the lower-bound horizon the level is exactly 2/R
        mu, R, r_k = 0.7, 120.0, 4.2
        t_low = math.log(R / (2 * r_k)) / mu
        assert LinearRate(mu).threshold_level(r_k, t_low) == pytest.approx(2.0 / R, rel=1e-12)
        with pytest.raises(DomainError):
            rate.threshold_level(0.5, 1.0)

    def test_round_trip(self):
        rate = LinearRate(1.7)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = float(rng.uniform(1e-4, 1.0))
            y = float(rng.uniform(0.0, 5.0))
            assert abs(rate.growth_time(u, rate.grow(u, y)) - y) <= 1e-12

    def test_inverse_pair(self):
        rate = LinearRate(0.9)
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = float(rng.uniform(1.0, 50.0))
            t = float(rng.uniform(0.0, 6.0))
            c = rate.threshold_level(r, t)
            assert rate.grow(c, t) * r == pytest.approx(1.0, rel=1e-10)

    def test_monotonicity(self):
        rate = LinearRate(1.0)
        us = np.linspace(0.01, 1.0, 30)
        assert np.all(np.diff(rate.grow(us, 1.0)) > 0)
        ys = np.linspace(0.0, 4.0, 30)
        vals = [rate.grow(0.5, y) for y in ys]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_rate_must_be_positive(self, mu):
        with pytest.raises(StructuralError, match="mu must be positive"):
            LinearRate(mu)

    def test_vector_grow(self):
        rate = LinearRate(0.8)
        us = np.array([0.25, 1.0, 2.25])
        out = rate.grow(us, 1.5)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, us * math.exp(1.2), rtol=1e-15)
        assert type(rate.grow(0.25, 1.5)) is float
        with pytest.raises(DomainError):
            rate.grow(np.array([0.5, 0.0]), 1.0)

    def test_negative_time_raises(self):
        rate = LinearRate(1.0)
        with pytest.raises(DomainError, match="time must be nonnegative"):
            rate.grow(0.5, -1e-3)
        with pytest.raises(DomainError, match="time must be nonnegative"):
            rate.threshold_level(2.0, -1e-3)

    def test_growth_time_to_infinity(self):
        assert LinearRate(2.0).growth_time(0.5, math.inf) == math.inf

    def test_threshold_is_the_start_that_reaches_one_over_r(self):
        # growth_time(C, 1/r) = t names the threshold level without its formula
        rate = LinearRate(1.3)
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = float(rng.uniform(1.0, 50.0))
            t = float(rng.uniform(0.0, 6.0))
            assert abs(rate.growth_time(rate.threshold_level(r, t), 1.0 / r) - t) <= 1e-12


class TestSubspaceProjector:
    def test_orthonormality_enforced(self):
        with pytest.raises(StructuralError):
            SubspaceProjector(np.eye(4)[:3] * 1.001)
        with pytest.raises(StructuralError):
            SubspaceProjector(np.eye(4)[:2])  # k < 3
        with pytest.raises(StructuralError):
            SubspaceProjector(np.ones((4, 3)))  # k > d

    @pytest.mark.parametrize("basis", [
        np.eye(4)[:2], np.ones((4, 3)), np.eye(4)[:3] * 1.001, np.ones(4),
    ], ids=["k<3", "k>d", "not-orthonormal", "not-2d"])
    def test_basis_errors_come_from_checked_basis(self, basis):
        with pytest.raises(StructuralError) as want:
            _checked_basis(basis, None, least=3)
        with pytest.raises(StructuralError) as got:
            SubspaceProjector(basis)
        assert str(got.value) == str(want.value)

    def test_lyapunov_values(self):
        proj = SubspaceProjector(np.eye(5)[:3])
        assert proj.lyapunov(np.zeros((1, 5)))[0] == 1.0
        x = np.zeros((1, 5))
        x[0, 0] = 2.0
        assert proj.lyapunov(x)[0] == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-14)
        x[0, 4] = 100.0  # orthogonal to the span: no effect
        assert proj.lyapunov(x)[0] == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-14)

    def test_frame_matches_radius_and_projection_norm(self):
        proj = SubspaceProjector.containing_direction(np.ones(6), 3)
        x = 3.0 * np.random.default_rng(4).standard_normal((50, 6))
        r, g = frame(proj, x)
        np.testing.assert_allclose(r, np.linalg.norm(x, axis=1), rtol=1e-15)
        np.testing.assert_allclose(g, np.linalg.norm(proj.coeffs(x), axis=1), rtol=1e-14)
        h, hg = _h_and_hg(g)
        # the probes and the envelope check read one H
        assert np.array_equal(h, proj.lyapunov(x))
        np.testing.assert_allclose(h, 1.0 / np.sqrt(1.0 + g * g), rtol=1e-14)
        np.testing.assert_allclose(hg, h * g, rtol=1e-15)

    def test_containing_direction(self):
        rng = np.random.default_rng(3)
        for d, k in [(5, 3), (16, 3), (8, 5)]:
            y1 = rng.standard_normal(d)
            proj = SubspaceProjector.containing_direction(y1, k)
            assert proj.basis.shape == (k, d)
            np.testing.assert_allclose(proj.basis[0], y1 / np.linalg.norm(y1), atol=1e-12)
            np.testing.assert_allclose(proj.basis @ proj.basis.T, np.eye(k), atol=1e-12)
        # standard basis direction works too
        proj = SubspaceProjector.containing_direction(np.eye(6)[2], 3)
        np.testing.assert_allclose(proj.basis[0], np.eye(6)[2], atol=1e-14)

    def test_deterministic(self):
        y1 = np.arange(1.0, 8.0)
        a = SubspaceProjector.containing_direction(y1, 4)
        b = SubspaceProjector.containing_direction(y1, 4)
        assert np.array_equal(a.basis, b.basis)


class TestGenerator:
    def test_orthogonal_point_value(self):
        # G = 0 there, so only the Hessian trace survives: -(1/2) sum <a y_j, y_j>
        ou = OUProcess(1.0, 5)
        proj = SubspaceProjector(np.eye(5)[:3])
        x = np.zeros(5)
        x[4] = 9.0
        ah = _generator(ou, proj.k, *frame(proj, np.stack([x, np.zeros(5)])))[1]
        np.testing.assert_allclose(ah, -3.0, rtol=1e-12)

    def test_ou_closed_form(self):
        # for OU: mu H^3 |G|^2 + H^3 (3 H^2 |G|^2 - k)
        mu, d, k = 1.3, 7, 3
        ou = OUProcess(mu, d)
        proj = SubspaceProjector.containing_direction(np.ones(d), k)
        rng = np.random.default_rng(4)
        x = 5.0 * rng.standard_normal((50, d))
        c = proj.coeffs(x)
        gsq = (c * c).sum(axis=1)
        h = 1.0 / np.sqrt(1.0 + gsq)
        expected = mu * h**3 * gsq + h**3 * (3 * h * h * gsq - k)
        np.testing.assert_allclose(_generator(ou, k, *frame(proj, x))[1], expected, rtol=1e-12)

    def test_far_point_stays_finite(self):
        # |x|^2 and |G|^2 pass the float range; the frame reads H = 2e-201 and
        # H|G| -> 1, so A H = mu H (H|G|)^2 + H^3 (3 (H|G|)^2 - k) is mu H
        ou = OUProcess(1.3, 4)
        proj = SubspaceProjector(np.eye(4)[:3])
        value = _generator(ou, proj.k, *frame(proj, np.array([3e200, -4e200, 0.0, 1.0])))[1][0]
        assert math.isfinite(value)
        assert value == pytest.approx(1.3 * 2e-201, rel=1e-14)

    def test_finite_difference_match(self):
        d = 8
        proj = SubspaceProjector.containing_direction(np.ones(d), 3)
        processes = [
            OUProcess(1.0, d),
            TemperedLangevin(RadialProfile.power_tail(0.6, 1.0), 0.4, d),
        ]
        rng = np.random.default_rng(5)
        for proc in processes:
            for _ in range(20):
                x = 20.0 * rng.standard_normal(d)
                a = _generator(proc, proj.k, *frame(proj, x))[1][0]
                f = fd_generator(proc, proj, x)
                assert abs(a - f) <= 1e-4 * max(abs(a), 1e-12)

    def test_generator_bound_pass_and_fail(self):
        d, k = 16, 3
        grid = probe_grid(50.0, d, k)
        assert check_generator_bound(OUProcess(1.0, d), k, 1.0, *grid).passed
        tl = TemperedLangevin(RadialProfile.power_tail(0.6, 1.0), 0.4, d)
        assert check_generator_bound(tl, k, 1.0, *grid).passed

        class DoubledOU:
            """OU's noise with twice its inward pull, c = -2 mu."""

            def __init__(self, mu):
                self.mu = mu

            def drift_coefficient(self, r):
                return np.full(np.shape(r), -2.0 * self.mu)

            def noise_scale(self, r):
                return np.full(np.shape(r), math.sqrt(2.0))

        rep = check_generator_bound(DoubledOU(1.0), k, 1.0, *grid)
        assert not rep.passed
        assert rep.value > 0


@pytest.mark.parametrize("probe", ["linear-growth", "dispersion-balance", "generator-bound"])
@pytest.mark.parametrize("process", ["ou", "tempered"])
def test_probe_peak_allocation_stays_below_its_batch(probe, process):
    # a radial process is read through |x| and the k coefficients of G, so
    # reading a point batch into the frame and probing it builds no (n, d) array
    d = 64
    proc = (OUProcess(1.0, d) if process == "ou"
            else TemperedLangevin(RadialProfile.power_tail(0.6, 1.0), 0.4, d))
    proj = SubspaceProjector.containing_direction(np.eye(d)[0], 3)
    x = 400.0 * substream(3).standard_normal((2000, d))
    run = {
        "linear-growth": lambda: check_linear_growth(proc, 1.0, frame(proj, x)[0]),
        "dispersion-balance": lambda: check_dispersion_balance(proc, 3, *frame(proj, x)),
        "generator-bound": lambda: check_generator_bound(proc, 3, 1.0, *frame(proj, x)),
    }[probe]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * x.nbytes


# tempered processes (profile_a, profile_p, ell) probed at d = 16, R = 5000: the
# first three break A H <= mu H, the last only the sufficient drift condition
PREMISE_CASES = [(1.0, 1.0, 1.0), (1.0, 2.0, 0.5), (0.25, 1.5, 0.25), (1.0, 0.5, 0.0)]


class TestProbeGrid:
    def test_radii_span_the_scaled_chi_quantiles(self):
        from scipy.stats import chi

        for d, k in [(3, 3), (16, 3), (1024, 5), (100_000, 3)]:
            r, g = probe_grid(7.0, d, k)
            assert r.shape == (64, 1)
            np.testing.assert_allclose(r[[0, -1], 0] / 7.0,
                                       [chi.ppf(1e-9, d), chi.isf(1e-9, d)], rtol=1e-9)
            np.testing.assert_allclose(np.diff(np.log(r[:, 0])), math.log(r[1, 0] / r[0, 0]),
                                       rtol=1e-9)
            if k == d:
                assert g.shape == (64, 1) and np.array_equal(g, r)
            else:
                assert g.shape == (64, 65)
                t = g[0] / r[0, 0]
                assert t[0] == 0.0 and t[-1] == 1.0
                np.testing.assert_allclose(t[1:], np.geomspace(1e-9, 1.0, 64), rtol=1e-14)
                assert np.all(g <= r)

    def test_rows_must_fit_the_dimension(self):
        for k in (2, 9):
            with pytest.raises(StructuralError):
                probe_grid(1.0, 8, k)

    @pytest.mark.parametrize("a, p, ell", PREMISE_CASES)
    def test_grid_maximum_matches_a_dense_search(self, a, p, ell):
        # 2000 radii by 2001 ratios over the same region, searched in blocks of
        # 100 radii so no block holds more than 1.6 MB
        d, k, scale = 16, 3, 5000.0
        tl = TemperedLangevin(RadialProfile.power_tail(a, p), ell, d)
        r, _ = probe_grid(scale, d, k)
        radii = np.geomspace(r[0, 0], r[-1, 0], 2000)[:, None]
        t = np.concatenate(([0.0], np.geomspace(1e-9, 1.0, 2000)))
        dense = max(check_generator_bound(tl, k, 1.0, rb, rb * t).value
                    for rb in np.split(radii, 20))
        value = check_generator_bound(tl, k, 1.0, *probe_grid(scale, d, k)).value
        assert abs(value - dense) <= 0.03 * abs(dense), (value, dense)


def oracle_lower_bound(pi, rho0, proj, rate, r, t, n, seed):
    """The n x d evaluation: draw d-dimensional points of pi and of the data
    mixture rho0 for this time alone and read H through the projector;
    returns (total, the pi term's standard error, the sample sd of the
    start-law loss)."""
    if pi.profile.p == 2:
        pi_term = gaussian_projection_mass(proj.k, r, 2.0 * pi.profile.a)
        pi_se = 0.0
    else:
        ind = (proj.lyapunov(pi.sample(n, (seed, 0))) >= 1.0 / r).astype(float)
        pi_term, pi_se = float(ind.mean()), float(ind.std() / math.sqrt(n))
    hvals = proj.lyapunov(reference_sample(rho0, n, (seed, 1)))
    tail = hvals >= rate.threshold_level(r, t)
    integ = np.zeros(n)
    if (~tail).any():
        integ[~tail] = r * rate.grow(hvals[~tail], t)
    loss = np.where(tail, 1.0, integ)
    total = pi_term - float(tail.mean()) - float(integ.mean())
    return total, pi_se, float(loss.std())


def spread(sample_sd, exact_mean):
    """The sd to gate an n-draw mean of values in [0, 1] with: the sample's,
    or, where the sample shows none (an event rarer than 1/n drew nothing),
    the Bhatia-Davis bound sqrt(m (1 - m)) at the exact mean m."""
    if sample_sd > 0.0:
        return sample_sd
    return math.sqrt(max(exact_mean * (1.0 - exact_mean), 0.0))


def tanh_sinh(step):
    """The tanh-sinh rule of measures._TS_NODES and _TS_WEIGHTS at another step."""
    t = np.arange(-round(3.0 / step), round(3.0 / step) + 1) * step
    weights = np.cosh(t) / np.cosh(0.5 * math.pi * np.sinh(t)) ** 2
    return 1.0 / (1.0 + np.exp(-math.pi * np.sinh(t))), weights / weights.sum()


def bound_case(d, k, mode_kind, noise):
    """(pi, rho0, projector, level r, times) for one exact-vs-oracle case.

    The times run from 0 past t_lower and include the two at which the
    threshold radius q0 meets the mode centre a and a + rho/2, so the
    mode's length rule is split inside its support."""
    R = (50.0 if noise == "ou" else 400.0) * (100 if d > 1000 else 1)
    spec = single_mode_spec(d=d, R=R, mode_kind=mode_kind)
    if noise == "ou":
        pi = OUProcess(1.0, d).invariant_measure()
    else:
        pi = SphericalMeasure(d, RadialProfile.power_tail(0.6, 1.0))
    r = projection_quantile(pi, k, 0.05).r
    proj = SubspaceProjector.containing_direction(spec.mode_direction, k)
    mode = spec.designated_mode
    t_low = math.log(R / (2 * r))
    meets = [math.log(math.hypot(1.0, q) / r) for q in (mode.distance,
                                                       mode.distance + mode.radius / 2)]
    times = sorted(t for t in [0.0, 0.5 * t_low, t_low, *meets, 1.25 * t_low] if t >= 0)
    return pi, spec, proj, r, times


BOUND_CASES = [(d, k, kind, noise)
               for d, k in ((3, 3), (16, 3), (16, 16), (100_000, 3))
               for kind, noise in (("uniform-ball", "ou"), ("truncated-gaussian", "tempered"))]
CASE_IDS = ["-".join(map(str, case)) for case in BOUND_CASES]
# the stationary law pi at the data cases' (d, k) and noise, and at d = 4,
# k = 3, which puts the Beta(3/2, 1/2) density's pole at B = 1
STATIONARY_CASES = [(d, k, noise)
                    for d, k in ((3, 3), (4, 3), (16, 3), (16, 16), (100_000, 3))
                    for noise in ("ou", "tempered")]
STATIONARY_IDS = ["-".join(map(str, case)) for case in STATIONARY_CASES]


def stationary_radii(d, k, noise):
    """(pi, k, q_r, the radii q0 the bound reads at bound_case's times, which
    start at 0), as tv_lower_bound forms them from the rate."""
    pi, _, _, r, times = bound_case(d, k, "uniform-ball", noise)
    rate = LinearRate(1.0)
    radii = [_norm_at_level(r / rate.threshold_level(1.0, t)) for t in times]
    return pi, k, _norm_at_level(r), radii


class TestTVLowerBound:
    def setup_method(self):
        self.spec = single_mode_spec()
        self.mu = 1.0
        self.pi = OUProcess(self.mu, self.spec.d).invariant_measure()
        self.proj = SubspaceProjector.containing_direction(self.spec.mode_direction, 3)
        self.rate = LinearRate(self.mu)
        self.r_k = 3.217

    def test_identity_exact(self):
        rep, = tv_lower_bound(self.pi, self.spec, self.proj, self.rate, self.r_k, [1.5])
        assert rep.total == rep.pi_term - rep.rho_tail - rep.integral
        assert 0.0 <= rep.pi_term <= 1.0
        assert 0.0 <= rep.rho_tail <= 1.0
        assert rep.integral >= 0.0

    def test_large_horizon_degenerates(self):
        # at t = 700 the radius q0 ~ 1e304 squares past the float range
        for t in (4.5, 50.0, 700.0, 800.0):
            rep, = tv_lower_bound(self.pi, self.spec, self.proj, self.rate, self.r_k, [t])
            assert rep.rho_tail == 1.0
            assert rep.total <= 0.0

    def test_reports_follow_the_times_and_read_the_rate(self):
        times = [2.0, 0.0, 1.0, 0.5]
        reps = tv_lower_bound(self.pi, self.spec, self.proj, self.rate, self.r_k, times)
        assert [rep.t for rep in reps] == times
        for rep in reps:
            assert rep.threshold == self.rate.threshold_level(self.r_k, rep.t)
            alone, = tv_lower_bound(self.pi, self.spec, self.proj, self.rate, self.r_k, [rep.t])
            assert alone == rep

    def test_no_times_no_reports(self):
        assert tv_lower_bound(self.pi, self.spec, self.proj, self.rate, self.r_k, []) == []

    def test_far_mode_configuration(self):
        t_low = math.log(self.spec.R / (2 * self.r_k)) / self.mu
        rep, = tv_lower_bound(self.pi, self.spec, self.proj, self.rate, self.r_k, [t_low])
        assert rep.total >= (0.5 - 0.05) / 2.0

    def test_exact_pi_term(self):
        # the pi term is 1 - projection_tail at sqrt(r^2 - 1), for Gaussian and
        # non-Gaussian noise alike
        tl_pi = SphericalMeasure(self.spec.d, RadialProfile.power_tail(1.0, 1.0))
        rep, = tv_lower_bound(tl_pi, self.spec, self.proj, self.rate, 10.0, [0.5])
        assert rep.pi_term == 1.0 - projection_tail(tl_pi, 3, math.sqrt(99.0))
        assert rep.total == rep.pi_term - rep.rho_tail - rep.integral
        rep, = tv_lower_bound(self.pi, self.spec, self.proj, self.rate, self.r_k, [0.5])
        oracle = gaussian_projection_mass(3, self.r_k, 2.0 * self.pi.profile.a)
        assert rep.pi_term == pytest.approx(oracle, abs=1e-14)

    def test_level_below_one(self):
        with pytest.raises(DomainError):
            tv_lower_bound(self.pi, self.spec, self.proj, self.rate, 0.5, [1.0])

    def test_report_reads_its_own_time_alone(self):
        # a report does not depend on which other times are asked for, and the
        # pi term is common to all
        times = [0.5, 1.5, 2.5]
        tl_pi = SphericalMeasure(self.spec.d, RadialProfile.power_tail(1.0, 1.0))
        reps = tv_lower_bound(tl_pi, self.spec, self.proj, self.rate, 10.0, times)
        assert [rep.t for rep in reps] == times
        assert len({rep.pi_term for rep in reps}) == 1
        alone, = tv_lower_bound(tl_pi, self.spec, self.proj, self.rate, 10.0, [1.5])
        assert alone == reps[1]

    @pytest.mark.parametrize("noise", ["ou", "tempered"])
    def test_agrees_with_full_dimensional_oracle(self, noise):
        d, n = 16, 20_000
        if noise == "ou":
            spec, pi, r = self.spec, self.pi, self.r_k
        else:
            spec = single_mode_spec(d=d, R=400.0, mode_kind="truncated-gaussian")
            pi = SphericalMeasure(d, RadialProfile.power_tail(0.6, 1.0))
            r = projection_quantile(pi, 3, 0.05).r
        proj = SubspaceProjector.containing_direction(spec.mode_direction, 3)
        t_low = math.log(spec.R / (2 * r)) / self.mu
        times = [0.0, 0.5 * t_low, t_low]
        reps = tv_lower_bound(pi, spec, proj, self.rate, r, times)
        for i, (t, rep) in enumerate(zip(times, reps)):
            total, pi_se, loss_sd = oracle_lower_bound(pi, spec, proj, self.rate, r, t, n, 8 + i)
            # the Gaussian pi terms, quadrature and closed form, agree to 1e-14
            sd = spread(loss_sd, rep.rho_tail + rep.integral)
            slack = 4 * math.hypot(pi_se, sd / math.sqrt(n)) + 1e-14
            assert abs(rep.total - total) <= slack, (t, rep, total)

    @pytest.mark.parametrize("case", BOUND_CASES, ids=CASE_IDS)
    def test_start_terms_agree_with_monte_carlo(self, case):
        # the oracle draws n coefficients of rho0 on the projector's rows and
        # reads every term from them, as the start-law terms once were computed
        pi, rho0, proj, r, times = bound_case(*case)
        n = 1_000_000
        h = _h_and_hg(np.hypot.reduce(rho0.sample_coefficients(n, proj.basis, 17), axis=1))[0]
        for rep in tv_lower_bound(pi, rho0, proj, self.rate, r, times):
            tail = h >= rep.threshold
            integ = np.where(tail, 0.0, r * self.rate.grow(h, rep.t))
            for sample, exact in ((tail, rep.rho_tail), (integ, rep.integral),
                                  (np.where(tail, 1.0, integ), rep.rho_tail + rep.integral)):
                # both start terms average values in [0, 1]
                slack = 4 * spread(sample.std(), exact) / math.sqrt(n)
                assert abs(sample.mean() - exact) <= slack, (rep, sample.mean())

    @pytest.mark.parametrize("case", BOUND_CASES, ids=CASE_IDS)
    def test_terms_agree_with_a_refined_rule(self, case, monkeypatch):
        # double the nodes and halve the step of every rule the terms read
        pi, rho0, proj, r, times = bound_case(*case)
        reps = tv_lower_bound(pi, rho0, proj, self.rate, r, times)
        nodes, weights = tanh_sinh(1.0 / 32.0)
        monkeypatch.setattr(measures, "_TS_NODES", nodes)
        monkeypatch.setattr(measures, "_TS_WEIGHTS", weights)
        for rep, fine in zip(reps, tv_lower_bound(pi, rho0, proj, self.rate, r, times)):
            for term in ("pi_term", "rho_tail", "integral", "total"):
                assert abs(getattr(rep, term) - getattr(fine, term)) <= 1e-9, (term, rep, fine)

    @pytest.mark.parametrize("case", STATIONARY_CASES, ids=STATIONARY_IDS)
    def test_stationary_start_is_null_through_the_tails(self, case):
        # from rho0 = pi the terms read pi(|G| <= q_r) - pi(|G| <= q0) minus an
        # integral >= 0; q0 >= q_r and pi's tail past q0 at most its tail past
        # q_r make that <= 0, with both equal at t = 0
        pi, k, q_r, radii = stationary_radii(*case)
        tails = [projection_tail(pi, k, q) for q in radii]
        assert radii[0] == q_r
        assert all(a <= b for a, b in zip(radii, radii[1:]))
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @pytest.mark.parametrize("case", STATIONARY_CASES, ids=STATIONARY_IDS)
    def test_stationary_tails_agree_with_monte_carlo(self, case):
        # exact draws of |G| under pi against projection_tail in the body at
        # q_r / 2, at q_r and at every q0; at k = d the tail is the radial one
        pi, k, q_r, radii = stationary_radii(*case)
        n = 400_000
        norms = projection_norm_samples(pi, k, n, 17)
        for q in (q_r / 2, q_r, *radii):
            exact = projection_tail(pi, k, q)
            past = norms > q
            slack = 4 * spread(past.std(), exact) / math.sqrt(n)
            assert abs(past.mean() - exact) <= slack, (q, past.mean(), exact)

    @pytest.mark.parametrize("case", STATIONARY_CASES, ids=STATIONARY_IDS)
    def test_stationary_tails_agree_with_a_refined_rule(self, case, monkeypatch):
        # double the nodes and halve the step of the rule projection_tail reads
        pi, k, q_r, radii = stationary_radii(*case)
        radii = [q_r, *radii]
        tails = [projection_tail(pi, k, q) for q in radii]
        nodes, weights = tanh_sinh(1.0 / 32.0)
        monkeypatch.setattr(measures, "_TS_NODES", nodes)
        monkeypatch.setattr(measures, "_TS_WEIGHTS", weights)
        for q, tail in zip(radii, tails):
            assert abs(projection_tail(pi, k, q) - tail) <= 1e-9, (q, tail)

    def test_refined_rule_helper_rebuilds_the_rule(self):
        nodes, weights = tanh_sinh(1.0 / 16.0)
        assert np.array_equal(nodes, measures._TS_NODES)
        assert np.allclose(weights, measures._TS_WEIGHTS, rtol=1e-15, atol=0)

    def test_point_masses(self):
        # a mode of radius 0 and a bulk of scale 0 put |G| at the mode distance and at 0
        d = 16
        center = np.zeros(d)
        center[0] = 51.0
        spec = MultiModalData(d, 50.0, 0.02, 0.05, (ModeSpec(center, 0.0, 0.5),),
                              bulk_scale=0.0)
        t = math.log(math.hypot(1.0, 40.0) / self.r_k)  # q0 = 40 < 51
        rep, = tv_lower_bound(self.pi, spec, self.proj, self.rate, self.r_k, [t])
        assert rep.rho_tail == 0.5
        assert rep.integral == pytest.approx(0.5 * math.hypot(1.0, 40.0) / math.hypot(1.0, 51.0),
                                             rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            tv_lower_bound(SphericalMeasure(4, RadialProfile.quadratic(0.5)), self.spec,
                           self.proj, self.rate, 2.0, [1.0])
        with pytest.raises(StructuralError):
            tv_lower_bound(self.pi, SphericalMeasure(4, RadialProfile.quadratic(0.5)),
                           self.proj, self.rate, 2.0, [1.0])


class TestGrowthEnvelope:
    def test_zero_time_equality(self):
        d = 8
        ou = OUProcess(1.0, d)
        proj = SubspaceProjector.containing_direction(np.ones(d), 3)
        x = np.full(d, 3.0)
        rep = check_growth_envelope(ou, proj, LinearRate(1.0), x, 0.0, 1000, 0)
        assert rep.estimate == pytest.approx(rep.start_value, rel=1e-14)
        assert rep.bound == rep.start_value
        assert rep.passed

    def test_ou_far_start(self):
        d, R = 8, 100.0
        ou = OUProcess(1.0, d)
        proj = SubspaceProjector.containing_direction(np.eye(d)[0], 3)
        x = np.zeros(d)
        x[0] = R
        rep = check_growth_envelope(ou, proj, LinearRate(1.0), x, 1.0, 100_000, 1)
        assert rep.bound == pytest.approx(math.e * rep.start_value, rel=1e-12)
        assert rep.passed

    def test_ou_start_past_the_square_range(self):
        # |x0|^2 passes the float range; the start level H(x0) = 2e-201 stays positive
        ou = OUProcess(1.0, 4)
        proj = SubspaceProjector(np.eye(4)[:3])
        x = np.array([3e200, -4e200, 0.0, 1.0])
        rep = check_growth_envelope(ou, proj, LinearRate(1.0), x, 0.5, 1000, 3)
        assert rep.start_value == pytest.approx(2e-201, rel=1e-14)
        assert rep.bound == pytest.approx(math.exp(0.5) * 2e-201, rel=1e-12)
        assert rep.passed

    def test_tempered_with_integrator(self):
        d = 6
        tl = TemperedLangevin(RadialProfile.power_tail(0.6, 1.0), 0.4, d)
        proj = SubspaceProjector.containing_direction(np.eye(d)[0], 3)
        x = np.zeros(d)
        x[0] = 40.0
        rep = check_growth_envelope(tl, proj, LinearRate(1.0), x, 0.5, 50_000, 2,
                                    cfg=IntegratorConfig(0.005))
        assert rep.passed

    def test_tempered_report_repeats_for_a_seed(self):
        d = 16
        tl = TemperedLangevin(RadialProfile.power_tail(0.6, 1.0), 0.4, d)
        proj = SubspaceProjector.containing_direction(np.eye(d)[0], 3)
        x = np.zeros(d)
        x[0] = 5.0
        first, second = (check_growth_envelope(tl, proj, LinearRate(1.0), x, 0.5, 2000, (7, 1, 3),
                                               cfg=IntegratorConfig(0.01)) for _ in range(2))
        assert first == second


class TestOUKL:
    def test_matches_the_general_gaussian_formula(self):
        # KL(N(m1, S1) || N(m2, S2)) from traces, a solve and log-determinants
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            mu = float(rng.uniform(0.2, 5.0))
            t = float(rng.uniform(0.01, 2.0))
            x0 = float(rng.uniform(0.0, 10.0)) * rng.standard_normal(d)
            m1 = math.exp(-mu * t) * x0
            s1 = -math.expm1(-2.0 * mu * t) / mu * np.eye(d)
            s2 = np.eye(d) / mu
            general = 0.5 * (np.trace(np.linalg.solve(s2, s1)) + m1 @ np.linalg.solve(s2, m1)
                             - d + np.linalg.slogdet(s2)[1] - np.linalg.slogdet(s1)[1])
            closed = ou_kl_to_stationary(mu, t, d, float(np.linalg.norm(x0)))
            assert closed == pytest.approx(general, rel=1e-9, abs=1e-12)

    def test_decreases_to_zero(self):
        times = np.linspace(0.05, 20.0, 200)
        kls = [ou_kl_to_stationary(1.5, t, 16, 50.0) for t in times]
        assert np.all(np.diff(kls) < 0)
        assert kls[-1] <= 1e-20
        assert min(kls) >= 0.0


class TestOUUpperBound:
    def test_precondition(self):
        spec = single_mode_spec()
        with pytest.raises(DomainError):
            ou_tv_upper_bound(1.0, spec, [5.0, 0.3])

    def test_precondition_is_strict(self):
        spec = single_mode_spec()
        edge = math.log(2.0) / 2.0
        with pytest.raises(DomainError, match=r"mu\*t > log\(2\)/2"):
            ou_tv_upper_bound(1.0, spec, [edge])
        assert ou_tv_upper_bound(1.0, spec, [math.nextafter(edge, 1.0)]) == [1.0]

    def test_does_not_increase_with_time(self):
        spec = single_mode_spec()
        bounds = ou_tv_upper_bound(2.0, spec, np.linspace(0.2, 10.0, 60))
        assert np.all(np.diff(bounds) <= 0.0)
        assert bounds[0] == 1.0 and bounds[-1] < 1e-7

    def test_outside_mass_is_a_floor(self):
        # a wide bulk leaves a visible mass outside the ball, which the bound
        # carries whole at every time and is left with in the long run
        spec = single_mode_spec(bulk_scale=25.0)
        ball = spec.R * (1.0 + 2.0 * spec.delta)
        outside = spec._mass_outside_origin_ball(ball)
        assert 0.1 < outside < 0.5
        times = [0.5, 1.0, 2.0, 4.0, 8.0, 50.0]
        bounds = ou_tv_upper_bound(1.0, spec, times)
        assert all(b >= outside for b in bounds)
        assert bounds[-1] == pytest.approx(outside, abs=1e-15)

    def test_reports_follow_the_times(self):
        spec = single_mode_spec()
        times = [6.0, 1.0, 3.0, 4.5]
        bounds = ou_tv_upper_bound(1.0, spec, times)
        assert bounds == [ou_tv_upper_bound(1.0, spec, [t])[0] for t in times]
        assert ou_tv_upper_bound(1.0, spec, times[::-1]) == bounds[::-1]

    def test_reads_r_sqrt_mu_on_the_clock_one_over_mu(self):
        # the OU law at (mu, R) at time t is the law at (1, R sqrt(mu)) at time
        # mu t scaled by 1/sqrt(mu), and TV does not see the scaling
        mu = 3.0
        spec = single_mode_spec(b_rho=1.0, bulk_scale=0.0)
        scaled = single_mode_spec(R=spec.R * math.sqrt(mu), b_rho=1.0, bulk_scale=0.0)
        times = np.linspace(0.5, 3.0, 12)
        np.testing.assert_allclose(ou_tv_upper_bound(mu, spec, times),
                                   ou_tv_upper_bound(1.0, scaled, mu * times), rtol=1e-12)

    def test_long_horizon_limit(self):
        # compact mixture: the bound collapses to the (zero) outside mass
        spec = single_mode_spec(b_rho=1.0, bulk_scale=0.0)
        assert ou_tv_upper_bound(1.0, spec, [50.0])[0] <= 1e-8

    def test_below_eps_at_mixing_horizon(self):
        spec = single_mode_spec()
        hz = mixing_horizons(1.0, spec.R, spec.delta, spec.eps, spec.d)
        assert ou_tv_upper_bound(1.0, spec, [hz.t_mix])[0] < spec.eps

    def test_dominates_exact_tv_in_1d(self):
        # 1D mixture: mode is the interval [10.0, 10.2]; the exact marginal
        # density has a closed form through the Gaussian CDF, and the exact
        # TV against N(0,1) comes from quadrature
        R, delta = 10.0, 0.01
        spec = MultiModalData(
            1, R, delta, 0.05,
            modes=(ModeSpec(np.array([R * (1 + delta)]), delta * R, 1.0),),
            bulk_scale=0.0,
        )
        lo, hi = R * delta * R and 10.0, 10.2  # interval endpoints

        def exact_tv(t):
            decay = math.exp(-t)
            sigma = math.sqrt(1.0 - math.exp(-2.0 * t))
            width = (hi - lo) * decay

            def f(x):
                return (ndtr((x - lo * decay) / sigma) - ndtr((x - hi * decay) / sigma)) / width

            phi = lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
            val, _ = quad(lambda x: abs(f(x) - phi(x)), -12.0, 16.0, limit=400)
            return 0.5 * val

        times = (0.5, 1.0, 1.5, 2.5, 4.0)
        for t, upper in zip(times, ou_tv_upper_bound(1.0, spec, times)):
            assert upper >= exact_tv(t) - 1e-9


class TestHorizons:
    def test_t_lower_formula(self):
        hz = mixing_horizons(1.0, 100.0, 0.01, 0.05, 16, r_k=5.0)
        assert hz.t_lower == pytest.approx(math.log(10.0), rel=1e-12)

    def test_onset_clamp(self):
        # sqrt(2 log(1/0.7)) < 1, so the max clamps to 1
        hz = mixing_horizons(1.0, math.e**2, 0.01, 0.7, 4)
        assert hz.t_onset == pytest.approx(2.0, rel=1e-12)

    def test_mix_simple_arithmetic(self):
        hz = mixing_horizons(1.0, 100.0, 0.01, 0.05, 4)
        expected = math.log(100.0) + math.log(1.02) + math.log(20.0)
        assert hz.t_mix_simple == pytest.approx(expected, rel=1e-12)

    def test_general_mix_formula(self):
        mu, R, delta, eps, d = 2.0, 50.0, 0.02, 0.1, 256
        hz = mixing_horizons(mu, R, delta, eps, d)
        expected = max(
            math.log(2 * d**0.25 / math.sqrt(eps)),
            math.log(2 * R * (1 + 2 * delta) * math.sqrt(mu) / eps),
        ) / mu
        assert hz.t_mix == pytest.approx(expected, rel=1e-12)

    def test_t_lower_unavailable(self):
        hz = mixing_horizons(1.0, 10.0, 0.01, 0.05, 4, r_k=6.0)
        assert hz.t_lower is None
        assert mixing_horizons(1.0, 10.0, 0.01, 0.05, 4).t_lower is None


class TestCompatibility:
    def test_failing_middle_check(self):
        rep = check_compatibility(1.0, 32.0, 0.01, 0.1, 10_000, 0.5, 2.0)
        by_name = {c.name: c for c in rep}
        assert by_name["mode-distance-vs-dimension"].passed
        assert not by_name["tolerance-vs-distance"].passed  # 32^0.5 < 20.4
        assert by_name["quantile-vs-distance"].passed

    def test_all_pass(self):
        rep = check_compatibility(1.0, 1e6, 0.01, 0.1, 100, 0.3, 3.0)
        assert all(c.passed for c in rep)

    def test_boundary_quantile(self):
        R, beta = 100.0, 0.4
        r_k = R**beta / 2.0
        rep = check_compatibility(1.0, R, 0.01, 0.1, 100, beta, r_k)
        by_name = {c.name: c for c in rep}
        assert by_name["quantile-vs-distance"].passed
