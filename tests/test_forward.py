import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mixlab import (
    DivergenceError,
    DomainError,
    IntegratorConfig,
    OUProcess,
    RadialProfile,
    RegimeKind,
    SphericalMeasure,
    StructuralError,
    TemperedLangevin,
    check_dispersion_balance,
    check_drift_condition,
    check_linear_growth,
    classify_ergodicity,
    probe_grid,
)
from mixlab import forward
from mixlab.bounds import SubspaceProjector, _radius
from mixlab.forward import DIVERGENCE_RADIUS, H_FLOOR
from mixlab.rng import substream
from tests.oracles import frame, histogram_tv


class TestOUTransitions:
    def test_zero_horizon(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("OU drew random numbers at T = 0")

        ou = OUProcess(1.0, 3)
        x0 = np.array([1.0, -2.0, 0.5])
        y = substream(1).standard_normal((20, 3))
        monkeypatch.setattr(forward, "substream", no_draws)
        pts = ou.sample_endpoints(x0, 0.0, 50, 0)
        assert np.array_equal(pts, np.tile(x0, (50, 1)))
        out = ou.evolve(y, 0.0, 5)
        assert np.array_equal(out, y) and out is not y

    def test_stationary_limit(self):
        ou = OUProcess(1.0, 4)
        x0 = np.full(4, 7.0)
        pts = ou.sample_endpoints(x0, 50.0, 100_000, 1)
        n = pts.shape[0]
        assert np.all(np.abs(pts.mean(axis=0)) <= 4.0 / math.sqrt(n))
        assert np.all(np.abs(pts.var(axis=0) - 1.0) <= 4.0 * math.sqrt(2.0 / n))

    def test_mean_decay(self):
        ou = OUProcess(1.0, 2)
        x0 = np.array([2.0, 0.0])
        pts = ou.sample_endpoints(x0, math.log(2.0), 100_000, 2)
        var = (1 - 0.25) / 1.0
        se = math.sqrt(var / pts.shape[0])
        assert abs(pts[:, 0].mean() - 1.0) <= 4 * se

    def test_composition_consistency(self):
        # two chained transitions match one transition of the summed horizon
        ou = OUProcess(0.7, 3)
        x0 = np.array([5.0, -3.0, 1.0])
        n = 100_000
        direct = ou.sample_endpoints(x0, 1.2, n, 3)
        step1 = ou.sample_endpoints(x0, 0.45, n, 4)
        composed = ou.evolve(step1, 0.75, 5)
        for j in range(3):
            se_m = math.sqrt(2.0 / (0.7 * n))
            assert abs(direct[:, j].mean() - composed[:, j].mean()) <= 4 * se_m
            se_v = math.sqrt(2.0 / n) * 2 / 0.7
            assert abs(direct[:, j].var() - composed[:, j].var()) <= 4 * se_v

    def test_variance_at_small_mu_t(self):
        # 1 - e^{-2 mu T} rounds to 0 at mu T = 1e-20; the variance is 2 T to first order
        pts = OUProcess(1e-20, 1).evolve(np.zeros((100_000, 1)), 1.0, 3)
        assert abs(pts.var() - 2.0) <= 4.0 * 2.0 * math.sqrt(2.0 / pts.size)

    @pytest.mark.parametrize("mu, T", [(1.0, 0.3), (0.7, 4.5), (1e-20, 1.0), (1e13, 1e-12)])
    def test_evolve_is_the_transition_affine(self, mu, T):
        # evolve draws z on its substream and returns decay x + scale z, bit for bit
        ou = OUProcess(mu, 3)
        x = substream(8).standard_normal((200, 3))
        decay, scale = ou.transition(T)
        z = substream(9).standard_normal((200, 3))
        assert np.array_equal(ou.evolve(x, T, 9), scale * z + decay * x)

    def test_transition_at_zero_and_negative_horizons(self):
        ou = OUProcess(0.7, 1)
        assert ou.transition(0.0) == (1.0, 0.0)
        with pytest.raises(DomainError):
            ou.transition(-1.0)

    def test_invariant_measure(self):
        pi = OUProcess(2.0, 5).invariant_measure()
        assert isinstance(pi, SphericalMeasure)
        assert pi.profile.p == 2 and pi.profile.a == 1.0


class TestTemperedLangevinCoefficients:
    def test_ou_drift_recovery(self):
        # quadratic profile at temperature zero is the OU drift -mu*x
        mu = 1.7
        tl = TemperedLangevin(RadialProfile.quadratic(mu / 2.0), 0.0, 6)
        rng = np.random.default_rng(0)
        x = 10.0 * rng.standard_normal((100, 6))
        np.testing.assert_allclose(tl.drift(x), -mu * x, atol=1e-10, rtol=0)
        assert np.allclose(tl.dispersion_scalar(x), math.sqrt(2.0))

    def test_drift_at_origin(self):
        tl = TemperedLangevin(RadialProfile.power_tail(1.0, 0.5), 0.3, 3)
        assert np.array_equal(tl.drift(np.zeros(3)), np.zeros(3))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ell", [0.0, 0.4, 0.75])
    def test_drift_coefficient_is_the_formula_on_positive_radii(self, p, ell):
        # every radius is evaluated and r = 0 is set to 0 afterwards: at r > 0 the
        # values are, bit for bit, those of the formula on the positive radii alone
        tl = TemperedLangevin(RadialProfile.power_tail(0.6, p), ell, 4)
        r = np.concatenate([[0.0, 1e-300], np.geomspace(1e-3, 1e3, 61), [0.0]])
        nz = r > 0
        with np.errstate(over="ignore"):  # at p = 0.5, H'(1e-300) / 1e-300 passes the float range
            c = tl.drift_coefficient(r)
            ref = -tl._drift_magnitude(np.maximum(tl.profile.value(r[nz]), H_FLOOR), r[nz]) / r[nz]
        assert np.array_equal(c[nz], ref)
        assert np.array_equal(c[~nz], np.zeros(2))

    def test_exponential_profile_unit_drift(self):
        # H(r) = r, ell = 0: coefficient H^(-1) * H * H' = 1, so b = -x/|x|
        tl = TemperedLangevin(RadialProfile.power_tail(1.0, 1.0), 0.0, 3)
        x = np.array([3.0, 0.0, 0.0])
        np.testing.assert_allclose(tl.drift(x), -x / 3.0, rtol=1e-12)

    def test_dispersion_values(self):
        tl0 = TemperedLangevin(RadialProfile.power_tail(1.0, 1.0), 0.0, 2)
        assert tl0.dispersion_scalar(np.array([[5.0, 0.0]]))[0] == pytest.approx(math.sqrt(2))
        tl1 = TemperedLangevin(RadialProfile.power_tail(1.0, 1.0), 1.0, 2)
        assert tl1.dispersion_scalar(np.array([[2.0, 0.0]]))[0] == pytest.approx(2 * math.sqrt(2))
        assert tl1.dispersion_scalar(np.zeros((1, 2)))[0] == 0.0


@pytest.mark.parametrize("proc", [
    OUProcess(1.3, 6),
    TemperedLangevin(RadialProfile.power_tail(0.6, 1.0), 0.4, 6),
], ids=["ou", "tempered"])
def test_point_readers_are_built_on_the_radial_coefficients(proc):
    # b(x) = c(|x|) x and sigma(x) = s(|x|) I, bit for bit, at the radius the probes read
    x = 20.0 * substream(4).standard_normal((500, 6))
    x[0] = 0.0
    r = _radius(x)
    assert np.array_equal(proc.drift(x), proc.drift_coefficient(r)[:, None] * x)
    if isinstance(proc, TemperedLangevin):
        assert np.array_equal(proc.dispersion_scalar(x), proc.noise_scale(r))


class NaNDriftLangevin(TemperedLangevin):
    """A process whose drift evaluates to NaN everywhere."""

    def drift_coefficient(self, r):
        return np.full(np.shape(r), np.nan)


def full_d_step(tl, state, dt, rng):
    """One Euler-Maruyama step of the n x d chain X' = X + b(X) dt + sigma(X) sqrt(dt) xi.

    The reference that ``TemperedLangevin.sample_endpoints`` reduces to two
    scalars per path.
    """
    b = tl.drift(state)
    s = tl.dispersion_scalar(state)
    return state + b * dt + (s * math.sqrt(dt))[:, None] * rng.standard_normal(state.shape)


def full_d_endpoints(tl, x0, T, n, seed, step):
    rng = np.random.default_rng(seed)
    state = np.tile(x0, (n, 1))
    for dt in tl._steps(T, step):
        state = full_d_step(tl, state, dt, rng)
    return state


def unit(v):
    return v / np.linalg.norm(v)


# (d, |x0|, ell, profile, T, step): each d, x0 = 0 and x0 != 0, and each ell occur,
# and the quadratic case has drift factor g = 1 - 4 * 0.3 < 0 (overshoot)
# with a remainder step of 0.1
LAW_CASES = [
    (1, 3.0, 0.4, RadialProfile.power_tail(0.6, 1.0), 1.0, 0.05),
    (1, 0.0, 0.0, RadialProfile.power_tail(0.6, 1.0), 1.0, 0.05),
    (2, 0.0, 0.0, RadialProfile.power_tail(1.0, 1.0), 1.0, 0.05),
    (2, 3.0, 0.75, RadialProfile.power_tail(0.6, 1.0), 1.0, 0.05),
    (3, 3.0, 0.0, RadialProfile.power_tail(0.6, 1.0), 1.0, 0.05),
    (3, 2.0, 0.0, RadialProfile.quadratic(2.0), 1.0, 0.3),
    (16, 3.0, 0.4, RadialProfile.power_tail(0.6, 1.0), 1.0, 0.05),
    (16, 0.0, 0.0, RadialProfile.power_tail(0.6, 1.0), 1.0, 0.05),
    (64, 3.0, 0.75, RadialProfile.power_tail(0.6, 1.0), 1.0, 0.05),
    (64, 0.0, 0.0, RadialProfile.quadratic(0.5), 1.0, 0.05),
]


class TestEulerMaruyama:
    def test_zero_horizon(self):
        tl = TemperedLangevin(RadialProfile.quadratic(0.5), 0.0, 2)
        x0 = np.array([1.0, 2.0])
        pts = tl.sample_endpoints(x0, 0.0, 10, 0, IntegratorConfig(0.1))
        assert np.array_equal(pts, np.tile(x0, (10, 1)))

    def test_step_exceeds_horizon(self):
        tl = TemperedLangevin(RadialProfile.quadratic(0.5), 0.0, 2)
        with pytest.raises(DomainError):
            tl.sample_endpoints(np.zeros(2), 0.05, 5, 0, IntegratorConfig(0.1))

    def test_needs_config(self):
        tl = TemperedLangevin(RadialProfile.quadratic(0.5), 0.0, 2)
        with pytest.raises(StructuralError):
            tl.sample_endpoints(np.zeros(2), 1.0, 5, 0)

    def test_one_step_brownian_scaling(self):
        # at temperature zero the noise is additive: one-step increments
        # from a drift-free point have variance 2h per coordinate
        h, n = 0.01, 1_000_000
        tl = TemperedLangevin(RadialProfile.quadratic(0.5), 0.0, 2)
        pts = tl.sample_endpoints(np.zeros(2), h, n, 5, IntegratorConfig(h))
        se = 2 * h * math.sqrt(2.0 / n)
        assert np.all(np.abs(pts.var(axis=0) - 2 * h) <= 4 * se)

    def test_endpoints_match_exact_ou(self):
        # quadratic profile, ell = 0 is an OU process; the exact transition
        # sampler is the oracle for the Euler-Maruyama endpoint law
        mu, T, n = 1.0, 2.0, 50_000
        tl = TemperedLangevin(RadialProfile.quadratic(mu / 2.0), 0.0, 1)
        ou = OUProcess(mu, 1)
        x0 = np.array([4.0])
        em = tl.sample_endpoints(x0, T, n, 6, IntegratorConfig(1e-3))
        exact = ou.sample_endpoints(x0, T, n, 7)
        tv = histogram_tv(em[:, 0], exact[:, 0], math.ceil(math.sqrt(n)))
        assert tv <= 0.05

    def test_divergence_detection(self):
        # superlinear drift plus a coarse step oscillates to infinity; the
        # error names the step, the grid time it reached and the largest radius
        tl = TemperedLangevin(RadialProfile.quadratic(2.0), 1.0, 2)
        x0 = np.array([10.0, 0.0])
        with pytest.raises(DivergenceError) as err:
            tl.sample_endpoints(x0, 5.0, 4, 8, IntegratorConfig(0.5))
        exc = err.value
        assert exc.step_index >= 0
        assert exc.time == pytest.approx(0.5 * (exc.step_index + 1), rel=1e-12)
        assert exc.radius > DIVERGENCE_RADIUS
        assert f"t = {exc.time:.6g}" in str(exc)
        assert f"largest |x| = {exc.radius:.6g}" in str(exc)

    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("ell", [4.0, 7.0])
    def test_overflow_reaches_the_divergence_guard(self, d, ell):
        # from |x0| = 1e11 the first step of h = 0.5 overflows A^2 (ell = 4) or
        # the drift factor itself (ell = 7): no RuntimeWarning escapes, and the
        # guard stops at step 0 with the radius hypot(A, W) reads
        tl = TemperedLangevin(RadialProfile.quadratic(2.0), ell, d)
        x0 = np.zeros(d)
        x0[0] = 1e11
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                tl.sample_endpoints(x0, 5.0, 4, 8, IntegratorConfig(0.5))
        assert err.value.step_index == 0
        assert err.value.time == 0.5
        if ell == 4.0:
            # |g| |x0| = 0.5 * 4 (2e22)^8 * 1e11
            assert "largest |x| = 5.12e+189" in str(err.value)

    def test_nan_state_is_divergence(self):
        # NaN compares false against the divergence radius; the guard must
        # still stop at the first step
        tl = NaNDriftLangevin(RadialProfile.power_tail(1.0, 1.0), 0.25, 2)
        cfg = IntegratorConfig(0.1)
        with pytest.raises(DivergenceError, match="NaN") as err:
            tl.sample_endpoints(np.ones(2), 1.0, 4, 8, cfg)
        assert err.value.step_index == 0
        assert err.value.time == pytest.approx(0.1)
        assert math.isnan(err.value.radius)

    def test_no_paths(self):
        tl = TemperedLangevin(RadialProfile.quadratic(0.5), 0.0, 3)
        pts = tl.sample_endpoints(np.ones(3), 1.0, 0, 0, IntegratorConfig(0.1))
        assert pts.shape == (0, 3)

    def test_origin_is_absorbing_above_half_temperature(self):
        # ell > 1/2: drift and dispersion both vanish at 0, so a path stays there
        tl = TemperedLangevin(RadialProfile.power_tail(1.0, 1.0), 0.75, 5)
        pts = tl.sample_endpoints(np.zeros(5), 1.0, 100, 3, IntegratorConfig(0.1))
        assert np.array_equal(pts, np.zeros((100, 5)))

    @pytest.mark.parametrize("d,radius,ell,profile,T,h", LAW_CASES)
    def test_endpoint_law_matches_full_d_chain(self, d, radius, ell, profile, T, h):
        # two-sample KS of four statistics of X_T against the n x d chain
        n = 5000
        tl = TemperedLangevin(profile, ell, d)
        rng = np.random.default_rng(1000 + d)
        x0 = radius * unit(rng.standard_normal(d))
        e1 = unit(x0) if radius > 0 else np.eye(d)[0]
        stats = {"<X,e1>": e1, "<X,u>": unit(rng.standard_normal(d))}
        if d > 1:
            v = rng.standard_normal(d)
            stats["<X,v>, v orthogonal to x0"] = unit(v - (v @ e1) * e1)
        new = tl.sample_endpoints(x0, T, n, 11, IntegratorConfig(h))
        ref = full_d_endpoints(tl, x0, T, n, 12, h)
        assert new.shape == ref.shape == (n, d)
        pairs = {name: (new @ w, ref @ w) for name, w in stats.items()}
        pairs["|X|"] = (np.linalg.norm(new, axis=1), np.linalg.norm(ref, axis=1))
        for name, (a, b) in pairs.items():
            assert ks_2samp(a, b).pvalue > 1e-3, name

    def test_weak_order_one(self):
        # quadratic profile, ell = 0 is OU with mu = 2a: Euler-Maruyama's mean
        # along x0 is (1 - mu h)^(T/h) |x0|, biased against e^{-mu T} |x0| by O(h)
        mu, T, d, n = 1.0, 1.0, 8, 20_000
        tl = TemperedLangevin(RadialProfile.quadratic(mu / 2.0), 0.0, d)
        x0 = np.zeros(d)
        x0[0] = 100.0
        exact = math.exp(-mu * T) * x0[0]
        biases = []
        for i, h in enumerate((0.1, 0.05, 0.025)):
            a = tl.sample_endpoints(x0, T, n, 20 + i, IntegratorConfig(h))[:, 0]
            bias = a.mean() - exact
            assert abs(bias) >= 20.0 * a.std() / math.sqrt(n)
            biases.append(bias)
        for coarse, fine in zip(biases, biases[1:]):
            assert 1.6 <= coarse / fine <= 2.4

    @pytest.mark.parametrize("ell", [0.0, 0.4, 1.0])
    def test_scale_covariance_is_byte_exact(self, ell):
        # at p = 1, x -> lam x maps profile_a to a / lam and time to lam^2 t;
        # with lam a power of two every factor of a step is exact, so the
        # endpoints scale bit for bit
        d, n = 6, 2000
        x0 = 3.0 * unit(np.random.default_rng(6).standard_normal(d))

        def run(a, x, T, h):
            tl = TemperedLangevin(RadialProfile.power_tail(a, 1.0), ell, d)
            return tl.sample_endpoints(x, T, n, 7, IntegratorConfig(h))

        base = run(0.6, x0, 0.5, 1e-2)
        assert np.array_equal(base, 2.0 * run(1.2, x0 / 2, 0.125, 2.5e-3))
        assert np.array_equal(base, 0.5 * run(0.3, 2 * x0, 2.0, 4e-2))

    def test_long_run_occupation_matches_invariant_radial_law(self):
        # pooled |x| snapshots after burn-in vs the exact radial sampler
        d, ell = 2, 0.25
        tl = TemperedLangevin(RadialProfile.power_tail(1.0, 1.0), ell, d)
        h, n_paths = 0.01, 400
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
        state = np.tile(np.array([1.0, 0.0]), (n_paths, 1))
        snaps = []
        n_steps = 5000  # T = 50, burn-in t <= 10
        for step in range(n_steps):
            state = full_d_step(tl, state, h, rng)
            if step >= 1000 and step % 50 == 0:
                snaps.append(np.linalg.norm(state, axis=1))
        occupied = np.concatenate(snaps)
        exact = np.linalg.norm(tl.invariant_measure().sample(100_000, 78), axis=1)
        tv = histogram_tv(occupied, exact, 40, (0.0, 12.0))
        assert tv <= 0.08


class TestLinearGrowthCheck:
    def test_ou_equality(self):
        ou = OUProcess(1.3, 5)
        rep = check_linear_growth(ou, 1.3, probe_grid(10.0, 5, 3)[0])
        assert rep.passed
        # equality case: ratio is 1 up to dot-product rounding
        assert abs(rep.value - 1.0) <= 1e-9

    def test_wrong_mu_fails(self):
        ou = OUProcess(1.0, 5)
        rep = check_linear_growth(ou, 0.5, probe_grid(10.0, 5, 3)[0])
        assert not rep.passed
        assert rep.value == pytest.approx(2.0, rel=1e-9)

    def test_compliant_tempered(self):
        tl = TemperedLangevin(RadialProfile.power_tail(0.6, 1.0), 0.4, 16)
        rep = check_linear_growth(tl, 1.0, probe_grid(50.0, 16, 3)[0])
        assert rep.passed

    def test_radii_at_the_origin_raise(self):
        # no radius is left once |x| < 1e-12 is skipped, so nothing was checked
        with pytest.raises(DomainError):
            check_linear_growth(OUProcess(1.0, 3), 1.0, np.zeros(4))
        with pytest.raises(DomainError):
            check_linear_growth(OUProcess(1.0, 3), 1.0, probe_grid(1e-20, 8, 3)[0])


class TestDriftCondition:
    def test_ou_profile_equality_case(self):
        mu = 1.0
        tl = TemperedLangevin(RadialProfile.quadratic(mu / 2.0), 0.0, 4)
        rep = check_drift_condition(tl, mu, r_max=1000.0)
        assert rep.passed

    def test_sufficient_condition_configuration(self):
        # ell <= 1/p - 1/2 and a <= (mu/p)^(1/(2 ell + 1)) - ell
        mu, p, ell = 1.0, 1.0, 0.4
        a = (mu / p) ** (1.0 / (2 * ell + 1)) - ell
        tl = TemperedLangevin(RadialProfile.power_tail(a, p), ell, 4)
        assert check_drift_condition(tl, mu, r_max=5000.0).passed

    def test_superlinear_fails(self):
        # a=1, p=2, ell=1: the radial bound grows like r^5
        tl = TemperedLangevin(RadialProfile.power_tail(1.0, 2.0), 1.0, 4)
        rep = check_drift_condition(tl, 1.0, r_max=100.0)
        assert not rep.passed
        assert rep.value > 0

    def test_r_max_at_the_float_floor_raises(self):
        # the grid starts at 1e-8 r_max, which rounds to 0 here
        tl = TemperedLangevin(RadialProfile.power_tail(1.0, 1.0), 0.0, 3)
        with pytest.raises(DomainError, match="r_max = 4.94066e-324"):
            check_drift_condition(tl, 1.0, r_max=5e-324)


class TestDispersionBalance:
    def test_scalar_dispersion_passes(self):
        tl = TemperedLangevin(RadialProfile.power_tail(1.0, 1.0), 0.5, 6)
        rep = check_dispersion_balance(tl, 3, *probe_grid(5.0, 6, 3))
        assert rep.passed

    def test_non_finite_noise_scale_fails(self):
        # with a = s^2 I the balance holds wherever s^2 is finite, so what the
        # row can catch is a noise scale that is not
        stub = SimpleNamespace(noise_scale=lambda r: np.where(r > 10.0, np.inf, 1.0))
        r, g = probe_grid(5.0, 6, 3)
        assert r.max() > 10.0
        with np.errstate(invalid="ignore"):
            rep = check_dispersion_balance(stub, 3, r, g)
        assert not rep.passed

    def test_identity_full_dimension(self):
        d = 4
        rep = check_dispersion_balance(OUProcess(1.0, d), d, *probe_grid(3.0, d, d))
        assert rep.passed

    def test_requires_orthonormal_basis(self):
        d = 5
        bad = np.eye(d)[:3] * 1.01
        with pytest.raises(StructuralError):
            check_dispersion_balance(OUProcess(1.0, d), 3,
                                     *frame(SubspaceProjector(bad),
                                             substream(0).standard_normal((100, d))))


class TestClassifyErgodicity:
    @pytest.mark.parametrize(
        "p,ell,kind,exponent",
        [
            (0.5, 0.0, RegimeKind.SUBEXPONENTIAL, 1.0 / 3.0),
            (1.0, 0.5, RegimeKind.EXPONENTIAL, None),
            (3.0, 0.0, RegimeKind.UNIFORM, None),
            (0.5, 1.0, RegimeKind.EXPONENTIAL, None),
            (0.5, 1.6, RegimeKind.UNIFORM, None),
            (2.0, 0.0, RegimeKind.EXPONENTIAL, None),
            (2.0, 0.1, RegimeKind.UNIFORM, None),
            (1.0, 0.0, RegimeKind.EXPONENTIAL, None),
        ],
    )
    def test_cases(self, p, ell, kind, exponent):
        regime = classify_ergodicity(p, ell)
        assert regime.kind is kind
        if exponent is None:
            assert regime.exponent is None
        else:
            assert regime.exponent == pytest.approx(exponent, rel=1e-12)

    def test_total_on_grid(self):
        for p in np.linspace(0.05, 4.0, 40):
            for ell in np.linspace(0.0, 3.0, 30):
                regime = classify_ergodicity(float(p), float(ell))
                assert regime.kind in RegimeKind
                assert (regime.exponent is not None) == (
                    regime.kind is RegimeKind.SUBEXPONENTIAL
                )
                if regime.exponent is not None:
                    assert regime.exponent > 0

    def test_errors(self):
        with pytest.raises(StructuralError):
            classify_ergodicity(0.0, 0.0)
        with pytest.raises(StructuralError):
            classify_ergodicity(1.0, -0.1)
