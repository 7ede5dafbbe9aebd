import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, gammainc, gammaincc
from scipy.stats import chi, chi2, ks_2samp

from mixlab import (
    DomainError,
    ModeSpec,
    MultiModalData,
    RadialProfile,
    SphericalMeasure,
    StructuralError,
    SubspaceProjector,
    ou_tv_upper_bound,
    projection_norm_samples,
    projection_quantile,
    projection_tail,
    validate_data_spec,
)
from mixlab import measures
from mixlab.rng import substream


def single_mode_spec(d=16, R=50.0, delta=0.02, eps=0.05, b_rho=0.5, **kw):
    center = np.zeros(d)
    center[0] = R * (1 + delta)
    return MultiModalData(d, R, delta, eps, modes=(ModeSpec(center, delta * R, b_rho),), **kw)


def sample_mode(spec, rng, mode, n):
    """n d-dimensional draws of one mode, built coordinate by coordinate: a
    uniform direction times a radius, or a Gaussian about the center redrawn
    until it falls inside the ball."""
    if n == 0:
        return np.zeros((0, spec.d))
    dirs = rng.standard_normal((n, spec.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if spec.mode_kind == "uniform-ball":
        radii = mode.radius * rng.random(n) ** (1.0 / spec.d)
        return mode.center + radii[:, None] * dirs
    sigma = mode.radius / (math.sqrt(spec.d) + 3.0)
    pts = mode.center + sigma * rng.standard_normal((n, spec.d))
    for _ in range(1000):
        bad = np.linalg.norm(pts - mode.center, axis=1) > mode.radius
        if not bad.any():
            return pts
        pts[bad] = mode.center + sigma * rng.standard_normal((int(bad.sum()), spec.d))
    raise RuntimeError("truncated-gaussian rejection sampling failed to converge")


def reference_sample(spec, n, seed):
    """n full d-dimensional mixture points from :func:`sample_mode` and the
    bulk; the reference the library's samplers are tested against."""
    rng = substream(seed)
    weights = np.array([m.weight for m in spec.modes] + [spec.bulk_weight])
    comp = rng.choice(len(weights), size=n, p=weights / weights.sum())
    out = np.empty((n, spec.d))
    for i, mode in enumerate(spec.modes):
        idx = np.flatnonzero(comp == i)
        out[idx] = sample_mode(spec, rng, mode, len(idx))
    idx = np.flatnonzero(comp == len(spec.modes))
    out[idx] = spec.bulk_scale * rng.standard_normal((len(idx), spec.d))
    return out


class TestRadialProfile:
    def test_validation(self):
        with pytest.raises(StructuralError):
            RadialProfile(-1.0, 1.0)
        with pytest.raises(StructuralError):
            RadialProfile(1.0, 0.0)
        with pytest.raises(StructuralError):
            RadialProfile(1.0, 2.5)
        assert RadialProfile.quadratic(0.5).p == 2
        assert RadialProfile.power_tail(1.0, 1.0).p != 2

    def test_value_and_deriv(self):
        prof = RadialProfile.power_tail(2.0, 1.5)
        assert prof.value(4.0) == pytest.approx(16.0)
        assert prof.deriv(4.0) == pytest.approx(2.0 * 1.5 * 2.0)
        assert prof.value(0.0) == 0.0


class TestSphericalSampler:
    def test_gaussian_1d_variance(self):
        # exp(-r^2/2) radial law in one dimension is standard normal
        pi = SphericalMeasure(1, RadialProfile.quadratic(0.5))
        x = pi.sample(1_000_000, 0)[:, 0]
        se = math.sqrt(2.0 / x.size)
        assert abs(x.var() - 1.0) <= 3 * se

    def test_exponential_radius_mean(self):
        # |x| is Gamma(3, 1) so its mean is 3 with variance 3
        pi = SphericalMeasure(3, RadialProfile.power_tail(1.0, 1.0))
        r = np.linalg.norm(pi.sample(300_000, 1), axis=1)
        se = math.sqrt(3.0 / r.size)
        assert abs(r.mean() - 3.0) <= 3 * se

    def test_squared_radius_mean_by_quadrature(self):
        # oracle: E|x|^2 = int r^3 e^{-r^2} dr / int r e^{-r^2} dr in d=2
        num = quad(lambda r: r**3 * math.exp(-(r**2)), 0, np.inf)[0]
        den = quad(lambda r: r * math.exp(-(r**2)), 0, np.inf)[0]
        expected = num / den
        assert expected == pytest.approx(1.0, abs=1e-12)
        pi = SphericalMeasure(2, RadialProfile.power_tail(1.0, 2.0))
        r2 = np.sum(pi.sample(300_000, 2) ** 2, axis=1)
        se = r2.std() / math.sqrt(r2.size)
        assert abs(r2.mean() - expected) <= 3 * se

    @pytest.mark.parametrize("draw", [
        lambda pi: pi.sample(10, 0),
        lambda pi: projection_norm_samples(pi, 3, 10, 0),
        lambda pi: projection_tail(pi, 3, 1.0),
        lambda pi: projection_quantile(pi, 3, 0.1),
    ], ids=["sample", "projection_norm_samples", "projection_tail", "projection_quantile"])
    def test_gamma_shape_guard(self, draw):
        # the guard fires before any d-dimensional array is allocated
        pi = SphericalMeasure(20_000_001, RadialProfile.power_tail(1.0, 1.0))
        with pytest.raises(DomainError, match="out of supported range"):
            draw(pi)

    def test_determinism(self):
        pi = SphericalMeasure(5, RadialProfile.power_tail(1.0, 1.4))
        a = pi.sample(2000, 7)
        b = pi.sample(2000, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, pi.sample(2000, 8))

    def test_empty(self):
        pi = SphericalMeasure(3, RadialProfile.quadratic(1.0))
        assert pi.sample(0, 0).shape == (0, 3)

    def test_projection_chi_square_dkw(self):
        # for the Gaussian profile, mu * |first-k-coords|^2 is chi2(k);
        # empirical CDF must sit inside the DKW band at level 0.001
        mu, k, n = 2.0, 3, 100_000
        pi = SphericalMeasure(12, RadialProfile.quadratic(mu / 2.0))
        g = projection_norm_samples(pi, k, n, 5)
        u = mu * g * g
        band = math.sqrt(math.log(2.0 / 0.001) / (2.0 * n))
        for x in (0.5, 1.5, 3.0, 5.0, 9.0):
            emp = np.mean(u <= x)
            assert abs(emp - gammainc(k / 2, x / 2)) <= band


def reference_spherical_sample(pi, n, seed):
    """n full d-dimensional draws of ``pi``: exact Gamma radius times a
    normalised n x d Gaussian, the reference the library's samplers are
    tested against."""
    rng = substream(seed)
    r = (rng.gamma(pi.d / pi.profile.p, 1.0, size=n) / pi.profile.a) ** (1.0 / pi.profile.p)
    z = rng.standard_normal((n, pi.d))
    return r[:, None] * z / np.linalg.norm(z, axis=1, keepdims=True)


def reference_projection_norms(pi, k, n, seed):
    """n values of |first-k-coordinates| from the chi-square ratio
    |G_k|^2 = r^2 u/(u + w), u ~ chi2(k), w ~ chi2(d - k)."""
    rng = substream(seed)
    r = (rng.gamma(pi.d / pi.profile.p, 1.0, size=n) / pi.profile.a) ** (1.0 / pi.profile.p)
    if k == pi.d:
        return r
    u = rng.chisquare(k, size=n)
    w = rng.chisquare(pi.d - k, size=n)
    return r * np.sqrt(u / (u + w))


SPHERICAL_CASES = [(d, k) for d in (1, 2, 3, 16, 64) for k in sorted({1, 3, d}) if k <= d]


class TestSphericalCoefficients:
    """Radius times uniform direction, read on k rows, against the n x d sampler."""

    @pytest.mark.parametrize("d, k", SPHERICAL_CASES)
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_matches_full_dimensional_sampler(self, d, k, p):
        pi = SphericalMeasure(d, RadialProfile.power_tail(0.8, p))
        q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, k)))
        n = 20_000
        fast = pi._coefficients(n, k, 71)
        oracle = reference_spherical_sample(pi, n, 72) @ q
        assert fast.shape == (n, k)
        for f, o in ((np.linalg.norm(fast, axis=1), np.linalg.norm(oracle, axis=1)),
                     (fast[:, 0], oracle[:, 0]), (fast[:, k - 1], oracle[:, k - 1])):
            assert ks_2samp(f, o).pvalue > 1e-3

    @pytest.mark.parametrize("d, k", SPHERICAL_CASES)
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_norms_match_the_chi_square_ratio(self, d, k, p):
        pi = SphericalMeasure(d, RadialProfile.power_tail(0.8, p))
        n = 20_000
        fast = projection_norm_samples(pi, k, n, 73)
        assert fast.shape == (n,)
        assert ks_2samp(fast, reference_projection_norms(pi, k, n, 74)).pvalue > 1e-3

    def test_full_projection_norm_is_the_radius_in_O_n(self):
        # at k = d the norm of every coordinate is the radius: n draws, no n x d block
        pi = SphericalMeasure(20_000, RadialProfile.power_tail(0.8, 1.0))
        tracemalloc.start()
        try:
            g = projection_norm_samples(pi, pi.d, 500, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the n x d block alone would be 80 MB
        assert np.array_equal(g, pi._radii(substream(9), 500))

    @pytest.mark.parametrize("d", [1, 5])
    def test_sample_is_the_identity_basis_case(self, d):
        pi = SphericalMeasure(d, RadialProfile.power_tail(1.0, 1.4))
        assert np.array_equal(pi.sample(3000, 8), pi._coefficients(3000, d, 8))
        assert pi.sample(0, 8).shape == (0, d)

    def test_only_the_row_count_enters(self):
        # the law is rotation invariant, so the coefficients take k, not a basis:
        # the points read on any k orthonormal rows have the law of their first k
        pi = SphericalMeasure(6, RadialProfile.power_tail(1.0, 1.0))
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 3)))
        x = pi.sample(20_000, 5)
        assert ks_2samp(np.linalg.norm(x @ q, axis=1),
                        np.linalg.norm(x[:, :3], axis=1)).pvalue > 1e-3
        g = projection_norm_samples(pi, 3, 500, 4)
        assert np.array_equal(g, np.linalg.norm(pi._coefficients(500, 3, 4), axis=1))

    def test_basis_validation(self):
        # the rows pi is read on are a count k, checked where it enters
        pi = SphericalMeasure(4, RadialProfile.quadratic(0.5))
        for k in (0, 5):
            with pytest.raises(StructuralError, match="rows"):
                projection_norm_samples(pi, k, 10, 0)
        assert np.array_equal(projection_norm_samples(pi, np.int64(2), 10, 0),
                              projection_norm_samples(pi, 2, 10, 0))


class TestDataMixture:
    def test_structural_errors(self):
        with pytest.raises(StructuralError, match="dimension"):
            MultiModalData(4, 50.0, 0.02, 0.05, modes=(ModeSpec(np.zeros(3), 1.0, 0.5),))
        with pytest.raises(StructuralError):
            ModeSpec(np.ones(3), 1.0, 0.0)  # nonpositive weight
        with pytest.raises(StructuralError):
            ModeSpec(np.ones(3), -1.0, 0.5)
        with pytest.raises(StructuralError, match="sum"):
            MultiModalData(
                3, 50.0, 0.02, 0.05,
                modes=(ModeSpec(np.ones(3), 1.0, 0.7), ModeSpec(2 * np.ones(3), 1.0, 0.7)),
            )
        with pytest.raises(StructuralError):
            single_mode_spec(R=1.5)

    def test_default_bulk_scale_tail_safe(self):
        for d in (2, 16, 256):
            spec = single_mode_spec(d=d)
            # bulk mass outside B(0, R(1+2delta)) must be far below eps/2
            z = (spec.R * (1 + 2 * spec.delta) / spec.bulk_scale) ** 2
            outside = spec.bulk_weight * gammaincc(d / 2, z / 2)
            assert outside < spec.eps / 20

    def test_degenerate_mode(self):
        center = np.array([3.0, 4.0, 0.0])
        spec = MultiModalData(3, 4.0, 0.25, 0.1, modes=(ModeSpec(center, 0.0, 1.0),))
        pts = spec.sample(100, 3)
        assert np.allclose(pts, center)

    def test_two_mode_weights_concentrate(self):
        d, n = 2, 1_000_000
        c1 = np.array([60.0, 0.0])
        c2 = np.array([-55.0, 0.0])
        spec = MultiModalData(
            d, 58.8, 0.02, 0.05,
            modes=(ModeSpec(c1, 1.0, 0.5), ModeSpec(c2, 1.0, 0.5)),
        )
        pts = spec.sample(n, 11)
        frac1 = np.mean(pts[:, 0] > 0)
        assert abs(frac1 - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_mode_mass_binomial(self):
        spec = single_mode_spec()
        n = 200_000
        pts = spec.sample(n, 13)
        mode = spec.designated_mode
        inside = np.mean(np.linalg.norm(pts - mode.center, axis=1) <= mode.radius)
        se = math.sqrt(0.5 * 0.5 / n)
        assert abs(inside - mode.weight) <= 3 * se

    def test_truncated_gaussian_mode(self):
        spec = single_mode_spec(d=8, mode_kind="truncated-gaussian", b_rho=1.0)
        pts = spec.sample(5000, 17)
        mode = spec.designated_mode
        assert np.all(np.linalg.norm(pts - mode.center, axis=1) <= mode.radius + 1e-9)
        assert np.array_equal(pts, spec.sample(5000, 17))

    def test_sampler_determinism(self):
        spec = single_mode_spec(d=4)
        assert np.array_equal(spec.sample(3000, 2), spec.sample(3000, 2))

    def test_mass_within_origin_ball(self):
        spec = single_mode_spec(d=6)
        ball = spec.R * (1 + 2 * spec.delta)
        mass = spec.mass_within_origin_ball(ball)
        pts = spec.sample(200_000, 19)
        mc = np.mean(np.linalg.norm(pts, axis=1) <= ball)
        assert abs(mass - mc) <= 4 * math.sqrt(0.25 / pts.shape[0]) + 1e-12
        # a straddling mode reads its own law of |x|
        straddle = MultiModalData(
            3, 5.0, 0.2, 0.1, modes=(ModeSpec(np.array([5.0, 0.0, 0.0]), 1.0, 1.0),)
        )
        assert abs(straddle.mass_within_origin_ball(5.0) - 37 / 80) <= 1e-12


def two_mode_spec(rng, d, mode_kind, bulk_scale):
    """Designated mode on the first axis plus a second, off-axis mode and the bulk."""
    far = np.zeros(d)
    far[0] = 10.0 * 1.3
    near = 4.0 * rng.standard_normal(d)
    return MultiModalData(
        d, 10.0, 0.3, 0.05,
        modes=(ModeSpec(far, 3.0, 0.5), ModeSpec(near, 2.0, 0.2)),
        bulk_scale=bulk_scale, mode_kind=mode_kind,
    )


class TestSampleCoefficientsOneRow:
    """The k = 1 case: <x, u> for a single unit direction u."""

    @staticmethod
    def spec_and_direction(d, mode_kind, bulk_scale):
        rng = np.random.default_rng(d)
        spec = two_mode_spec(rng, d, mode_kind, bulk_scale)
        if d == 1:
            return spec, np.array([-1.0])
        u = rng.standard_normal(d) + spec.mode_direction
        return spec, u / np.linalg.norm(u)

    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    @pytest.mark.parametrize("bulk_scale", [None, 0.0])
    def test_matches_full_dimensional_sampler(self, d, mode_kind, bulk_scale):
        spec, u = self.spec_and_direction(d, mode_kind, bulk_scale)
        n = 20_000
        fast = spec.sample_coefficients(n, u[None, :], 31)[:, 0]
        oracle = reference_sample(spec, n, 32) @ u
        assert ks_2samp(fast, oracle).pvalue > 1e-3

    def test_point_masses(self):
        # zero mode radius and zero bulk scale: the projection takes exactly
        # the values <center, u> and 0
        center = np.array([3.0, 4.0, 0.0])
        spec = MultiModalData(3, 4.0, 0.25, 0.1, modes=(ModeSpec(center, 0.0, 0.6),),
                              bulk_scale=0.0)
        u = np.array([[0.6, 0.0, 0.8]])
        vals = spec.sample_coefficients(10_000, u, 5)[:, 0]
        at_mode = np.isclose(vals, 1.8, rtol=0, atol=1e-12)
        assert np.all(at_mode | (vals == 0.0))
        assert abs(np.mean(at_mode) - 0.6) <= 4 * math.sqrt(0.24 / 10_000)

    def test_truncated_support_and_determinism(self):
        spec = single_mode_spec(d=8, mode_kind="truncated-gaussian", b_rho=1.0)
        u = spec.mode_direction[None, :]
        vals = spec.sample_coefficients(5000, u, 17)
        mode = spec.designated_mode
        assert np.all(np.abs(vals - mode.distance) <= mode.radius + 1e-9)
        assert np.array_equal(vals, spec.sample_coefficients(5000, u, 17))
        assert spec.sample_coefficients(0, u, 17).shape == (0, 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_truncated_acceptance_event(self, k):
        # the truncation is too rare to show in a KS test, so script the draws:
        # (z_k, w) is rejected when |z_k|^2 + w exceeds (radius/sigma)^2 = 25
        class ScriptedRng:
            def __init__(self, normals, chisq):
                self.normals, self.chisq = list(normals), list(chisq)

            def standard_normal(self, shape):
                out = np.array(self.normals.pop(0), dtype=float)
                assert out.shape == shape
                return out

            def chisquare(self, df, n):
                assert df == 4 - k
                return np.array(self.chisq.pop(0), dtype=float)

        # the third draw splits |z_k|^2 = 1 over both coordinates when k = 2
        first = [[1.0], [4.9], [1.0]] if k == 1 else [[1.0, 0.0], [4.9, 0.0], [0.6, 0.8]]
        redraw = [[0.5], [-0.5]] if k == 1 else [[0.5, 0.0], [-0.5, 0.0]]
        spec = single_mode_spec(d=4, mode_kind="truncated-gaussian")
        sigma = spec.designated_mode.radius / 5.0
        rng = ScriptedRng(normals=[first, redraw], chisq=[[1.0, 1.0, 24.5], [3.0, 3.0]])
        got = spec._mode_offset_coefficients(rng, spec.designated_mode, 3, k)
        expect = np.zeros((3, k))
        expect[:, 0] = [1.0, 0.5, -0.5]
        assert np.allclose(got, sigma * expect, rtol=1e-15)

    def test_basis_validation(self):
        spec = single_mode_spec(d=4)
        with pytest.raises(StructuralError, match="unit"):
            spec.sample_coefficients(10, np.ones((1, 4)), 0)
        with pytest.raises(StructuralError, match="shape"):
            spec.sample_coefficients(10, np.array([[1.0, 0.0, 0.0]]), 0)
        with pytest.raises(StructuralError, match="shape"):
            spec.sample_coefficients(10, np.array([1.0, 0.0, 0.0, 0.0]), 0)
        with pytest.raises(StructuralError, match="rows"):
            spec.sample_coefficients(10, np.zeros((0, 4)), 0)


class TestSampleCoefficients:
    """k >= 2 coefficients against the d-dimensional sampler projected on the basis."""

    @staticmethod
    def spec_and_basis(d, mode_kind, bulk_scale, k):
        rng = np.random.default_rng(d)
        spec = two_mode_spec(rng, d, mode_kind, bulk_scale)
        # a generic orthonormal basis whose first row leans toward the far mode
        a = rng.standard_normal((d, k))
        a[:, 0] += 3.0 * spec.mode_direction
        q, _ = np.linalg.qr(a)
        return spec, q.T

    # d = 3 with k = 3 is the k = d case, which draws no chi-square
    @pytest.mark.parametrize("d", [3, 4, 16, 64])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    @pytest.mark.parametrize("bulk_scale", [None, 0.0])
    def test_matches_full_dimensional_sampler(self, d, mode_kind, bulk_scale):
        k = 3
        spec, basis = self.spec_and_basis(d, mode_kind, bulk_scale, k)
        n = 20_000
        fast = spec.sample_coefficients(n, basis, 41)
        oracle = reference_sample(spec, n, 42) @ basis.T
        assert fast.shape == (n, k)
        for f, o in ((np.linalg.norm(fast, axis=1), np.linalg.norm(oracle, axis=1)),
                     (fast[:, 0], oracle[:, 0]), (fast[:, k - 1], oracle[:, k - 1])):
            assert ks_2samp(f, o).pvalue > 1e-3

    def test_full_basis_offsets_fill_the_ball(self):
        # k = d: the coefficients are x itself in rotated coordinates, so the
        # uniform ball's offsets stay inside the ball and reach its boundary
        d = 3
        spec = single_mode_spec(d=d, bulk_scale=0.0, b_rho=1.0)
        rot, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((d, d)))
        c = spec.sample_coefficients(20_000, rot.T, 9)
        offset = np.linalg.norm(c - rot.T @ spec.designated_mode.center, axis=1)
        mode = spec.designated_mode
        assert np.all(offset <= mode.radius * (1 + 1e-12))
        assert offset.max() > 0.99 * mode.radius


class TestMixtureSample:
    """Full points: the per-mode coefficient draw at k = d."""

    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_matches_reference_sampler(self, d, mode_kind):
        # zero bulk scale makes the bulk an atom at 0, so every point of the
        # mixture has a known support: one of the two balls or the origin
        spec, u = TestSampleCoefficientsOneRow.spec_and_direction(d, mode_kind, 0.0)
        n = 20_000
        x = spec.sample(n, 51)
        oracle = reference_sample(spec, n, 52)
        assert x.shape == (n, d)
        far = spec.designated_mode.center
        for f, o in ((np.linalg.norm(x - far, axis=1), np.linalg.norm(oracle - far, axis=1)),
                     (x @ u, oracle @ u)):
            assert ks_2samp(f, o).pvalue > 1e-3
        inside = [np.linalg.norm(x - m.center, axis=1) <= m.radius * (1 + 1e-12)
                  for m in spec.modes]
        assert np.all(np.logical_or.reduce(inside) | np.all(x == 0.0, axis=1))

    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_is_the_identity_basis_case(self, mode_kind):
        spec = two_mode_spec(np.random.default_rng(5), 5, mode_kind, None)
        assert np.array_equal(spec.sample(3000, 8), spec.sample_coefficients(3000, np.eye(5), 8))
        assert spec.sample(0, 8).shape == (0, 5)


def weighted_spec(mode_weights, d=3):
    """Modes of the given weights on distinct axes, the bulk taking the rest."""
    modes = tuple(ModeSpec(np.eye(d)[i % d] * (4.0 + i), 1.0, w)
                  for i, w in enumerate(mode_weights))
    return MultiModalData(d, 3.0, 0.2, 0.1, modes=modes)


# SHA-256 of the sample bytes at seed 29: sample, then sample_coefficients on
# the first axis, for the two-mode mixture of sampled_bytes_spec
SAMPLE_BYTES = {
    (2, "uniform-ball"): (
        "394b737c25cb6db8bf6667fb90fc438227ecf534bd103a9ef9f072ff8ee0c2d5",
        "4265066d89f3e2e282b2647d7a80efdfe278b3f71459344704cc8fffda94dd6a"),
    (2, "truncated-gaussian"): (
        "9f6abcf5755e9fa469cbcf6cc5c1269055d52ec32c28ff571c00988bc730426f",
        "e9cd103a49b6a02d93beadc5711332d48118c532be51c5257c61425e6f97b33d"),
    (7, "uniform-ball"): (
        "2d8bd3b19ea763f4fe70e8a777fc7a85c0a46c3a65a9de84780d8ffe4166a35d",
        "e4fcb8105023f166c5b69c6bb47049985aeee5a6ba98e1513afd2fe83dbd287a"),
    (7, "truncated-gaussian"): (
        "532663c16e859489a77cf2ad1d20ba1dfcce0b105685ad233d34cb434e8ab6d9",
        "ae5cc7d6c7a093a3e8041f5964bffc0ae8927027a3738cc5804b1262086d259e"),
}


def sampled_bytes_spec(d, mode_kind):
    far, near = np.zeros(d), np.zeros(d)
    far[0], near[-1] = 13.0, -4.0
    return MultiModalData(d, 10.0, 0.3, 0.05, mode_kind=mode_kind,
                          modes=(ModeSpec(far, 3.0, 0.5), ModeSpec(near, 2.0, 0.2)))


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestComponentDraw:
    """The component draw compares one uniform per draw with the cumulative
    weights; oracle: ``Generator.choice`` on a twin substream."""

    @pytest.mark.parametrize("mode_weights", [
        (1e-9,), (0.3, 1e-9), (1e-9, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4 - 1e-9),
        (1e-9, 1.0 - 1e-9),  # the bulk's weight is 0: an empty component
    ])
    @pytest.mark.parametrize("n", [1, 7, 100_000])
    def test_same_draws_as_choice(self, mode_weights, n):
        spec = weighted_spec(mode_weights)
        w = spec._component_weights()
        for seed in range(5):
            mine, twin = substream((seed, 1)), substream((seed, 1))
            comp = spec._components(mine, n)
            assert np.array_equal(comp, twin.choice(len(w), size=n, p=w))
            # both leave the stream at the same point
            assert mine.random() == twin.random()

    @pytest.mark.parametrize("key", sorted(SAMPLE_BYTES))
    def test_sample_bytes_are_pinned(self, key):
        spec, u = sampled_bytes_spec(*key), np.eye(key[0])[:1]
        assert (sha256(spec.sample(3000, 29)), sha256(spec.sample_coefficients(3000, u, 29))) \
            == SAMPLE_BYTES[key]

    def test_spherical_sample_bytes_are_pinned(self):
        x = SphericalMeasure(6, RadialProfile.power_tail(0.6, 1.0)).sample(2000, 3)
        assert sha256(x) == "4356e751f01602789622aa26545533674eecdfeea79a793b07ec7bfb5b287fc6"


def straddling_spec(d, mode_kind="uniform-ball", weight=1.0, distance=5.0, radius=1.0, R=5.0):
    """One mode of the given radius at the given distance on the first axis;
    the bulk, if any, is a point mass at the origin."""
    center = np.zeros(d)
    center[0] = distance
    return MultiModalData(d, R, 0.2, 0.1, modes=(ModeSpec(center, radius, weight),),
                          bulk_scale=0.0, mode_kind=mode_kind)


def straddling_tail_oracle(spec, ball):
    """Mass outside B(0, ball) of a one-mode mixture whose mode straddles the
    ball, by closed forms: the bulk's is its weight times P(chi2_d > z^2), and
    the mode's a 1-D integral over the offset length s, where the share of
    directions outside, P(V > v*(s)) for V the first coordinate of a uniform
    point on S^(d-1), is a Beta((d-1)/2, (d-1)/2) tail."""
    d, mode = spec.d, spec.modes[0]
    a, rho = mode.distance, mode.radius
    z = ball / spec.bulk_scale
    bulk = spec.bulk_weight * gammaincc(d / 2, z * z / 2)
    if spec.mode_kind == "uniform-ball":
        density = lambda s: d * s ** (d - 1) / rho ** d
    else:
        sigma = rho / (math.sqrt(d) + 3)
        norm = gammainc(d / 2, (rho / sigma) ** 2 / 2)
        density = lambda s: chi.pdf(s / sigma, d) / sigma / norm
    half = (d - 1) / 2
    share = lambda s: betainc(half, half, (1 - (ball ** 2 - a ** 2 - s ** 2) / (2 * a * s)) / 2)
    outside, _ = quad(lambda s: density(s) * share(s), ball - a, rho, epsabs=0.0, epsrel=1e-12)
    return bulk + mode.weight * outside


class TestMassWithinOriginBall:
    @pytest.mark.parametrize("distance, radius, ball, lens", [
        (5.0, 1.0, 5.0, 37 / 80),
        (9.0, 2.0, 10.0, 105 / 128),
    ])
    def test_uniform_ball_lens_closed_form(self, distance, radius, ball, lens):
        # at d = 3 the mass inside is the volume of the lens the two spheres
        # cut out, over the mode's volume
        spec = straddling_spec(3, distance=distance, radius=radius, R=ball)
        assert abs(spec.mass_within_origin_ball(ball) - lens) <= 1e-12

    def test_straddling_mass_far_below_the_rounding_of_one(self):
        # a ball of radius 1 at distance 5 against B(0, 5) at d = 1e5 puts a lens
        # of mass about 4e-221 inside, where 1 - P(|x| > 5) reads 1e-16; the
        # Gaussian bulk of scale 1 holds no float mass inside at this d
        d = 100_000
        center = np.zeros(d)
        center[0] = 5.0
        spec = MultiModalData(d, 5.0, 0.2, 0.1, modes=(ModeSpec(center, 1.0, 0.5),),
                              bulk_scale=1.0)
        mass = spec.mass_within_origin_ball(5.0)
        assert 0.0 < mass < 1e-200
        # the mode's radius S has density d s^(d-1), and at S = s the share of
        # directions inside is P(V <= -s/10) = I_{1/2 - s/20}((d-1)/2, (d-1)/2)
        half = (d - 1) / 2.0
        lens, _ = quad(lambda s: d * s ** (d - 1) * betainc(half, half, 0.5 - s / 20.0),
                       0.99, 1.0, epsabs=0.0, epsrel=1e-10, points=[0.999, 0.9999], limit=200)
        assert mass == pytest.approx(0.5 * lens, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_straddling_mode_matches_sampling(self, d, mode_kind):
        # the share of 4e5 mixture draws inside B(0, 5), drawn 1e5 at a time
        spec = straddling_spec(d, mode_kind)
        n, chunk = 400_000, 100_000
        inside = sum(int(np.sum(np.linalg.norm(spec.sample(chunk, (63, j)), axis=1) <= 5.0))
                     for j in range(n // chunk))
        share = inside / n
        se = math.sqrt(share * (1 - share) / n)
        assert 0.0 < share < 1.0
        assert abs(spec.mass_within_origin_ball(5.0) - share) <= 4 * se

    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_continuous_and_monotone_across_the_branches(self, d, mode_kind):
        # the straddling law meets the closed-form branches at both ends: the
        # mass rises from the bulk's 0.3 at distance - radius to 1 at distance + radius
        spec = straddling_spec(d, mode_kind, weight=0.7)
        masses = [spec.mass_within_origin_ball(r) for r in np.linspace(3.9, 6.1, 221)]
        assert all(b - a >= -1e-15 for a, b in zip(masses, masses[1:]))
        assert masses[0] == pytest.approx(0.3, abs=1e-15) and masses[-1] == 1.0
        assert abs(spec.mass_within_origin_ball(4.0 * (1 + 1e-9)) - 0.3) <= 1e-8
        assert abs(spec.mass_within_origin_ball(6.0 * (1 - 1e-9)) - 1.0) <= 1e-8

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_few_row_laws_match_sampling(self, k, mode_kind):
        # V = +-1 at k = 1 and the arcsine law at k = 2, both halves of beyond,
        # against 2e5 exact draws of the coefficients
        spec = two_mode_spec(np.random.default_rng(4), 6, mode_kind, 2.0)
        basis = np.linalg.qr(np.random.default_rng(5).standard_normal((6, k)))[0].T
        norms = np.linalg.norm(spec.sample_coefficients(200_000, basis, 64), axis=1)
        h = lambda g: 1.0 / np.sqrt(1.0 + g * g)
        laws = spec.norm_laws(basis)
        for q in (1.0, 4.0, 8.0):
            beyond = [(w * law.beyond(q)[0], w * law.beyond(q, h)[1]) for w, law in laws]
            for exact, sample in zip(np.sum(beyond, axis=0), (norms > q, (norms > q) * h(norms))):
                se = sample.std() / math.sqrt(len(sample))
                assert abs(exact - sample.mean()) <= 4 * se + 1e-12, (q, exact, sample.mean())

    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_memory_does_not_grow_with_d(self, mode_kind):
        spec = straddling_spec(100_000, mode_kind)
        tracemalloc.start()
        try:
            mass = spec.mass_within_origin_ball(5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 <= mass <= 1.0
        assert peak < 50e6, peak

    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_straddling_mode_draws_nothing(self, monkeypatch, mode_kind):
        # a designated mode of radius 2 at 51 sticks out of B(0, 52)
        center = np.zeros(8)
        center[0] = 51.0
        spec = MultiModalData(8, 50.0, 0.02, 0.05, modes=(ModeSpec(center, 2.0, 0.5),),
                              mode_kind=mode_kind)
        mass = spec.mass_within_origin_ball(52.0)

        def no_draws(seed):
            raise AssertionError("the ball mass drew random numbers")

        monkeypatch.setattr(measures, "substream", no_draws)
        assert spec.mass_within_origin_ball(52.0) == mass < 1.0
        tail = {c.name: c for c in validate_data_spec(spec)}["tail-mass"]
        assert tail.value == pytest.approx(straddling_tail_oracle(spec, 52.0), rel=1e-12, abs=0.0)
        assert abs(tail.value - (1.0 - mass)) <= 1e-15
        upper, = ou_tv_upper_bound(1.0, spec, [2.0])
        assert math.isfinite(upper)


def point_mode_spec(d, distance, bulk_scale, weight=0.25):
    """A point mode of the given weight at the given distance, plus the bulk
    N(0, bulk_scale^2 I_d)."""
    center = np.zeros(d)
    center[0] = distance
    return MultiModalData(d, 50.0, 0.02, 0.05, modes=(ModeSpec(center, 0.0, weight),),
                          bulk_scale=bulk_scale)


class TestBallMassFromEachSide:
    """Each side of a ball's mass is summed over the components' laws of |x|
    from its own side, so neither is read as 1 minus the other."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64, 100_000])
    def test_bulk_sides_are_the_chi_square_law(self, d):
        # |bulk|^2 / bulk_scale^2 is chi2_d; with the point mode at the origin
        # the outside is 0.75 P(chi2_d > z^2), in full digits where the inside
        # rounds to 1, and the inside 0.25 + 0.75 P(chi2_d <= z^2)
        spec = point_mode_spec(d, 0.0, 0.5)
        for t in (1e-3, 0.7, 1.0, 1.4, 2.0, 2.9):
            # the squared ratio as the law forms it: deep in the tail a relative
            # rounding of z^2 moves the tail z^2/2 times as much
            radius = 0.5 * t * math.sqrt(d + 50.0)
            z2 = (radius / 0.5) * (radius / 0.5)
            inside = 0.25 + 0.75 * gammainc(d / 2, z2 / 2)
            outside = 0.75 * gammaincc(d / 2, z2 / 2)
            assert spec.mass_within_origin_ball(radius) == pytest.approx(inside, rel=1e-14)
            assert spec._mass_outside_origin_ball(radius) == pytest.approx(outside, rel=1e-14,
                                                                           abs=0.0)

    def test_bulk_tail_keeps_its_digits(self):
        # at d = 2 the bulk's tail is exp(-r^2/2): 0.5 exp(-72) at r = 12, far
        # below the rounding of 1 minus the inside
        spec = point_mode_spec(2, 1.0, 1.0, weight=0.5)
        assert spec._mass_outside_origin_ball(12.0) == pytest.approx(0.5 * math.exp(-72.0),
                                                                     rel=1e-13, abs=0.0)
        assert 0.0 <= 1.0 - spec.mass_within_origin_ball(12.0) <= 2.3e-16
        assert spec.mass_within_origin_ball(0.0) == 0.0

    def test_bulk_inside_against_quadrature(self):
        # the chi2_3 density integrated to 3.5
        pdf = lambda x: math.sqrt(x) * math.exp(-x / 2) / (2 ** 1.5 * math.gamma(1.5))
        oracle = quad(pdf, 0, 3.5, epsabs=0.0, epsrel=1e-13)[0]
        spec = point_mode_spec(3, 1e3, 1.0)
        assert spec.mass_within_origin_ball(math.sqrt(3.5)) == pytest.approx(0.75 * oracle,
                                                                               rel=1e-13, abs=0.0)

    def test_bulk_inside_is_a_cdf(self):
        spec = point_mode_spec(7, 1e3, 1.0)
        masses = [spec.mass_within_origin_ball(r) for r in np.linspace(0.0, 9.0, 200)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert masses[0] == 0.0 and masses[-1] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 3, 16, 100_000])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_whole_support_inside_reads_exactly_one(self, d, mode_kind):
        # a mode of radius 1 at distance 5 and the point-mass bulk against
        # balls that hold them whole, the tangent one included
        spec = straddling_spec(d, mode_kind, weight=0.7)
        mode, bulk = spec._laws(d, [5.0])
        for ball in (6.0, 6.5, 1e6):
            assert mode.within(ball) == 1.0 and mode.beyond(ball)[0] == 0.0
            assert bulk.within(ball) == 1.0 and bulk.beyond(ball)[0] == 0.0
            assert spec.mass_within_origin_ball(ball) == 1.0
            assert spec._mass_outside_origin_ball(ball) == 0.0

    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_sides_sum_to_one(self, d, mode_kind):
        spec = two_mode_spec(np.random.default_rng(6), d, mode_kind, 2.0)
        for ball in np.linspace(0.5, 20.0, 40):
            total = spec.mass_within_origin_ball(ball) + spec._mass_outside_origin_ball(ball)
            assert abs(total - 1.0) <= 1e-14, ball


class TestValidateDataSpec:
    def test_compliant_spec_passes(self):
        # point-mass bulk at the origin satisfies every inequality by design
        spec = single_mode_spec(d=8, bulk_scale=0.0)
        report = validate_data_spec(spec)
        assert all(c.passed for c in report), [c for c in report if not c.passed]

    def test_mode_mass_failure(self):
        spec = single_mode_spec(b_rho=0.1, eps=0.05)
        report = validate_data_spec(spec)
        by_name = {c.name: c for c in report}
        assert not by_name["mode-mass"].passed  # 0.1 < 3 * 0.05

    def test_tail_failure_against_chi_square_oracle(self):
        # bulk scale c = R pushes well over eps/2 of mass outside B(0, R(1+2delta))
        d, R, delta, eps = 2, 50.0, 0.01, 0.05
        spec = single_mode_spec(d=d, R=R, delta=delta, eps=eps, bulk_scale=R)
        escape_oracle = spec.bulk_weight * (1.0 - chi2.cdf((1 + 2 * delta) ** 2, d))
        assert escape_oracle > eps / 2  # the configuration is genuinely bad
        report = validate_data_spec(spec)
        by_name = {c.name: c for c in report}
        tail = by_name["tail-mass"]
        assert not tail.passed
        assert abs(tail.value - escape_oracle) <= 1e-3

    @pytest.mark.parametrize("d", [2, 8, 256, 100_000])
    @pytest.mark.parametrize("mode_kind", ["uniform-ball", "truncated-gaussian"])
    def test_tail_mass_is_the_chi_square_closed_form(self, monkeypatch, d, mode_kind):
        # a bulk scale that puts 4% of the bulk outside B(0, R(1+2delta)):
        # 0.02 of the mixture, below eps/2 = 0.025
        ball = 50.0 * 1.04
        spec = single_mode_spec(d=d, mode_kind=mode_kind,
                                bulk_scale=ball / math.sqrt(chi2.isf(0.04, d)))
        oracle = spec.bulk_weight * (1.0 - chi2.cdf((ball / spec.bulk_scale) ** 2, d))

        def no_draws(seed):
            raise AssertionError("validate_data_spec drew random numbers")

        monkeypatch.setattr(measures, "substream", no_draws)
        tail = {c.name: c for c in validate_data_spec(spec)}["tail-mass"]
        assert abs(tail.value - oracle) <= 1e-12
        assert tail.passed and tail.threshold == spec.eps / 2

    @pytest.mark.parametrize("d", [256, 100_000])
    def test_memory_does_not_grow_with_d(self, d):
        spec = single_mode_spec(d=d)
        tracemalloc.start()
        try:
            report = validate_data_spec(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in report)
        assert peak < 50e6, peak

    def test_distance_check(self):
        center = np.zeros(4)
        center[0] = 49.0  # should be R(1+delta) = 51
        spec = MultiModalData(4, 50.0, 0.02, 0.05, modes=(ModeSpec(center, 1.0, 0.5),))
        report = validate_data_spec(spec)
        by_name = {c.name: c for c in report}
        assert not by_name["furthest-mode-distance"].passed


def counted_tail_evaluations(fn):
    """fn()'s result and the number of tail evaluations it made, counted on
    the evaluator that :func:`projection_quantile` reads."""
    real, calls = measures._tail_slope, []

    def counted(pi, k, q):
        calls.append(q)
        return real(pi, k, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_tail_slope", counted)
        out = fn()
    return out, len(calls)


# r_k at a = 0.6, k = 3, eps = 0.05 from the regula-falsi (Illinois) search the
# Newton search replaced: the benchmark's d = 16 and larger d, and the golden
# lowerbound config at d = 8
BRACKETED_R_K = {
    (16, 1.0): 22.21980008598252,
    (16, 2.0): 2.964850137372852,
    (256, 1.0): 82.04160779430974,
    (1024, 2.0): 2.9648501373729004,
    (100_000, 1.0): 1611.4782670338398,
    (8, 1.0): 16.803408069232074,
}


class TestProjectionQuantile:
    @pytest.mark.parametrize("d, p", list(BRACKETED_R_K))
    def test_root_within_4_ulp_of_the_bracketed_search(self, d, p):
        want = BRACKETED_R_K[d, p]
        r = projection_quantile(SphericalMeasure(d, RadialProfile.power_tail(0.6, p)), 3, 0.05).r
        assert abs(r - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("d, q", [(16, 2.0), (16, 5.0), (300, 5.0), (3000, 5.0),
                                      (16, 10.0), (3000, 10.0), (300, 10.0)])
    def test_half_step_rule_tracks_the_tails_error(self, d, q):
        # p = 2, a = 1: 2 |G_3|^2 is chi2_3 in every d.  Where the 97-node tail
        # is right, the 49-node rule on every other node agrees with it to
        # 5e-8; at d = 300, q = 10 the tail is 11.5% low and they differ by 3.9%
        pi = SphericalMeasure(d, RadialProfile.quadratic(1.0))
        tail, _, coarse = measures._tail_slope(pi, 3, q)
        error, gap = tail / chi2.sf(2.0 * q * q, 3) - 1.0, abs(coarse / tail - 1.0)
        if (d, q) == (300, 10.0):
            assert error < -0.1 and gap > 1e-2
        else:
            assert abs(error) < 5e-8 and gap < 5e-8

    def test_unresolved_far_tail_raises(self):
        pi = SphericalMeasure(300, RadialProfile.quadratic(1.0))
        with pytest.raises(DomainError, match=r"d = 300, p = 2, eps = 1e-40"):
            projection_quantile(pi, 3, 1e-40)
        assert projection_quantile(pi, 3, 1e-6).ball_radius == pytest.approx(
            math.sqrt(chi2.isf(5e-7, 3) / 2.0), rel=1e-12)

    def test_evaluations_at_the_benchmark_config(self):
        pi = SphericalMeasure(16, RadialProfile.power_tail(0.6, 1.0))
        _, calls = counted_tail_evaluations(lambda: projection_quantile(pi, 3, 0.05))
        assert calls <= 8

    @pytest.mark.parametrize("d", [3, 4, 16, 300, 100_000])
    def test_gaussian_closed_form(self, d):
        # for N(0, I/mu), q^2 * mu is the chi2(3) quantile at 1 - eps/2, in every d
        mu, eps = 2.0, 0.05
        pi = SphericalMeasure(d, RadialProfile.quadratic(mu / 2.0))
        est = projection_quantile(pi, 3, eps)
        expected_q = math.sqrt(chi2.ppf(1 - eps / 2, 3) / mu)
        assert est.ball_radius == pytest.approx(expected_q, rel=1e-12)
        assert est.r == pytest.approx(math.sqrt(1 + expected_q**2), rel=1e-12)

    @pytest.mark.parametrize("p, d", [(0.5, 4), (1.0, 16), (1.4, 300), (2.0, 3000)])
    def test_tail_at_the_quantile_is_half_eps(self, p, d):
        pi = SphericalMeasure(d, RadialProfile.power_tail(0.7, p))
        for eps in (0.01, 0.1, 0.5):
            q = projection_quantile(pi, 3, eps).ball_radius
            assert abs(projection_tail(pi, 3, q) - eps / 2) <= 1e-12

    @pytest.mark.parametrize("p, d", [(1.0, 16), (0.6, 300)])
    def test_sampled_norms_agree(self, p, d):
        # the share of exact draws of |G_k| at or below q is 1 - eps/2
        # within 4 binomial standard errors
        eps, n = 0.05, 200_000
        pi = SphericalMeasure(d, RadialProfile.power_tail(0.6, p))
        q = projection_quantile(pi, 3, eps).ball_radius
        se = math.sqrt(eps / 2 * (1 - eps / 2) / n)
        for seed in (1, 2, 3):
            share = np.mean(projection_norm_samples(pi, 3, n, seed) <= q)
            assert abs(share - (1 - eps / 2)) <= 4 * se, seed

    @pytest.mark.parametrize("p", [0.1, 1.0, 2.0])
    def test_finite_and_monotone_at_large_d(self, p):
        pi = SphericalMeasure(100_000, RadialProfile.power_tail(1.0, p))
        est, calls = counted_tail_evaluations(lambda: projection_quantile(pi, 3, 0.05))
        q = est.ball_radius
        assert math.isfinite(q) and q > 0 and calls <= 16
        tails = [projection_tail(pi, 3, q * f) for f in np.linspace(0.5, 1.5, 41)]
        assert all(math.isfinite(t) and 0.0 <= t <= 1.0 for t in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert tails[0] > 0.025 > tails[-1]

    def test_heavy_tail_beyond_sqrt_dbl_max(self):
        # q is far past sqrt(DBL_MAX), where q^2 overflows; the tail still reads eps/2
        pi = SphericalMeasure(4, RadialProfile.power_tail(1.0, 0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = projection_quantile(pi, 3, 0.1)
            tail = projection_tail(pi, 3, est.ball_radius)
        assert math.isfinite(est.ball_radius) and est.ball_radius > 1e200
        assert est.r == est.ball_radius  # sqrt(1 + q^2) rounds to q
        assert abs(tail / 0.05 - 1.0) <= 1e-12

    def test_radial_bracket_out_of_float_range(self):
        # at d = 30 the (1 - eps/2)-quantile of |x| itself exceeds DBL_MAX
        pi = SphericalMeasure(30, RadialProfile.power_tail(1.0, 0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"d = 30, p = 0\.01"):
                projection_quantile(pi, 3, 0.1)

    def test_ignores_sample_count(self):
        pi = SphericalMeasure(30, RadialProfile.power_tail(1.0, 1.4))
        assert projection_quantile(pi, 3, 0.1) == projection_quantile(pi, 3, 0.1, n=1000)

    def test_errors(self):
        pi = SphericalMeasure(4, RadialProfile.quadratic(0.5))
        with pytest.raises(StructuralError):
            projection_quantile(pi, 5, 0.1)  # k > d
        with pytest.raises(StructuralError):
            projection_quantile(pi, 2, 0.1)  # k < 3
        for eps in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                projection_quantile(pi, 3, eps)

    def test_rotation_invariance(self):
        # projecting rotated samples agrees with the coordinate projection
        # within Monte-Carlo error, paired over repeated seeds
        d, k, n, lev = 8, 3, 20_000, 0.95
        pi = SphericalMeasure(d, RadialProfile.power_tail(1.0, 1.3))
        rng = np.random.default_rng(123)
        q_rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        j = int(math.ceil(lev * n))
        diffs = []
        for seed in range(10):
            x = pi.sample(n, seed)
            q1 = np.sort(np.linalg.norm(x[:, :k], axis=1))[j - 1]
            q2 = np.sort(np.linalg.norm((x @ q_rot)[:, :k], axis=1))[j - 1]
            diffs.append(q1 - q2)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 3 * se + 1e-12


class TestProjectionTail:
    def test_full_projection_is_the_radial_tail(self):
        pi = SphericalMeasure(5, RadialProfile.power_tail(0.8, 1.3))
        for q in (0.5, 2.0, 6.0):
            assert projection_tail(pi, 5, q) == gammaincc(5 / 1.3, 0.8 * q**1.3)

    @pytest.mark.parametrize("k, d", [(1, 2), (3, 4), (3, 5), (3, 16), (7, 300), (3, 100_000)])
    def test_gaussian_is_chi_square(self, k, d):
        # from the bulk (where d - k = 1 puts a boundary layer at w = W) to the far tail
        mu = 1.5
        pi = SphericalMeasure(d, RadialProfile.quadratic(mu / 2.0))
        for q in np.geomspace(1e-3, 200.0, 60):
            assert abs(projection_tail(pi, k, q) - chi2.sf(mu * q * q, k)) <= 2e-14, q

    @pytest.mark.parametrize("d, p, q, tail_max", [
        (4, 2.0, 1.0, 1.0),  # d - k = 1: the Beta density diverges at B = 1
        (5, 1.0, 7.5, 1.0),
        (16, 1.0, 12.0, 1.0),
        (16, 1.0, 620.0, 1e-250),
        (300, 1.4, 7.5, 1.0),
        (100_000, 0.5, 3.5e8, 1.0),
        (4, 0.01, 4e263, 1.0),  # past sqrt(DBL_MAX), where q^2 overflows
    ])
    def test_slope_is_the_tails_central_difference(self, d, p, q, tail_max):
        pi = SphericalMeasure(d, RadialProfile.power_tail(1.0, p))
        tail, slope, _ = measures._tail_slope(pi, 3, q)
        h = 1e-6 * q
        diff = (projection_tail(pi, 3, q + h) - projection_tail(pi, 3, q - h)) / (2.0 * h)
        assert 0.0 < tail < tail_max
        assert slope < 0.0 and math.isfinite(slope)
        assert abs(slope / diff - 1.0) <= 1e-6

    @pytest.mark.parametrize("k, d", [(3, 4), (3, 16), (7, 300), (3, 100_000)])
    def test_slope_evaluator_reads_the_tail_bit_for_bit(self, k, d):
        pi = SphericalMeasure(d, RadialProfile.power_tail(0.8, 1.3))
        for q in (0.0, 0.3, 2.0, 9.0, 60.0, 1e4):
            assert measures._tail_slope(pi, k, q)[0] == projection_tail(pi, k, q), q

    def test_ends(self):
        pi = SphericalMeasure(16, RadialProfile.power_tail(1.0, 1.0))
        assert projection_tail(pi, 3, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert projection_tail(pi, 3, 1e4) == 0.0
        assert projection_tail(pi, 3, math.inf) == 0.0

    def test_errors(self):
        pi = SphericalMeasure(4, RadialProfile.quadratic(0.5))
        with pytest.raises(StructuralError):
            projection_tail(pi, 5, 1.0)
        with pytest.raises(StructuralError):
            projection_tail(pi, 0, 1.0)
        with pytest.raises(DomainError):
            projection_tail(pi, 3, -1.0)


@pytest.mark.parametrize("k", [0, 2, 5])
def test_row_count_errors_come_from_checked_k(k):
    # one rule, one message: each function that takes a row count k at d = 4
    # raises what measures._checked_k raises for its least k
    pi = SphericalMeasure(4, RadialProfile.quadratic(0.5))
    calls = {
        1: [lambda: projection_tail(pi, k, 1.0), lambda: projection_norm_samples(pi, k, 10, 0)],
        3: [lambda: projection_quantile(pi, k, 0.1),
            lambda: SubspaceProjector.containing_direction(np.ones(4), k)],
    }
    for least, fns in calls.items():
        if least <= k <= 4:
            continue
        with pytest.raises(StructuralError) as want:
            measures._checked_k(k, 4, least)
        for fn in fns:
            with pytest.raises(StructuralError) as got:
                fn()
            assert str(got.value) == str(want.value)
