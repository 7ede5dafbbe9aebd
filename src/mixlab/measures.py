"""Multi-modal data distributions and spherically symmetric noise measures.

The data class is a finite mixture: one designated far mode (a ball of
radius delta*R at distance R(1+delta) from the origin, optionally joined by
further modes) plus a centred Gaussian bulk carrying the remaining mass.
Noise measures have unnormalised density exp(-H(|x|)) with a power-law
radial profile H(r) = a*r^p, which admits an exact radial sampler: with
s = a*r^p, the radial density becomes Gamma(d/p, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError
from .rng import Seed, derive, substream
from .stats import chisq_cdf

MODE_KINDS = ("uniform-ball", "truncated-gaussian")

# largest Gamma shape d/p the radial sampler accepts
MAX_GAMMA_SHAPE = 1e7


@dataclass(frozen=True)
class RadialProfile:
    """Radial exponent profile H(r) = a * r**p, defined for all r >= 0.

    ``quadratic(a)`` (p = 2) makes exp(-H(|x|)) a centred Gaussian with
    covariance I/(2a); ``power_tail(a, p)`` covers the stretched-exponential
    family with p in (0, 2].
    """

    a: float
    p: float

    def __post_init__(self):
        if not self.a > 0:
            raise StructuralError("profile scale a must be positive")
        if not 0 < self.p <= 2:
            raise StructuralError("profile exponent p must lie in (0, 2]")

    @classmethod
    def quadratic(cls, a: float) -> "RadialProfile":
        return cls(float(a), 2.0)

    @classmethod
    def power_tail(cls, a: float, p: float) -> "RadialProfile":
        return cls(float(a), float(p))

    @property
    def is_quadratic(self) -> bool:
        return self.p == 2.0

    def value(self, r):
        return self.a * np.asarray(r, dtype=float) ** self.p

    def deriv(self, r):
        """dH/dr; for p < 1 this diverges at r = 0 and callers must mask r > 0."""
        return self.a * self.p * np.asarray(r, dtype=float) ** (self.p - 1.0)


@dataclass(frozen=True)
class SphericalMeasure:
    """Rotation-invariant probability measure with density proportional to exp(-H(|x|))."""

    d: int
    profile: RadialProfile

    def __post_init__(self):
        if int(self.d) < 1:
            raise StructuralError("dimension d must be a positive integer")
        object.__setattr__(self, "d", int(self.d))

    def log_density_unnormalized(self, x) -> np.ndarray:
        """Return -H(|x|) for a single point or an (n, d) batch."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        return -self.profile.value(r)

    def _radii(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n exact radial draws: s = a*r^p is Gamma(d/p, 1), so r = (s/a)^(1/p)."""
        shape = self.d / self.profile.p
        if shape > MAX_GAMMA_SHAPE:
            raise DomainError(
                f"parameter out of supported range: d/p = {shape:.3g} exceeds {MAX_GAMMA_SHAPE:.0e}"
            )
        s = rng.gamma(shape, 1.0, size=n)
        return (s / self.profile.a) ** (1.0 / self.profile.p)

    def sample(self, n: int, seed: Seed) -> np.ndarray:
        """Draw n points: exact Gamma radius times a uniform direction.

        Deterministic in (n, seed); n = 0 yields an empty (0, d) array.
        """
        n = int(n)
        if n == 0:
            return np.zeros((0, self.d))
        rng = substream(seed)
        r = self._radii(rng, n)
        z = rng.standard_normal((n, self.d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return r[:, None] * z


def projection_norm_samples(pi: SphericalMeasure, k: int, n: int, seed: Seed) -> np.ndarray:
    """Draw n values of |first-k-coordinates| under ``pi``.

    Uses |G_k(x)|^2 = r^2 * u/(u+w) with independent u ~ chi2(k) and
    w ~ chi2(d-k), exact for any rotation-invariant measure.  Costs O(n)
    regardless of d, so very high-dimensional quantiles stay cheap.
    """
    k = int(k)
    if not 1 <= k <= pi.d:
        raise StructuralError(f"projection dimension k={k} must satisfy 1 <= k <= d={pi.d}")
    rng = substream(seed)
    r = pi._radii(rng, int(n))
    if k == pi.d:
        return r
    u = rng.chisquare(k, size=int(n))
    w = rng.chisquare(pi.d - k, size=int(n))
    return r * np.sqrt(u / (u + w))


@dataclass(frozen=True)
class QuantileEstimate:
    """Concentration level of the k-dimensional projection of a noise measure.

    ``r`` satisfies pi(1 + |G_k|^2 <= r^2) >= 1 - eps/2 up to Monte-Carlo
    error; ``ball_radius`` is the underlying empirical quantile q of |G_k|,
    with r = sqrt(1 + q^2).
    """

    r: float
    ball_radius: float
    se_r: float
    se_ball: float
    k: int
    eps: float
    n: int


def projection_quantile(pi: SphericalMeasure, k: int, eps: float, n: int, seed: Seed) -> QuantileEstimate:
    """Monte-Carlo estimate of the projection concentration level r_k.

    q is the order statistic of |first-k-coordinates| at rank
    ceil((1-eps/2)*n), without interpolation; the standard error comes from
    the order-statistic spread at ranks +- 3*sqrt(n*lev*(1-lev)).
    """
    k = int(k)
    n = int(n)
    if k < 3:
        raise StructuralError("projection dimension k must be at least 3")
    if k > pi.d:
        raise StructuralError(f"projection dimension k={k} exceeds d={pi.d}")
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    if n < 2:
        raise DomainError("need at least 2 samples")
    g = np.sort(projection_norm_samples(pi, k, n, seed))
    lev = 1.0 - eps / 2.0
    j = int(math.ceil(lev * n))
    q = float(g[j - 1])
    m = max(1, int(math.ceil(3.0 * math.sqrt(n * lev * (1.0 - lev)))))
    lo = max(j - m, 1)
    hi = min(j + m, n)
    se_q = float(g[hi - 1] - g[lo - 1]) / 6.0
    r = math.sqrt(1.0 + q * q)
    return QuantileEstimate(
        r=r, ball_radius=q, se_r=(q / r) * se_q, se_ball=se_q, k=k, eps=float(eps), n=n
    )


@dataclass(frozen=True)
class ModeSpec:
    """One mixture mode: mass ``weight`` spread over a ball of the given radius."""

    center: np.ndarray
    radius: float
    weight: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(-1).copy()
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if not self.radius >= 0:
            raise StructuralError("mode radius must be nonnegative")
        if not 0 < self.weight <= 1:
            raise StructuralError("mode weight must lie in (0, 1]")

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(self.center))


@dataclass(frozen=True)
class MultiModalData:
    """Mixture data distribution: far modes plus a centred Gaussian bulk.

    Admissible instances place the designated (furthest) mode at distance
    R(1+delta) with radius delta*R and mass above 3*eps, and keep all but
    eps/2 of the total mass inside the ball of radius R(1+2*delta); those
    constraints are measured by :func:`validate_data_spec`, not enforced
    at construction.

    The bulk is N(0, bulk_scale^2 I) with the weight left over by the
    modes.  The default bulk_scale = min(R/4, R(1+2delta)/(sqrt(d)+6))
    keeps the bulk tail mass outside B(0, R(1+2delta)) negligible in every
    dimension.
    """

    d: int
    R: float
    delta: float
    eps: float
    modes: tuple[ModeSpec, ...]
    bulk_scale: float | None = None
    mode_kind: str = "uniform-ball"

    def __post_init__(self):
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "modes", tuple(self.modes))
        if self.d < 1:
            raise StructuralError("dimension d must be a positive integer")
        if not self.R > 2:
            raise StructuralError("R must exceed 2")
        if not 0 < self.delta < 1:
            raise StructuralError("delta must lie in (0, 1)")
        if not 0 < self.eps < 1:
            raise StructuralError("eps must lie in (0, 1)")
        if not self.modes:
            raise StructuralError("at least one mode is required")
        if self.mode_kind not in MODE_KINDS:
            raise StructuralError(f"mode_kind must be one of {MODE_KINDS}")
        for m in self.modes:
            if m.center.shape != (self.d,):
                raise StructuralError(
                    f"mode center has dimension {m.center.shape[0]}, expected {self.d}"
                )
        total = sum(m.weight for m in self.modes)
        if total > 1.0 + 1e-12:
            raise StructuralError(f"mode weights sum to {total:.6g} > 1")
        if self.bulk_scale is None:
            default = min(
                self.R / 4.0, self.R * (1.0 + 2.0 * self.delta) / (math.sqrt(self.d) + 6.0)
            )
            object.__setattr__(self, "bulk_scale", default)
        if not self.bulk_scale >= 0:
            raise StructuralError("bulk_scale must be nonnegative")

    @property
    def bulk_weight(self) -> float:
        return max(0.0, 1.0 - sum(m.weight for m in self.modes))

    @property
    def designated_index(self) -> int:
        """Index of the furthest mode."""
        return int(np.argmax([m.distance for m in self.modes]))

    @property
    def designated_mode(self) -> ModeSpec:
        return self.modes[self.designated_index]

    @property
    def mode_direction(self) -> np.ndarray:
        """Unit vector pointing at the designated mode."""
        c = self.designated_mode.center
        return c / np.linalg.norm(c)

    @property
    def far_mass(self) -> float:
        """Aggregated weight of all modes at distance >= R."""
        return sum(m.weight for m in self.modes if m.distance >= self.R)

    def _components(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Mixture component of each of n draws; index len(modes) is the bulk."""
        weights = np.array([m.weight for m in self.modes] + [self.bulk_weight])
        weights = np.maximum(weights, 0.0)
        weights /= weights.sum()
        return rng.choice(len(weights), size=n, p=weights)

    def _mixture_coefficients(self, n: int, centers, seed: Seed) -> np.ndarray:
        """(n, k) mixture draws with mode i placed at ``centers[i]``, a k-vector.

        The offsets about each center and the bulk are rotation invariant, so
        this is x in d coordinates when k = d and the centers are the mode
        centers, and x @ basis.T when they are basis @ center.
        """
        k = len(centers[0])
        rng = substream(seed)
        comp = self._components(rng, n)
        out = np.empty((n, k))
        for i, (mode, center) in enumerate(zip(self.modes, centers)):
            idx = np.flatnonzero(comp == i)
            out[idx] = center + self._mode_offset_coefficients(rng, mode, len(idx), k)[0]
        idx = np.flatnonzero(comp == len(self.modes))
        out[idx] = self.bulk_scale * rng.standard_normal((len(idx), k))
        return out

    def sample(self, n: int, seed: Seed) -> np.ndarray:
        """Draw n points from the mixture; bitwise deterministic in (n, seed)."""
        return self._mixture_coefficients(int(n), [m.center for m in self.modes], seed)

    def _chi2_rest(self, rng: np.random.Generator, n: int, k: int) -> np.ndarray:
        """n draws of |(z_{k+1}, ..., z_d)|^2 for standard Gaussian z: chi2_{d-k}, zero at k = d."""
        return rng.chisquare(self.d - k, n) if self.d > k else np.zeros(n)

    def _mode_offset_coefficients(self, rng: np.random.Generator, mode: ModeSpec,
                                  n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """n draws of ``mode``: the (n, k) coefficients of x - center on k
        orthonormal rows, and the n squared norms |x - center|^2.

        Both mode laws are rotation invariant about the center, so the
        coefficients have the law of the first k coordinates of a
        d-dimensional draw: radius * g_k / sqrt(|g_k|^2 + chi2_{d-k}) for a
        uniform ball, and sigma * z_k accepted jointly with
        w = |z_{k+1..d}|^2 ~ chi2_{d-k} for the truncated Gaussian, whose
        d-dimensional draw is accepted when sigma^2 (|z_k|^2 + w) <= radius^2.
        At k = d they are the d offset coordinates themselves.
        """
        if self.mode_kind == "uniform-ball":
            g = rng.standard_normal((n, k))
            w = self._chi2_rest(rng, n, k)
            radii = mode.radius * rng.random(n) ** (1.0 / self.d)
            return radii[:, None] * g / np.sqrt((g * g).sum(axis=1) + w)[:, None], radii * radii
        sigma = mode.radius / (math.sqrt(self.d) + 3.0)
        z = rng.standard_normal((n, k))
        w = self._chi2_rest(rng, n, k)
        for _ in range(1000):
            sq = sigma * sigma * ((z * z).sum(axis=1) + w)
            bad = np.flatnonzero(sq > mode.radius ** 2)
            if bad.size == 0:
                return sigma * z, sq
            z[bad] = rng.standard_normal((bad.size, k))
            w[bad] = self._chi2_rest(rng, bad.size, k)
        raise RuntimeError("truncated-gaussian rejection sampling failed to converge")

    def sample_coefficients(self, n: int, basis, seed: Seed) -> np.ndarray:
        """Draw the (n, k) coefficients x @ basis.T of n mixture points, in O(n k).

        ``basis`` is a (k, d) array of orthonormal rows.  Exact in law: each
        mode contributes basis @ center plus rotation-invariant offset
        coefficients, and the bulk contributes bulk_scale * N(0, I_k).  No
        d-dimensional point is built, so the cost does not grow with d.
        Bitwise deterministic in (n, basis, seed); with basis = I it returns
        the bytes of :meth:`sample`.
        """
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.d:
            raise StructuralError(f"basis must be a (k, {self.d}) array, got shape {b.shape}")
        k = b.shape[0]
        if not 1 <= k <= self.d:
            raise StructuralError(f"basis has k={k} rows, need 1 <= k <= d={self.d}")
        if np.max(np.abs(b @ b.T - np.eye(k))) > 1e-10:
            raise StructuralError("basis rows must be orthonormal unit vectors (1e-10 tolerance)")
        return self._mixture_coefficients(int(n), [b @ m.center for m in self.modes], seed)

    def mass_within_origin_ball(self, radius: float, n: int = 100_000, seed: Seed = 0) -> float:
        """Mixture mass of the closed ball B(0, radius).

        Closed form for the Gaussian bulk (chi-square CDF) and for modes whose
        support lies entirely inside or outside.  A mode straddling the
        boundary is estimated from n draws on substream (seed, i) and counts
        with its lower confidence limit, estimate minus 3 se, so the result
        errs low: callers that need the mass outside the ball get it from above.
        """
        total = 0.0
        for i, mode in enumerate(self.modes):
            lo = mode.distance - mode.radius
            hi = mode.distance + mode.radius
            if hi <= radius * (1.0 + 1e-12):
                total += mode.weight
            elif lo > radius:
                continue
            else:
                n = int(n)
                if n < 1:
                    raise DomainError("a mode straddling the ball needs n >= 1 draws")
                # |x|^2 = |c|^2 + 2 |c| <x - c, c/|c|> + |x - c|^2, and the offset
                # law is rotation invariant: one coefficient and the norm suffice
                a, sq = self._mode_offset_coefficients(substream(derive(seed, i)), mode, n, 1)
                c = mode.distance
                p = float(np.mean(c * c + 2.0 * c * a[:, 0] + sq <= radius * radius))
                se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
                total += mode.weight * max(0.0, p - 3.0 * se)
        if self.bulk_weight > 0:
            if self.bulk_scale == 0:
                total += self.bulk_weight
            else:
                # |bulk|^2 / bulk_scale^2 is chi-square with d degrees of freedom
                total += self.bulk_weight * chisq_cdf(self.d, (radius / self.bulk_scale) ** 2)
        return min(1.0, total)


@dataclass(frozen=True)
class CheckResult:
    """A single named check: its measured value, the threshold it is held to,
    and the relation ("<", "<=", ">", ">=" or "==") between the two that it tests."""

    name: str
    passed: bool
    value: float
    threshold: float
    relation: str
    se: float = 0.0
    note: str = ""


def validate_data_spec(spec: MultiModalData, n: int = 100_000,
                       seed: Seed = 0) -> tuple[CheckResult, ...]:
    """Measure the admissibility constraints of a data mixture.

    Checks the designated-mode placement (|x0| = R(1+delta) and radius =
    delta*R, both to 1e-12 relative), the mode-mass inequality b > 3*eps
    against the stored weight, and the tail condition: the mass outside
    B(0, R(1+2delta)), 1 - :meth:`MultiModalData.mass_within_origin_ball`,
    must lie below eps/2.  That mass is closed form unless a mode straddles
    the sphere; such a mode is estimated from ``n`` draws on ``seed`` and
    counted at its 3-se upper limit, so the gate errs toward failing.
    """
    checks: list[CheckResult] = []
    mode = spec.designated_mode
    target = spec.R * (1.0 + spec.delta)
    rel = abs(mode.distance - target) / target
    checks.append(
        CheckResult("furthest-mode-distance", rel <= 1e-12, mode.distance, target, "==",
                    note="|x0| vs R(1+delta), 1e-12 relative")
    )
    rad_target = spec.delta * spec.R
    rel_rad = abs(mode.radius - rad_target) / rad_target
    checks.append(
        CheckResult("furthest-mode-radius", rel_rad <= 1e-12, mode.radius, rad_target, "==",
                    note="radius vs delta*R, 1e-12 relative")
    )
    dists = np.array([m.distance for m in spec.modes])
    n_at_max = int(np.sum(dists >= dists.max() * (1.0 - 1e-9)))
    checks.append(
        CheckResult("furthest-mode-unique", n_at_max == 1, n_at_max, 1, "==",
                    note="exactly one furthest mode")
    )
    checks.append(
        CheckResult("mode-mass", mode.weight > 3.0 * spec.eps, mode.weight, 3.0 * spec.eps,
                    ">", note="designated-mode weight vs 3*eps")
    )
    checks.append(
        CheckResult("far-mass-aggregate", spec.far_mass > 3.0 * spec.eps, spec.far_mass,
                    3.0 * spec.eps, ">", note="aggregate weight of modes at distance >= R")
    )
    outside = 1.0 - spec.mass_within_origin_ball(spec.R * (1.0 + 2.0 * spec.delta), n, seed)
    checks.append(
        CheckResult("tail-mass", outside < spec.eps / 2.0, outside, spec.eps / 2.0, "<",
                    note="mass outside B(0, R(1+2delta)) vs eps/2")
    )
    return tuple(checks)
