"""Multi-modal data distributions and spherically symmetric noise measures.

The data class is a finite mixture: one designated far mode (a ball of
radius delta*R at distance R(1+delta) from the origin, optionally joined by
further modes) plus a centred Gaussian bulk carrying the remaining mass.
Noise measures have unnormalised density exp(-H(|x|)) with a power-law
radial profile H(r) = a*r^p, which admits an exact radial sampler: with
s = a*r^p, the radial density becomes Gamma(d/p, 1).  The same law gives
the tail of a k-dimensional projection by one fixed 1-D quadrature.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincc, gammaincc, gammainccinv

from .errors import DomainError, StructuralError
from .rng import Seed, derive, substream
from .stats import chisq_cdf

MODE_KINDS = ("uniform-ball", "truncated-gaussian")

# largest Gamma shape d/p the radial sampler accepts
MAX_GAMMA_SHAPE = 1e7

# tanh-sinh (Takahasi-Mori) rule on (0, 1): nodes x(t) = (1 + tanh(pi/2 sinh t))/2 at
# t = j/16, |t| <= 3; its double-exponential decay absorbs endpoint singularities.
# The weights are normalised to sum to 1, so constants integrate exactly.  Against
# the chi-square tail (p = 2) the absolute error stays below 1e-14 for any q; step
# 1/8 left 1e-10 where the tail exceeds 1/2 at small d - k (a layer at w = W).
_TS_T = np.arange(-48, 49) / 16.0
_TS_NODES = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(_TS_T)))
_TS_WEIGHTS = np.cosh(_TS_T) / np.cosh(0.5 * math.pi * np.sinh(_TS_T)) ** 2
_TS_WEIGHTS /= _TS_WEIGHTS.sum()


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

    def _gamma_shape(self) -> float:
        """Shape d/p of the Gamma law of s = a*|x|^p, within the supported range."""
        shape = self.d / self.profile.p
        if shape > MAX_GAMMA_SHAPE:
            raise DomainError(
                f"parameter out of supported range: d/p = {shape:.3g} exceeds {MAX_GAMMA_SHAPE:.0e}"
            )
        return shape

    def _radius_at_tail(self, w):
        """Radius whose tail mass pi(|x| > r) is w: (gammainccinv(d/p, w)/a)^(1/p).

        A radius beyond the float range reads as inf.
        """
        with np.errstate(over="ignore"):
            return (gammainccinv(self._gamma_shape(), w) / self.profile.a) ** (1.0 / self.profile.p)

    def _coefficients(self, n: int, k: int, seed: Seed) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_radial_coefficients` on substream ``seed`` with the exact
        radius: s = a*r^p is Gamma(d/p, 1), so r = (s/a)^(1/p)."""
        shape = self._gamma_shape()  # the guard fires before anything is drawn
        a, p = self.profile.a, self.profile.p
        return _radial_coefficients(substream(seed), int(n), self.d, k,
                                    lambda rng, m: (rng.gamma(shape, 1.0, size=m) / a) ** (1.0 / p))

    def sample(self, n: int, seed: Seed) -> np.ndarray:
        """Draw n points: exact Gamma radius times a uniform direction.

        The k = d case of :meth:`sample_coefficients`, bit for bit.
        Deterministic in (n, seed); n = 0 yields an empty (0, d) array.
        """
        return self._coefficients(n, self.d, seed)[0]

    def sample_coefficients(self, n: int, basis, seed: Seed) -> np.ndarray:
        """Draw the (n, k) coefficients x @ basis.T of n points, in O(n k).

        Same contract as :meth:`MultiModalData.sample_coefficients`.  The
        measure is rotation invariant, so only the number k of rows enters.
        """
        return self._coefficients(n, len(_checked_basis(basis, self.d)), seed)[0]


def _chi2_rest(rng: np.random.Generator, n: int, d: int, k: int) -> np.ndarray:
    """n draws of |(z_{k+1}, ..., z_d)|^2 for standard Gaussian z: chi2_{d-k}, zero at k = d."""
    return rng.chisquare(d - k, n) if d > k else np.zeros(n)


def _radial_coefficients(rng: np.random.Generator, n: int, d: int, k: int,
                         radii) -> tuple[np.ndarray, np.ndarray]:
    """n draws of a radius times a uniform direction in R^d, read on k
    orthonormal rows: the (n, k) coefficients and the n squared radii.

    The coefficients have the law of the first k coordinates of r z/|z| for
    standard Gaussian z, that is r g/sqrt(|g|^2 + chi2_{d-k}) with
    g ~ N(0, I_k).  Draws g, then the chi-square (none at k = d), then
    r = ``radii(rng, n)``.  At k = d they are the d coordinates themselves.
    """
    g = rng.standard_normal((n, k))
    w = _chi2_rest(rng, n, d, k)
    r = radii(rng, n)
    return r[:, None] * g / np.sqrt((g * g).sum(axis=1) + w)[:, None], r * r


def _checked_k(k, d: int, least: int = 1) -> int:
    """``k`` as an int number of rows with least <= k <= d."""
    k = int(k)
    if not least <= k <= d:
        raise StructuralError(f"need {least} <= k <= d orthonormal rows, got k = {k} at d = {d}")
    return k


def _checked_basis(basis, d: int | None, least: int = 1) -> np.ndarray:
    """``basis`` as a float (k, d) array of least <= k <= d orthonormal rows;
    ``d = None`` takes d from the basis."""
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or (d is not None and b.shape[1] != d):
        raise StructuralError(f"basis must be a (k, {d or 'd'}) array, got shape {b.shape}")
    k = _checked_k(b.shape[0], b.shape[1], least)
    if np.max(np.abs(b @ b.T - np.eye(k))) > 1e-10:
        raise StructuralError("basis rows must be orthonormal unit vectors (1e-10 tolerance)")
    return b


def projection_norm_samples(pi: SphericalMeasure, k: int, n: int, seed: Seed) -> np.ndarray:
    """Draw n values of |first-k-coordinates| under ``pi``: the row norms of
    the k-row :meth:`SphericalMeasure.sample_coefficients`, in O(n k)
    regardless of d.  :func:`projection_tail` gives the same law's tail exactly.
    """
    c = pi._coefficients(n, _checked_k(k, pi.d), seed)[0]
    return np.sqrt((c * c).sum(axis=1))


def projection_tail(pi: SphericalMeasure, k: int, q: float) -> float:
    """Exact tail pi(|first-k-coordinates| > q), deterministic, O(1) in d.

    |G_k|^2 = |x|^2 B with B ~ Beta(k/2, (d-k)/2) independent of |x|, so
    with w = pi(|x| > r) as the variable of integration,

        Tail(q) = int_0^W betaincc(k/2, (d-k)/2, min(1, (q/r(w))^2)) dw,

    where W = pi(|x| > q) = gammaincc(d/p, a q^p) and r(w) is the radius of
    tail mass w.  The integral runs through a fixed 97-node tanh-sinh rule;
    at k = d (or W = 0) the tail is W itself.  The ratio q/r is formed before
    squaring, so heavy tails whose radii pass sqrt(DBL_MAX) do not overflow.
    """
    k = _checked_k(k, pi.d)
    if not q >= 0:
        raise DomainError("tail level q must be nonnegative")
    big_w = float(gammaincc(pi._gamma_shape(), pi.profile.a * q ** pi.profile.p))
    if k == pi.d or big_w == 0.0:
        return big_w
    ratio = q / pi._radius_at_tail(big_w * _TS_NODES)
    b = betaincc(k / 2.0, (pi.d - k) / 2.0, np.minimum(1.0, ratio * ratio))
    return big_w * float(_TS_WEIGHTS @ b)


def _falling_root(f, lo: float, hi: float) -> float:
    """Root of a decreasing f with f(lo) > 0 >= f(hi), to about 2 ulp of hi.

    Regula falsi with the Illinois step (the retained end's value is halved
    when the same end survives twice), which converges superlinearly; a
    secant point outside the bracket falls back to bisection.  It stands in
    for ``scipy.optimize.brentq`` because importing ``scipy.optimize`` after
    ``scipy.special`` costs 0.15-0.30 s (2-core x86 host, scipy 1.17), which
    every ``lowerbound`` and ``quantile-table`` call would pay at start-up.
    """
    flo, fhi = f(lo), f(hi)
    side = 0
    while hi - lo > 4e-16 * hi:
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0:
            return x
        if fx > 0:
            lo, flo = x, fx
            if side == 1:
                fhi *= 0.5
            side = 1
        else:
            hi, fhi = x, fx
            if side == -1:
                flo *= 0.5
            side = -1
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class QuantileEstimate:
    """Concentration level of the k-dimensional projection of a noise measure.

    ``ball_radius`` is the (1 - eps/2)-quantile q of |G_k| and
    ``r`` = sqrt(1 + q^2), so pi(1 + |G_k|^2 <= r^2) = 1 - eps/2.
    """

    r: float
    ball_radius: float


def projection_quantile(pi: SphericalMeasure, k: int, eps: float, *, n: int = 0) -> QuantileEstimate:
    """Exact projection concentration level r_k: the root of
    :func:`projection_tail` (pi, k, q) = eps/2.

    Deterministic; nothing is drawn.  ``n`` is accepted and ignored, because
    ``perfbench/tracer.py`` reads it as the call's sample count.  Raises
    :class:`DomainError` when the (1 - eps/2)-quantile of |x|, which brackets
    q from above, lies beyond the float range.
    """
    k = _checked_k(k, pi.d, least=3)
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    target = eps / 2.0
    # |G_k| <= |x|, so the (1 - eps/2)-quantile of |x| bounds q from above; at k = d it is q
    q = float(pi._radius_at_tail(target))
    if not math.isfinite(q):
        raise DomainError(
            f"projection quantile out of float range: the radial (1 - eps/2)-quantile "
            f"overflows at d = {pi.d}, p = {pi.profile.p:g}"
        )
    if k < pi.d:
        q = _falling_root(lambda s: projection_tail(pi, k, s) - target, 0.0, q)
    return QuantileEstimate(r=math.hypot(1.0, q), ball_radius=q)


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

    def _mode_offset_coefficients(self, rng: np.random.Generator, mode: ModeSpec,
                                  n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """n draws of ``mode``: the (n, k) coefficients of x - center on k
        orthonormal rows, and the n squared norms |x - center|^2.

        Both mode laws are rotation invariant about the center, so the
        coefficients have the law of the first k coordinates of a
        d-dimensional draw: :func:`_radial_coefficients` with radius
        rho U^(1/d) for a uniform ball, and sigma * z_k accepted jointly with
        w = |z_{k+1..d}|^2 ~ chi2_{d-k} for the truncated Gaussian, whose
        d-dimensional draw is accepted when sigma^2 (|z_k|^2 + w) <= radius^2.
        At k = d they are the d offset coordinates themselves.
        """
        if self.mode_kind == "uniform-ball":
            power = 1.0 / self.d
            return _radial_coefficients(rng, n, self.d, k,
                                        lambda rng, m: mode.radius * rng.random(m) ** power)
        sigma = mode.radius / (math.sqrt(self.d) + 3.0)
        z = rng.standard_normal((n, k))
        w = _chi2_rest(rng, n, self.d, k)
        for _ in range(1000):
            sq = sigma * sigma * ((z * z).sum(axis=1) + w)
            bad = np.flatnonzero(sq > mode.radius ** 2)
            if bad.size == 0:
                return sigma * z, sq
            z[bad] = rng.standard_normal((bad.size, k))
            w[bad] = _chi2_rest(rng, bad.size, self.d, k)
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
        b = _checked_basis(basis, self.d)
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
                # |bulk|^2 / bulk_scale^2 is chi-square with d degrees of freedom;
                # z * z reads inf past DBL_MAX, where the float power z ** 2 raises
                z = radius / self.bulk_scale
                total += self.bulk_weight * chisq_cdf(self.d, z * z)
        return min(1.0, total)


# verdict of each relation a check can hold its value to; "==" means equal to
# 1e-12 relative.  A NaN value fails under every relation.
RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": lambda v, t: abs(v - t) <= 1e-12 * abs(t),
}


@dataclass(frozen=True)
class CheckResult:
    """A single named check: its measured value, the threshold it is held to,
    and the relation (a key of :data:`RELATIONS`) between the two that it
    tests.  The verdict is derived from those three, never stored."""

    name: str
    value: float
    threshold: float
    relation: str
    se: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(RELATIONS[self.relation](self.value, self.threshold))


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
    mode = spec.designated_mode
    dists = np.array([m.distance for m in spec.modes])
    n_at_max = int(np.sum(dists >= dists.max() * (1.0 - 1e-9)))
    outside = 1.0 - spec.mass_within_origin_ball(spec.R * (1.0 + 2.0 * spec.delta), n, seed)
    return (
        CheckResult("furthest-mode-distance", mode.distance, spec.R * (1.0 + spec.delta), "=="),
        CheckResult("furthest-mode-radius", mode.radius, spec.delta * spec.R, "=="),
        CheckResult("furthest-mode-unique", n_at_max, 1, "=="),
        CheckResult("mode-mass", mode.weight, 3.0 * spec.eps, ">"),
        CheckResult("far-mass-aggregate", spec.far_mass, 3.0 * spec.eps, ">"),
        CheckResult("tail-mass", outside, spec.eps / 2.0, "<"),
    )
