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
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.special import (
    betainc,
    betaincc,
    betainccinv,
    betaln,
    gammainc,
    gammaincc,
    gammainccinv,
)

from .errors import DomainError, StructuralError
from .rng import Seed, substream

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

    def _tail_at_radius(self, r: float) -> float:
        """pi(|x| > r) = gammaincc(d/p, a r^p); past the float range a r^p reads inf."""
        with np.errstate(over="ignore"):
            s = self.profile.a * np.float64(r) ** self.profile.p
        return float(gammaincc(self._gamma_shape(), s))

    def _radii(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n exact radii: s = a*r^p is Gamma(d/p, 1), so r = (s/a)^(1/p)."""
        shape = self._gamma_shape()
        return (rng.gamma(shape, 1.0, size=n) / self.profile.a) ** (1.0 / self.profile.p)

    def _coefficients(self, n: int, k: int, seed: Seed) -> np.ndarray:
        """:func:`_radial_coefficients` on substream ``seed`` with the exact radius."""
        self._gamma_shape()  # the guard fires before anything is drawn
        return _radial_coefficients(substream(seed), int(n), self.d, k, self._radii)

    def sample(self, n: int, seed: Seed) -> np.ndarray:
        """Draw n points: exact Gamma radius times a uniform direction.

        Deterministic in (n, seed); n = 0 yields an empty (0, d) array.
        """
        return self._coefficients(n, self.d, seed)


def _chi2_rest(rng: np.random.Generator, n: int, d: int, k: int) -> np.ndarray:
    """n draws of |(z_{k+1}, ..., z_d)|^2 for standard Gaussian z: chi2_{d-k}, zero at k = d."""
    return rng.chisquare(d - k, n) if d > k else np.zeros(n)


def _radial_coefficients(rng: np.random.Generator, n: int, d: int, k: int,
                         radii) -> np.ndarray:
    """n draws of a radius times a uniform direction in R^d, read on k
    orthonormal rows: the (n, k) coefficients.

    The coefficients have the law of the first k coordinates of r z/|z| for
    standard Gaussian z, that is r g/sqrt(|g|^2 + chi2_{d-k}) with
    g ~ N(0, I_k).  Draws g, then the chi-square (none at k = d), then
    r = ``radii(rng, n)``.  At k = d they are the d coordinates themselves.
    """
    g = rng.standard_normal((n, k))
    w = _chi2_rest(rng, n, d, k)
    r = radii(rng, n)
    return r[:, None] * g / np.sqrt((g * g).sum(axis=1) + w)[:, None]


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
    its coefficients on k orthonormal rows (the measure is rotation
    invariant, so only k enters), in O(n k) regardless of d; at k = d the
    norm is the radius, drawn alone in O(n).
    :func:`projection_tail` gives the same law's tail exactly.
    """
    k = _checked_k(k, pi.d)
    if k == pi.d:
        return pi._radii(substream(seed), int(n))
    c = pi._coefficients(n, k, seed)
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
    return _SphericalNormLaw(pi, k)._past(q)[0]


def _ts_rule(lo, hi, every: int = 1):
    """The tanh-sinh rule on [lo, hi] (arrays broadcast) at ``every`` times the
    step: its nodes, its weights, and each node's distance below hi, read off
    the mirrored nodes so that neither end loses digits."""
    nodes, weights = _TS_NODES[::every], _TS_WEIGHTS[::every]
    span = hi - lo
    return lo + span * nodes, span * (weights / weights.sum()), span * nodes[::-1]


@dataclass(frozen=True)
class _OffsetLength:
    """Law of the length S = scale * sqrt(T) of a rotation-invariant offset
    read on k orthonormal rows.  T has density ``weight(T)`` (1 when None)
    against a base law with upper tail ``tail`` and its inverse ``at_tail``,
    on T <= t_max."""

    scale: float
    tail: Callable
    at_tail: Callable
    t_max: float = math.inf
    weight: Callable | None = None

    @property
    def s_max(self) -> float:
        return self.scale * math.sqrt(self.t_max)

    @cached_property
    def _whole(self) -> tuple[np.ndarray, np.ndarray]:
        return self._mapped(0.0, math.inf)

    def rule(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and masses of the law on lo <= S <= hi: the tanh-sinh rule
        mapped onto that interval in the base law's tail-mass coordinate, so
        no node sits outside it and no indicator is needed.  The rule for the
        whole support is built once."""
        return self._whole if lo <= 0 and hi >= self.s_max else self._mapped(lo, hi)

    def _mapped(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        t_lo, t_hi = lo / self.scale, hi / self.scale
        w_lo = float(self.tail(min(t_hi * t_hi, self.t_max)))
        w_hi = float(self.tail(t_lo * t_lo))
        if not w_hi - w_lo > 1e-280:
            # no mass in float range: every node would sit at the same tail
            return np.empty(0), np.empty(0)
        w, m, _ = _ts_rule(w_lo, w_hi)
        t = self.at_tail(w)
        if self.weight is not None:
            m = m * self.weight(t)
        return self.scale * np.sqrt(t), m


def _beyond_on_sphere(a: float, s: np.ndarray, top, f, k: int):
    """(P(V > v*), E[f(|G|); V > v*]) per length s, for |G|^2 = a^2 + 2 a s V + s^2
    with V the first coordinate of a uniform point on S^{k-1}, given
    top = 1 - v* in [0, 2]; the expectation is 0 without f.

    At k = 1, V = +-1 with half the mass each.  Otherwise (1 + V)/2 is
    Beta((k-1)/2, (k-1)/2), so the probability is closed form.
    The expectation maps the tanh-sinh rule onto [v*, 1] with V's density
    (1 - v^2)^{(k-3)/2} / (2^{k-2} B); past |v| = 9/sqrt(k) that density
    holds under 1e-17 of the mass, so the rule stops there and stays
    resolved at large k.
    """
    top = np.broadcast_to(top, s.shape)
    if k == 1:
        # V = 1 puts |G| at a + s, beyond q when top > 0; V = -1 at |a - s|, when top = 2
        up, down = 0.5 * (top > 0.0), 0.5 * (top >= 2.0)
        return up + down, np.zeros_like(s) if f is None else up * f(a + s) + down * f(abs(a - s))
    half = (k - 1) / 2.0
    prob = betainc(half, half, top / 2.0)
    if f is None or a == 0.0:
        return prob, np.zeros_like(s) if f is None else f(s)
    top = top[:, None]
    edge = max(0.0, 1.0 - 9.0 / math.sqrt(k))  # distance of the stop from +-1
    bottom = np.clip(2.0 - top, edge, 2.0 - edge)  # 1 + the lower end
    dbot, w, dtop = _ts_rule(bottom, 2.0 - edge)
    dtop = dtop + edge
    norm = math.exp((k - 2) * math.log(2.0) + betaln(half, half))
    dens = (dtop * dbot) ** ((k - 3) / 2.0) / norm
    # |a - s|^2 + 2 a s (1 + v): every term is nonnegative
    g = np.sqrt((a - s[:, None]) ** 2 + 2.0 * a * s[:, None] * dbot)
    return prob, (w * dens * f(g)).sum(axis=1)


@dataclass(frozen=True)
class _ComponentNormLaw:
    """Law of |G| for G = c + Y read on k orthonormal rows: one mixture
    component, with |c| = ``a`` and Y a rotation-invariant offset whose
    length has the law ``length`` (None: Y = 0).

    |G|^2 = a^2 + 2 a S V + S^2 with V the first coordinate of a uniform
    direction in R^k, so every expectation is a fixed quadrature over S
    (:class:`_OffsetLength`) with V's part in closed form or on its own rule.
    """

    a: float
    k: int
    length: _OffsetLength | None

    def beyond(self, q: float, f=None) -> tuple[float, float]:
        """(P(|G| > q), E[f(|G|); |G| > q]) for a vectorised f (0 without f)."""
        a = self.a
        if self.length is None:
            return (1.0, 0.0 if f is None else float(f(np.float64(a)))) if a > q else (0.0, 0.0)
        prob = mean = 0.0
        for s, m, top in self._pieces(q):
            p, e = _beyond_on_sphere(a, s, top, f, self.k)
            prob += float(m @ p)
            mean += float(m @ e)
        return prob, mean

    def within(self, q: float) -> float:
        """P(|G| <= q); exactly 1 when the whole support lies in the ball.
        The share of directions inside is summed from the inside's own side,
        not read as 1 - P(|G| > q), so a lens far below 1e-16 keeps its
        digits; the length's mass is read off its tail, so a ball deep inside
        the bulk is good to about 1e-16 absolute.  V is symmetric, so
        P(V <= v*) is the probability beyond -v*."""
        if self.length is None:
            return float(self.a <= q)
        if self.a + self.length.s_max <= q:
            return 1.0
        return sum(float(m @ _beyond_on_sphere(self.a, s, 2.0 - top, None, self.k)[0])
                   for s, m, top in self._pieces(q, inside=True))

    def _pieces(self, q: float, inside: bool = False):
        """(s, m, top) per piece of S: the rule's nodes and masses, and
        top = 1 - v* with v* the direction at which |G| = q.  Since
        |a - S| <= |G| <= a + S, a length below q - a is inside the ball for
        every direction (top = 0, yielded only with ``inside``) and one below
        a - q or above a + q outside it (top = 2), so S is split at those cuts
        and one rule maps onto each piece, where the integrand is smooth."""
        a, s_max = self.a, self.length.s_max
        edges = sorted({0.0, min(abs(a - q), s_max), min(a + q, s_max), s_max})
        for lo, hi in zip(edges, edges[1:]):
            if hi <= q - a and not inside:
                continue
            s, m = self.length.rule(lo, hi)
            if hi <= q - a:
                top = 0.0
            elif lo >= a + q or hi <= a - q:
                top = 2.0
            else:
                # 0/0 only where a + s, the largest |G|, rounds to q: none is beyond
                with np.errstate(divide="ignore", invalid="ignore"):
                    top = np.fmin(np.fmax((a + s - q) * (a + s + q) / (2.0 * a * s), 0.0), 2.0)
            yield s, m, top


@dataclass(frozen=True)
class _SphericalNormLaw:
    """Law of |G| = |x| sqrt(B) for x ~ ``pi`` read on k rows, where
    B ~ Beta(k/2, (d-k)/2) is independent of |x| (B = 1 at k = d)."""

    pi: SphericalMeasure
    k: int

    def tail_slope(self, q: float) -> tuple[float, float, float]:
        """(pi(|G| > q), its derivative in q, the same tail on the rule at
        twice the step) at k < d, from one :meth:`_past`.

        The upper end W of the integral in :func:`projection_tail` moves with
        q, but its term vanishes, since betaincc(., ., 1) = 0 at r(W) = q, so

            Tail'(q) = -int_0^W f_B((q/r(w))^2) 2 (q/r(w)) / r(w) dw,

        with f_B the Beta(k/2, (d-k)/2) density, in exp/log form on the same
        nodes.  The factor is read as ratio / x, never as q / x^2, so radii
        past sqrt(DBL_MAX) keep it finite.  A node whose cut rounds to 0 or 1
        carries no slope.  At d - k = 1 the density's (1 - B)^(-1/2) end
        leaves the rule about 4e-7 short of the slope, which only steers the
        search in :func:`projection_quantile`; elsewhere it agrees with a
        central difference of the tail to better than 1e-7.
        """
        prob, coarse, m, x, cut = self._past(q)
        a, b = self._shape
        inner = (cut > 0.0) & (cut < 1.0)
        c = np.where(inner, cut, 0.5)
        dens = np.exp((a - 1.0) * np.log(c) + (b - 1.0) * np.log1p(-c) - betaln(a, b))
        return prob, -float(m @ np.where(inner, dens * (2.0 * (q / x) / x), 0.0)), coarse

    def _past(self, q: float):
        """pi(|G| > q) as :func:`projection_tail` documents, the same sum on
        the 49-node rule at twice the step (every other node, so it costs no
        special-function call), and the radii x past q with their masses m
        and cuts min(1, (q/x)^2), which :meth:`tail_slope` reads.  At k = d,
        or W = 0, the tail is W, returned before any rule is built."""
        pi = self.pi
        big_w = pi._tail_at_radius(q)
        if big_w == 0.0 or self.k == pi.d:
            return big_w, big_w, np.empty(0), np.empty(0), np.empty(0)
        w, m, _ = _ts_rule(0.0, big_w)
        x = pi._radius_at_tail(w)
        ratio = q / x
        cut = np.minimum(1.0, ratio * ratio)
        tails = betaincc(*self._shape, cut)
        coarse = float(_ts_rule(0.0, big_w, every=2)[1] @ tails[::2])
        return float(m @ tails), coarse, m, x, cut

    @property
    def _shape(self) -> tuple[float, float]:
        return self.k / 2.0, (self.pi.d - self.k) / 2.0


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
    q from above, overflows or falls below the normal floats, and when the tail at the root
    reads more than 1e-6 apart, relative, on the 97-node rule and on its
    49-node half: there the fixed rule no longer resolves the far tail.

    The root is Newton's method on log Tail(q) - log(eps/2), with the slope
    of :meth:`_SphericalNormLaw.tail_slope` read off the tail's own nodes,
    started at the bracket's upper end and kept inside the bracket
    [0, radial quantile]: a step that leaves it, or a tail or slope that
    reads 0, falls back to bisection.  It stops once a step is within
    4e-16 q, tested before the bracket, because a converged step can land
    on the bracket's end.  It takes 6 tail evaluations at d = 16, p = 1,
    and a median of 9 (at most 13) over 300 random configs up to d = 1e5.
    It is hand-rolled rather than ``scipy.optimize``, because importing
    ``scipy.optimize`` after ``scipy.special`` costs 0.15-0.30 s (2-core x86
    host, scipy 1.17), which every ``lowerbound`` and ``quantile-table``
    call would pay at start-up.
    """
    k = _checked_k(k, pi.d, least=3)
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    target = eps / 2.0
    # |G_k| <= |x|, so the (1 - eps/2)-quantile of |x| bounds q from above; at k = d it is q
    q = float(pi._radius_at_tail(target))
    if not np.finfo(float).tiny <= q < math.inf:
        raise DomainError(
            f"projection quantile out of float range: the radial (1 - eps/2)-quantile "
            f"{q:.3g} is not a normal float at d = {pi.d}, p = {pi.profile.p:g}"
        )
    if k < pi.d:
        law, lo, hi, log_target = _SphericalNormLaw(pi, k), 0.0, q, math.log(target)
        while hi - lo > 4e-16 * hi:
            tail, slope, coarse = law.tail_slope(q)
            if tail > 0.0 and slope < 0.0:
                step = (math.log(tail) - log_target) * tail / slope
                if abs(step) <= 4e-16 * q:
                    break
            else:
                step = math.nan
            if tail > target:
                lo = q
            else:
                hi = q
            q = q - step if lo < q - step < hi else 0.5 * (lo + hi)
        if abs(coarse - tail) > 1e-6 * tail:
            raise DomainError(f"projection quantile unresolved at d = {pi.d}, p = "
                              f"{pi.profile.p:g}, eps = {eps:g}: the tail reads {tail:.6g} on "
                              f"the 97-node rule and {coarse:.6g} on its 49-node half")
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
    def designated_mode(self) -> ModeSpec:
        """The furthest mode; the first of equal distances."""
        return max(self.modes, key=lambda m: m.distance)

    @property
    def mode_direction(self) -> np.ndarray:
        """Unit vector pointing at the designated mode."""
        c = self.designated_mode.center
        return c / np.linalg.norm(c)

    @property
    def far_mass(self) -> float:
        """Aggregated weight of all modes at distance >= R."""
        return sum(m.weight for m in self.modes if m.distance >= self.R)

    def _component_weights(self) -> np.ndarray:
        """Normalised mixture weights; the last entry is the bulk."""
        weights = np.array([m.weight for m in self.modes] + [self.bulk_weight])
        return weights / weights.sum()

    def _components(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Mixture component of each of n draws; index len(modes) is the bulk."""
        weights = self._component_weights()
        return rng.choice(len(weights), size=n, p=weights)

    def _sigmas_per_radius(self) -> float:
        """A truncated-Gaussian mode's radius in units of its scale sigma."""
        return math.sqrt(self.d) + 3.0

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
            out[idx] = center + self._mode_offset_coefficients(rng, mode, len(idx), k)
        idx = np.flatnonzero(comp == len(self.modes))
        out[idx] = self.bulk_scale * rng.standard_normal((len(idx), k))
        return out

    def sample(self, n: int, seed: Seed) -> np.ndarray:
        """Draw n points from the mixture; bitwise deterministic in (n, seed)."""
        return self._mixture_coefficients(int(n), [m.center for m in self.modes], seed)

    def _mode_offset_coefficients(self, rng: np.random.Generator, mode: ModeSpec,
                                  n: int, k: int) -> np.ndarray:
        """n draws of ``mode``: the (n, k) coefficients of x - center on k rows.

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
        sigma = mode.radius / self._sigmas_per_radius()
        z = rng.standard_normal((n, k))
        w = _chi2_rest(rng, n, self.d, k)
        for _ in range(1000):
            sq = sigma * sigma * ((z * z).sum(axis=1) + w)
            bad = np.flatnonzero(sq > mode.radius ** 2)
            if bad.size == 0:
                return sigma * z
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

    def norm_laws(self, basis) -> list[tuple[float, _ComponentNormLaw]]:
        """The law of |x @ basis.T| as one (weight, law) pair per mixture
        component, the bulk last; ``law.beyond(q, f)`` gives P(|G| > q) and
        E[f(|G|); |G| > q] by fixed quadrature.  The offset lengths S have
        closed-form laws on the k rows:

        - bulk: |G|^2 / bulk_scale^2 is chi2_k;
        - uniform-ball mode of radius rho: S^2 / rho^2 is Beta(k/2, (d-k)/2 + 1);
        - truncated-Gaussian mode: T = S^2 / sigma^2 has the chi2_k density
          times P(chi2_{d-k} <= L - T) / P(chi2_d <= L) on T <= L = (rho/sigma)^2.
        """
        b = _checked_basis(basis, self.d)
        distances = [float(np.linalg.norm(b @ m.center)) for m in self.modes]
        return list(zip(self._component_weights().tolist(), self._laws(len(b), distances)))

    def _laws(self, k: int, distances) -> list[_ComponentNormLaw]:
        """The :meth:`norm_laws` laws on k rows, each mode's center at its
        given distance; at k = d those are the modes' own, with no basis."""
        d, half = self.d, k / 2.0
        chi2 = (lambda t: gammaincc(half, t / 2.0), lambda w: 2.0 * gammainccinv(half, w))
        if self.mode_kind == "uniform-ball":
            rest = (d - k) / 2.0 + 1.0
            per_radius, t_max, weight = 1.0, 1.0, None
            base = (lambda t: betaincc(half, rest, t), lambda w: betainccinv(half, rest, w))
        else:
            per_radius = self._sigmas_per_radius()
            t_max = per_radius ** 2
            norm = float(gammainc(d / 2.0, t_max / 2.0))
            if k == d:
                weight = lambda t: np.full(np.shape(t), 1.0 / norm)
            else:
                weight = lambda t: gammainc((d - k) / 2.0, np.maximum(t_max - t, 0.0) / 2.0) / norm
            base = chi2
        laws = [_ComponentNormLaw(a, k, _OffsetLength(mode.radius / per_radius, *base, t_max,
                                                      weight) if mode.radius > 0 else None)
                for mode, a in zip(self.modes, distances)]
        bulk = _OffsetLength(self.bulk_scale, *chi2) if self.bulk_scale > 0 else None
        laws.append(_ComponentNormLaw(0.0, k, bulk))
        return laws

    def _radial_laws(self) -> list[tuple[float, _ComponentNormLaw]]:
        """(weight, law of |x|) per component: :meth:`norm_laws` at k = d."""
        return list(zip(self._component_weights().tolist(),
                        self._laws(self.d, [m.distance for m in self.modes])))

    def mass_within_origin_ball(self, radius: float, n: int = 100_000) -> float:
        """Mixture mass of the closed ball B(0, radius), deterministic: the
        sum over components of weight times ``law.within(radius)`` on the
        laws of |x|.  Nothing is drawn; ``n`` is accepted and ignored,
        because ``perfbench/tracer.py`` reads it.
        """
        return min(1.0, sum(w * law.within(radius) for w, law in self._radial_laws()))

    def _mass_outside_origin_ball(self, radius: float) -> float:
        """Mixture mass outside B(0, radius), summed from the outside's own
        side, so a mass far below 1e-16 keeps its digits."""
        return sum(w * law.beyond(radius)[0] for w, law in self._radial_laws())


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

    @property
    def passed(self) -> bool:
        return bool(RELATIONS[self.relation](self.value, self.threshold))


def validate_data_spec(spec: MultiModalData, n: int = 100_000) -> tuple[CheckResult, ...]:
    """Measure the admissibility constraints of a data mixture.

    Checks the designated-mode placement (|x0| = R(1+delta) and radius =
    delta*R, both to 1e-12 relative), the mode-mass inequality b > 3*eps
    against the stored weight, and the tail condition: the mass outside
    B(0, R(1+2delta)), summed over the components' laws of |x| from the
    outside, must lie below eps/2, read without a draw.  ``n`` is accepted
    and ignored, because ``perfbench/tracer.py`` reads it.
    """
    mode = spec.designated_mode
    dists = np.array([m.distance for m in spec.modes])
    n_at_max = int(np.sum(dists >= dists.max() * (1.0 - 1e-9)))
    outside = spec._mass_outside_origin_ball(spec.R * (1.0 + 2.0 * spec.delta))
    return (
        CheckResult("furthest-mode-distance", mode.distance, spec.R * (1.0 + spec.delta), "=="),
        CheckResult("furthest-mode-radius", mode.radius, spec.delta * spec.R, "=="),
        CheckResult("furthest-mode-unique", n_at_max, 1, "=="),
        CheckResult("mode-mass", mode.weight, 3.0 * spec.eps, ">"),
        CheckResult("far-mass-aggregate", spec.far_mass, 3.0 * spec.eps, ">"),
        CheckResult("tail-mass", outside, spec.eps / 2.0, "<"),
    )
