"""Mixing-bound machinery: rate calculus, generator checks, TV bounds, horizons.

The lower bound rests on a scalar comparison argument.  A test function
H(x) = (1 + |G(x)|^2)^{-1/2} built from a k-dimensional projection G
satisfies (generator of the process applied to H) <= xi(H) for an increasing
concave rate xi; integrating 1/xi turns that into the growth envelope
``grow`` and its inverses, and Markov's inequality then bounds from below
the TV distance between the time-T marginal and the invariant measure:

    TV >= pi(H >= 1/r) - rho0(H >= C) - E_rho0[ r * grow(H(x), T) ; H < C ]

with C the starting level whose envelope reaches 1/r at time T.  The upper
bound for the OU process is the classical Gaussian KL formula squeezed
through Pinsker's inequality.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError
from .measures import (
    CheckResult,
    MultiModalData,
    SphericalMeasure,
    _checked_basis,
    _checked_k,
    projection_tail,
)
from .rng import Seed, derive, substream


class LinearRate:
    """Rate xi(s) = mu*s; the whole envelope calculus is closed form."""

    def __init__(self, mu: float):
        if not mu > 0:
            raise StructuralError("mu must be positive")
        self.mu = float(mu)

    def growth_time(self, u: float, v: float) -> float:
        """Integral of 1/xi from u to v: log(v/u)/mu."""
        if not u > 0:
            raise DomainError("lower limit must be positive")
        if v < u:
            raise DomainError("need u <= v")
        return math.log(v / u) / self.mu if np.isfinite(v) else math.inf

    def grow(self, u, y: float):
        """Envelope value after time y starting from u: u * exp(mu*y)."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0):
            raise DomainError("starting level must be positive")
        if y < 0:
            raise DomainError("time must be nonnegative")
        out = u * math.exp(self.mu * y)
        return float(out) if out.ndim == 0 else out

    def threshold_level(self, r: float, t: float) -> float:
        """Starting level whose envelope reaches 1/r at time t: exp(-mu t)/r."""
        if not r >= 1:
            raise DomainError("level r must be at least 1")
        if t < 0:
            raise DomainError("time must be nonnegative")
        # domain condition 1/r <= exp(mu t) holds automatically for r >= 1, t >= 0
        return math.exp(-self.mu * t) / r


class ConcaveRate:
    """Envelope calculus for a user-supplied positive increasing concave rate.

    The callable is screened at construction on 1000 log-spaced points of
    [1e-6, 1e3] (positivity, monotone increase, chord slopes nonincreasing
    within 1e-8).
    Integrals use adaptive quadrature at relative tolerance 1e-10; inverses
    use bracketed root finding.  The callable must be safe for concurrent
    evaluation.  scipy.integrate and scipy.optimize are imported by the
    methods that use them, since no subcommand reaches this class and the
    two imports would otherwise add to the start-up time of every CLI call.
    """

    def __init__(self, xi):
        self._fn = xi
        g = np.geomspace(1e-6, 1e3, 1000)
        v = np.array([float(xi(s)) for s in g])
        if not np.all(np.isfinite(v)) or not np.all(v > 0):
            raise StructuralError("rate must be positive and finite on the diagnostic grid")
        dv = np.diff(v)
        if np.any(dv < -1e-12 * np.maximum(1.0, np.abs(v[:-1]))):
            raise StructuralError("rate must be nondecreasing on the diagnostic grid")
        slopes = dv / np.diff(g)
        if np.any(np.diff(slopes) > 1e-8):
            raise StructuralError("rate must be concave (chord slopes nonincreasing, 1e-8)")

    def growth_time(self, u: float, v: float) -> float:
        if not u > 0:
            raise DomainError("lower limit must be positive")
        if v < u:
            raise DomainError("need u <= v")
        if v == u:
            return 0.0
        from scipy.integrate import quad

        val, _ = quad(lambda s: 1.0 / float(self._fn(s)), u, v,
                      epsabs=0.0, epsrel=1e-10, limit=200)
        return float(val)

    def _sup_growth_time(self, u: float) -> float:
        from scipy.integrate import quad

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                val, _ = quad(lambda s: 1.0 / float(self._fn(s)), u, np.inf,
                              epsabs=0.0, epsrel=1e-10, limit=500)
            return float(val)
        except Exception:
            return math.inf

    def _grow_scalar(self, u: float, y: float) -> float:
        if not u > 0:
            raise DomainError("starting level must be positive")
        if y < 0:
            raise DomainError("time must be nonnegative")
        if y == 0:
            return float(u)
        from scipy.optimize import brentq

        hi = float(u)
        prev = 0.0
        for _ in range(2000):
            hi *= 2.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                g = self.growth_time(u, hi)
            if g >= y:
                break
            # a genuinely concave rate keeps gaining per doubling; stagnation
            # means the tail integral converges and y is out of range
            if hi > 1e280 or g - prev <= 1e-12 * max(1.0, g):
                sup = self._sup_growth_time(u)
                raise DomainError(
                    f"time {y} outside the envelope domain [0, {sup:.6g}) for start {u}"
                )
            prev = g
        return float(brentq(lambda v: self.growth_time(u, v) - y, u, hi,
                            xtol=1e-300, rtol=1e-12))

    def grow(self, u, y: float):
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return self._grow_scalar(float(u), y)
        return np.array([self._grow_scalar(float(ui), y) for ui in u])

    def threshold_level(self, r: float, t: float) -> float:
        """Solve growth_time(C, 1/r) = t for the starting level C."""
        if not r >= 1:
            raise DomainError("level r must be at least 1")
        if t < 0:
            raise DomainError("time must be nonnegative")
        target = 1.0 / r
        if t == 0:
            return target
        from scipy.optimize import brentq

        f = lambda c: self.growth_time(c, target) - t
        lo = target
        while lo > 1e-300:
            lo /= 2.0
            if f(lo) >= 0.0:
                return float(brentq(f, lo, target, xtol=1e-300, rtol=1e-12))
        raise DomainError(
            f"level 1/r = {target:.6g} is below the time-{t} envelope floor "
            "(no starting level reaches it)"
        )


@dataclass(frozen=True)
class SubspaceProjector:
    """Orthogonal projection onto k >= 3 orthonormal directions, with the
    bounded test function H(x) = (1 + |G(x)|^2)^{-1/2} in (0, 1]."""

    basis: np.ndarray

    def __post_init__(self):
        b = _checked_basis(self.basis, None, least=3).copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def containing_direction(cls, direction, k: int) -> "SubspaceProjector":
        """Deterministic orthonormal basis whose first vector is ``direction``.

        Completes with the standard basis vectors least aligned with the
        direction, orthonormalized by QR.
        """
        y1 = np.asarray(direction, dtype=float).reshape(-1)
        d = y1.size
        k = _checked_k(k, d, least=3)
        nrm = np.linalg.norm(y1)
        if nrm == 0:
            raise StructuralError("direction must be nonzero")
        y1 = y1 / nrm
        cols = [y1]
        for j in np.argsort(np.abs(y1), kind="stable"):
            if len(cols) == k:
                break
            e = np.zeros(d)
            e[j] = 1.0
            cols.append(e)
        q, rr = np.linalg.qr(np.column_stack(cols))
        signs = np.sign(np.diag(rr))
        signs[signs == 0] = 1.0
        return cls((q * signs).T)

    def coeffs(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.basis.T

    def proj_norm_sq(self, x) -> np.ndarray:
        c = self.coeffs(x)
        return (c * c).sum(axis=-1)

    def lyapunov(self, x) -> np.ndarray:
        """H(x) = (1 + |G(x)|^2)^{-1/2}; equals 1 at the origin."""
        return 1.0 / np.sqrt(1.0 + self.proj_norm_sq(x))

    def bounded(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(H(x), G_hat(x) = H(x) G(x)) for an (n, d) batch, by hypot: no |G|^2
        is formed, so both stay finite while the coefficients of G do."""
        c = self.coeffs(x)
        h = 1.0 / np.hypot(1.0, np.hypot.reduce(c, axis=1))
        return h, (c * h[:, None]) @ self.basis


def apply_generator(process, proj: SubspaceProjector, x):
    """Extended generator of ``process`` applied to the projector's test function.

    Uses the closed forms grad H = -H^3 G and
    Hess H = H^3 (3 H^2 G G^T - sum_j y_j y_j^T), so only the drift and the
    dispersion diagonal of the process are needed:

        A H(x) = <b(x), grad H(x)> + 0.5 * Tr(a(x) Hess H(x))
               = -H^2 <b, G_hat> + 0.5 H^3 (3 <a G_hat, G_hat> - sum_j <a y_j, y_j>)

    with G_hat = H G from :meth:`SubspaceProjector.bounded`, finite at far points.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    h, ghat = proj.bounded(pts)
    b = np.atleast_2d(process.drift(pts))
    adiag = np.asarray(process.dispersion_diag(pts), dtype=float)
    drift_term = -(h * h) * (b * ghat).sum(axis=1)
    agg = (adiag * ghat * ghat).sum(axis=1)
    ayy = adiag @ (proj.basis * proj.basis).sum(axis=0)
    disp_term = 0.5 * h ** 3 * (3.0 * agg - ayy)
    out = drift_term + disp_term
    return float(out[0]) if single else out


def check_generator_bound(process, proj: SubspaceProjector, mu: float, n_points: int,
                          seed: Seed, envelope_scale: float = 1.0) -> CheckResult:
    """Probe A H - mu*H over the envelope law N(0, scale^2 I); the largest
    excess passes at most 1e-9."""
    rng = substream(seed)
    x = envelope_scale * rng.standard_normal((int(n_points), proj.d))
    max_excess = float(np.max(apply_generator(process, proj, x) - mu * proj.lyapunov(x)))
    return CheckResult("generator-bound", max_excess, 1e-9, "<=")


@dataclass(frozen=True)
class LowerBoundReport:
    """Terms of the TV lower bound at horizon t.

    total = pi_term - rho_tail - integral holds as an exact
    arithmetic identity.  pi_term is exact (quadrature), so pi_se is 0 and
    total_se is the standard error of the per-sample start-law loss.
    """

    t: float
    threshold: float
    pi_term: float
    rho_tail: float
    integral: float
    total: float
    pi_se: float
    rho_tail_se: float
    integral_se: float
    total_se: float


def tv_lower_bound(pi: SphericalMeasure, rho0, proj: SubspaceProjector, rate,
                   r: float, times, n: int, seed: Seed) -> list[LowerBoundReport]:
    """Evaluate the three-term TV lower bound at each of ``times``.

    The bound reads x only through H(x) = (1 + |G(x)|^2)^{-1/2}.  The
    invariant-measure term pi(H >= 1/r) = 1 - :func:`projection_tail`
    (pi, k, sqrt(r^2 - 1)) is exact for every rotation-invariant ``pi``.
    The start law is Monte Carlo: n values of |G(x)| are drawn once, as
    the row norms of ``rho0.sample_coefficients`` on the projector's basis
    and substream (seed, 1), in O(n k) whatever d is, and every time reuses
    them (common random numbers), so only the threshold level and the
    envelope move with t.  ``rho0`` is a :class:`MultiModalData` or a
    :class:`SphericalMeasure` (the noise measure itself, for a stationarity
    sanity run).  Returns one report per time, in order.
    """
    if pi.d != proj.d or rho0.d != proj.d:
        raise StructuralError("noise measure, start law and projector dimensions differ")
    n = int(n)
    if n < 2:
        raise DomainError("need at least 2 samples")
    if not r >= 1:
        raise DomainError("level r must be at least 1")
    pi_term = 1.0 - projection_tail(pi, proj.k, math.sqrt(r * r - 1.0))
    c = rho0.sample_coefficients(n, proj.basis, derive(seed, 1))
    hvals = 1.0 / np.sqrt(1.0 + (c * c).sum(axis=1))
    reports = []
    for t in times:
        threshold = rate.threshold_level(r, t)
        tail = hvals >= threshold
        gam = np.zeros(n)
        if (~tail).any():
            gam[~tail] = rate.grow(hvals[~tail], t)
        integ = r * gam
        rho_tail = float(tail.mean())
        integral = float(integ.mean())
        loss = np.where(tail, 1.0, integ)
        reports.append(LowerBoundReport(
            t=float(t), threshold=float(threshold),
            pi_term=pi_term, rho_tail=rho_tail, integral=integral,
            total=pi_term - rho_tail - integral,
            pi_se=0.0,
            rho_tail_se=float(tail.std() / math.sqrt(n)),
            integral_se=float(integ.std() / math.sqrt(n)),
            total_se=float(loss.std()) / math.sqrt(n),
        ))
    return reports


@dataclass(frozen=True)
class GrowthEnvelopeReport:
    """Monte-Carlo check of E_x[H(X_t)] <= grow(H(x), t)."""

    estimate: float
    se: float
    bound: float
    start_value: float

    @property
    def passed(self) -> bool:
        # absolute 1e-12 covers zero-variance cases where the sample mean
        # of identical values rounds one ulp past the bound
        return self.estimate <= self.bound + 3.0 * self.se + 1e-12


def check_growth_envelope(process, proj: SubspaceProjector, rate, x, t: float,
                          n: int, seed: Seed, cfg=None) -> GrowthEnvelopeReport:
    """Estimate E_x[H(X_t)] from n endpoints of ``process.sample_endpoints``
    and compare to the envelope."""
    x = np.asarray(x, dtype=float).reshape(-1)
    vals = proj.lyapunov(process.sample_endpoints(x, t, int(n), seed, cfg))
    h0 = float(proj.lyapunov(x[None, :])[0])
    return GrowthEnvelopeReport(
        estimate=float(vals.mean()),
        se=float(vals.std() / math.sqrt(len(vals))),
        bound=float(rate.grow(h0, t)),
        start_value=h0,
    )


def gaussian_kl(m1, S1, m2, S2) -> float:
    """KL divergence between Gaussians N(m1, S1) and N(m2, S2).

    0.5 * (Tr(S2^-1 S1 - I) + (m1-m2)^T S2^-1 (m1-m2) + log det(S2 S1^-1)),
    computed through Cholesky factorizations; positive definiteness is
    validated by factorization success.
    """
    m1 = np.asarray(m1, dtype=float).reshape(-1)
    m2 = np.asarray(m2, dtype=float).reshape(-1)
    S1 = np.asarray(S1, dtype=float)
    S2 = np.asarray(S2, dtype=float)
    d = m1.size
    if m2.size != d or S1.shape != (d, d) or S2.shape != (d, d):
        raise StructuralError("mean/covariance shapes are inconsistent")
    try:
        L1 = np.linalg.cholesky(S1)
        L2 = np.linalg.cholesky(S2)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"covariance not positive definite: {exc}") from exc
    # with S2 = L2 L2^T, Tr(S2^-1 S1) = |L2^-1 L1|_F^2 and dm^T S2^-1 dm = |L2^-1 dm|^2
    a = np.linalg.solve(L2, np.column_stack([L1, m1 - m2]))
    tr = float(np.sum(a[:, :d] ** 2))
    quad_term = float(a[:, d] @ a[:, d])
    logdet1 = 2.0 * float(np.log(np.diag(L1)).sum())
    logdet2 = 2.0 * float(np.log(np.diag(L2)).sum())
    kl = 0.5 * (tr - d + quad_term + logdet2 - logdet1)
    return 0.0 if -1e-9 < kl < 0.0 else kl


def ou_tv_upper_bound(mu: float, rho0: MultiModalData, times,
                      n: int = 100_000, seed: Seed = 0) -> list[float]:
    """Pinsker upper bounds on the TV between the time-t OU marginal and
    N(0, I/mu), one per t in ``times``, in order.

    Splits the start law on B = B(0, R(1+2 delta)): the inside part is
    bounded by sqrt(KLbar/2) with
    KLbar = (mu/2) e^{-2 mu t} R^2 (1+2 delta)^2 + (d/2) e^{-4 mu t},
    the outside part contributes its full mass.  The mass of B does not
    depend on t and is read once for all times.  Requires mu*t > log(2)/2
    for the trace + log-det estimate inside KLbar.
    """
    if not all(mu * t > math.log(2.0) / 2.0 for t in times):
        raise DomainError("upper bound needs mu*t > log(2)/2")
    ball = rho0.R * (1.0 + 2.0 * rho0.delta)
    inside = rho0.mass_within_origin_ball(ball, n=n, seed=seed)
    bounds = []
    for t in times:
        klbar = 0.5 * mu * math.exp(-2.0 * mu * t) * ball ** 2 \
            + 0.5 * rho0.d * math.exp(-4.0 * mu * t)
        bounds.append(min(1.0, inside * math.sqrt(klbar / 2.0) + (1.0 - inside)))
    return bounds


@dataclass(frozen=True)
class HorizonSet:
    """Characteristic horizons of the forward process on a data mixture.

    t_lower       (1/mu) log(R/(2 r_k)): below it the TV lower bound holds.
    t_onset       log R - log(max(sqrt(2 log(1/eps)), 1)): mu=1 onset time,
                  TV still >= (b - eps)/2 there.
    t_mix         (1/mu) max(log(2 d^(1/4)/eps^(1/2)),
                  log(2 R (1+2 delta) sqrt(mu)/eps)): TV < eps beyond it.
    t_mix_simple  log R + log(1+2 delta) + log(1/eps): mu=1 variant.
    """

    t_lower: float | None
    t_onset: float
    t_mix: float
    t_mix_simple: float


def mixing_horizons(mu: float, R: float, delta: float, eps: float, d: int,
                    r_k: float | None = None) -> HorizonSet:
    """Evaluate every horizon formula; t_lower needs r_k and R > 2 r_k (else None)."""
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    if not mu > 0:
        raise DomainError("mu must be positive")
    if not R > 0:
        raise DomainError("R must be positive")
    t_lower = None
    if r_k is not None and R > 2.0 * r_k:
        t_lower = math.log(R / (2.0 * r_k)) / mu
    t_onset = math.log(R) - math.log(max(math.sqrt(2.0 * math.log(1.0 / eps)), 1.0))
    t_mix = max(
        math.log(2.0 * d ** 0.25 / math.sqrt(eps)),
        math.log(2.0 * R * (1.0 + 2.0 * delta) * math.sqrt(mu) / eps),
    ) / mu
    t_mix_simple = math.log(R) + math.log(1.0 + 2.0 * delta) + math.log(1.0 / eps)
    return HorizonSet(t_lower=t_lower, t_onset=t_onset, t_mix=t_mix, t_mix_simple=t_mix_simple)


def check_compatibility(mu: float, R: float, delta: float, eps: float, d: int,
                        beta: float, r_k: float) -> tuple[CheckResult, ...]:
    """Scale assumptions tying the data mixture to the forward process.

    (a) R >= sqrt(eps/mu) d^(1/4); (b) R^beta >= 2 sqrt(mu)(1+2 delta)/eps;
    (c) 2 r_k <= R^beta.  Reported with measured values and margins.
    """
    rb = R ** beta
    return (
        CheckResult("mode-distance-vs-dimension", R, math.sqrt(eps / mu) * d ** 0.25, ">="),
        CheckResult("tolerance-vs-distance", rb, 2.0 * math.sqrt(mu) * (1.0 + 2.0 * delta) / eps,
                    ">="),
        CheckResult("quantile-vs-distance", 2.0 * r_k, rb, "<="),
    )
