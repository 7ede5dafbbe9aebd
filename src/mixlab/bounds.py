"""Mixing-bound machinery: linear growth rate, generator checks, TV bounds, horizons.

The lower bound rests on a scalar comparison argument.  A test function
H(x) = (1 + |G(x)|^2)^{-1/2} built from a k-dimensional projection G
satisfies (generator of the process applied to H) <= mu H, the linear rate
xi(s) = mu s.  Integrating 1/xi gives the growth envelope
``grow(u, T) = u e^{mu T}`` and its inverses in closed form, and Markov's
inequality then bounds from below the TV distance between the time-T
marginal and the invariant measure:

    TV >= pi(H >= 1/r) - rho0(H >= C) - E_rho0[ r * grow(H(x), T) ; H < C ]

with C = e^{-mu T}/r the starting level whose envelope reaches 1/r at time
T.  The upper bound for the OU process is a closed-form bound on the
Gaussian KL divergence squeezed through Pinsker's inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainccinv, gammaincinv

from .errors import DomainError, StructuralError
from .measures import (
    CheckResult,
    MultiModalData,
    SphericalMeasure,
    _checked_basis,
    _checked_k,
    projection_tail,
)
from .rng import Seed


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

    def lyapunov(self, x) -> np.ndarray:
        """H(x) = (1 + |G(x)|^2)^{-1/2}; equals 1 at the origin.  Formed from
        |G| by hypot, as the probes form it, so it stays positive at far points."""
        return _h_and_hg(np.hypot.reduce(self.coeffs(x), axis=-1))[0]


def _radius(x) -> np.ndarray:
    """|x| per row of a point batch, by einsum, so no (n, d) temporary is
    formed; a row whose squares pass the float range reads inf."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _h_and_hg(g):
    """(H, H|G|) from |G| by hypot, so both stay finite where |G|^2 would not."""
    h = 1.0 / np.hypot(1.0, g)
    return h, h * g


def probe_grid(scale: float, d: int, k: int):
    """The fixed (|x|, |G|) grid on which ``validate`` and ``lowerbound`` probe
    a radial process in place of a sample of N(0, scale^2 I_d).

    r is 64 geometric radii between the scale * chi_d quantiles at 1e-9 and
    1 - 1e-9, where that law puts all but 2e-9 of its mass, returned as a
    (64, 1) column so a process's coefficients are read once per radius.
    |G| = r t with t in {0} and 64 geometric ratios over [1e-9, 1], since
    0 <= |G| <= |x|; the ratios are log-spaced because the excess of a
    tempered generator can peak at |G| far below |x|.  At k = d, |G| = |x|.
    Nothing is drawn and nothing grows with d.
    """
    k = _checked_k(k, d, least=3)
    ends = np.sqrt(2.0 * np.array([gammaincinv(0.5 * d, 1e-9), gammainccinv(0.5 * d, 1e-9)]))
    r = scale * np.geomspace(*ends, 64)[:, None]
    t = np.ones(1) if k == d else np.concatenate(([0.0], np.geomspace(1e-9, 1.0, 64)))
    return r, r * t


def _generator(process, k: int, r, g):
    """(H, A H) at radii r and projection norms g: the extended generator A
    of ``process`` applied to the projector's test function H.

    The process is read only through c = ``drift_coefficient`` and
    s = ``noise_scale``, with b(x) = c(|x|) x and sigma(x) = s(|x|) I.  By
    grad H = -H^3 G and Hess H = H^3 (3 H^2 G G^T - sum_j y_j y_j^T),

        A H(x) = <b(x), grad H(x)> + 0.5 * Tr(a(x) Hess H(x))
               = -c H^3 |G|^2 + 0.5 s^2 H^3 (3 H^2 |G|^2 - k),

    a function of (|x|, |G|) alone, formed from H and H|G| so that it stays
    finite at far points.
    """
    h, hg = _h_and_hg(g)
    s, hg2 = process.noise_scale(r), hg * hg
    return h, h * (0.5 * s * s * h * h * (3.0 * hg2 - k) - process.drift_coefficient(r) * hg2)


def check_generator_bound(process, k: int, mu: float, r, g) -> CheckResult:
    """Check A H - mu*H at radii r and projection norms g (broadcast together,
    as :func:`probe_grid` returns them), with H from the same |G| as A H; the
    largest excess passes at most 1e-9."""
    h, ah = _generator(process, k, r, g)
    return CheckResult("generator-bound", float(np.max(ah - mu * h)), 1e-9, "<=")


@dataclass(frozen=True)
class LowerBoundReport:
    """Terms of the TV lower bound at horizon t.

    Every term is exact (deterministic quadrature), and
    total = pi_term - rho_tail - integral holds as an arithmetic identity.
    """

    t: float
    threshold: float
    pi_term: float
    rho_tail: float
    integral: float
    total: float


def _h_of_norm(g):
    """H = (1 + |G|^2)^{-1/2} from |G|; a square past the float range reads H = 0."""
    with np.errstate(over="ignore"):
        return 1.0 / np.sqrt(1.0 + g * g)


def _norm_at_level(level: float) -> float:
    """The |G| at which H = 1/level: sqrt(level^2 - 1).  From 1e150 on, where
    the square could pass the float range, that is level itself to the last bit."""
    return math.sqrt(level * level - 1.0) if level < 1e150 else level


def tv_lower_bound(pi: SphericalMeasure, rho0: MultiModalData, proj: SubspaceProjector,
                   rate: LinearRate, r: float, times) -> list[LowerBoundReport]:
    """Evaluate the three-term TV lower bound at each of ``times``, exactly.

    The bound reads x only through H(x) = (1 + |G(x)|^2)^{-1/2}, so every
    term is a statement about the 1-D law of |G|.  The invariant-measure term
    pi(H >= 1/r) = 1 - :func:`projection_tail` (pi, k, sqrt(r^2 - 1)).  With
    C = e^{-mu t}/r the threshold level and q0 = sqrt(1/C^2 - 1), the
    start-law terms are

        rho_tail = rho0(|G| <= q0),
        integral = E_rho0[r grow(H, t); |G| > q0] = E_rho0[H; |G| > q0] / C,

    the last because the linear envelope gives r grow(H, t) = H / C.  Both
    come from ``rho0.norm_laws`` on the projector's basis, one fixed
    quadrature per mixture component, so no draw is made and the cost does
    not grow with d.  Returns one report per time, in order.
    """
    if pi.d != proj.d or rho0.d != proj.d:
        raise StructuralError("noise measure, start law and projector dimensions differ")
    if not r >= 1:
        raise DomainError("level r must be at least 1")
    pi_term = 1.0 - projection_tail(pi, proj.k, _norm_at_level(r))
    laws = rho0.norm_laws(proj.basis)
    reports = []
    for t in times:
        threshold = rate.threshold_level(r, t)
        # 1/C = r e^{mu t}, formed so that it is r itself at t = 0; past the
        # float range every start has H >= C
        decay = rate.threshold_level(1.0, t)
        level = r / decay if decay > 0 else math.inf
        rho_tail, integral = 1.0, 0.0
        if math.isfinite(level):
            q0 = _norm_at_level(level)
            for weight, law in laws:
                beyond, mean_h = law.beyond(q0, _h_of_norm)
                rho_tail -= weight * beyond
                integral += weight * mean_h * level
        reports.append(LowerBoundReport(
            t=float(t), threshold=float(threshold), pi_term=pi_term, rho_tail=rho_tail,
            integral=integral, total=pi_term - rho_tail - integral,
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


def ou_tv_upper_bound(mu: float, rho0: MultiModalData, times) -> list[float]:
    """Pinsker upper bounds on the TV between the time-t OU marginal and
    N(0, I/mu), one per t in ``times``, in order.

    Splits the start law on B = B(0, R(1+2 delta)): the inside part is
    bounded by sqrt(KLbar/2) with
    KLbar = (mu/2) e^{-2 mu t} R^2 (1+2 delta)^2 + (d/2) e^{-4 mu t},
    the outside part contributes its full mass.  Each mass, summed from its
    own side of B, does not depend on t and is read once for all times.
    Requires mu*t > log(2)/2 for the trace + log-det estimate inside KLbar.
    """
    if not all(mu * t > math.log(2.0) / 2.0 for t in times):
        raise DomainError("upper bound needs mu*t > log(2)/2")
    ball = rho0.R * (1.0 + 2.0 * rho0.delta)
    inside = rho0.mass_within_origin_ball(ball)
    outside = rho0._mass_outside_origin_ball(ball)
    bounds = []
    for t in times:
        klbar = 0.5 * mu * math.exp(-2.0 * mu * t) * ball ** 2 \
            + 0.5 * rho0.d * math.exp(-4.0 * mu * t)
        bounds.append(min(1.0, inside * math.sqrt(klbar / 2.0) + outside))
    return bounds


@dataclass(frozen=True)
class HorizonSet:
    """Characteristic horizons of the forward process on a data mixture.

    t_lower       (1/mu) log(R/(2 r_k)): below it the TV lower bound holds.
    t_onset       (1/mu) (log(R sqrt(mu)) - log(max(sqrt(2 log(1/eps)), 1))):
                  onset time, TV still >= (b - eps)/2 there.
    t_mix         (1/mu) max(log(2 d^(1/4)/eps^(1/2)),
                  log(2 R (1+2 delta) sqrt(mu)/eps)): TV < eps beyond it.
    t_mix_simple  (1/mu) (log(R sqrt(mu)) + log(1+2 delta) + log(1/eps)).

    The OU law at (mu, R) at time t is the law at (1, R sqrt(mu)) at time
    mu t scaled by 1/sqrt(mu), so the last three read R sqrt(mu) on the
    clock 1/mu.
    """

    t_lower: float | None
    t_onset: float
    t_mix: float
    t_mix_simple: float


def _onset_radius(eps: float) -> float:
    """max(sqrt(2 log(1/eps)), 1): t_onset >= 0 exactly when R sqrt(mu) reaches it."""
    return max(math.sqrt(2.0 * math.log(1.0 / eps)), 1.0)


def mixing_horizons(mu: float, R: float, delta: float, eps: float, d: int,
                    r_k: float | None = None) -> HorizonSet:
    """Evaluate every horizon formula; t_lower needs r_k and R > 2 r_k (else None)."""
    if r_k is not None and not r_k >= 1:
        raise DomainError("level r_k must be at least 1")
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    if not mu > 0:
        raise DomainError("mu must be positive")
    if not R > 0:
        raise DomainError("R must be positive")
    t_lower = None
    if r_k is not None and R > 2.0 * r_k:
        t_lower = math.log(R / (2.0 * r_k)) / mu
    log_r = math.log(R * math.sqrt(mu))
    t_onset = (log_r - math.log(_onset_radius(eps))) / mu
    t_mix = max(
        math.log(2.0 * d ** 0.25 / math.sqrt(eps)),
        math.log(2.0 * R * (1.0 + 2.0 * delta) * math.sqrt(mu) / eps),
    ) / mu
    t_mix_simple = (log_r + math.log(1.0 + 2.0 * delta) + math.log(1.0 / eps)) / mu
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
