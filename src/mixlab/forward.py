"""Forward noising diffusions: exact OU transitions and tempered Langevin paths.

Both families are radial, b(x) = c(|x|) x and sigma(x) = s(|x|) I, and state
c and s once, as ``drift_coefficient(r)`` and ``noise_scale(r)``: the
admissibility probes and the tempered Euler-Maruyama step read a process only
through them.  ``sample_endpoints`` draws time-t marginals, exact for OU.  As
c and s read only |x|, the tempered chain is run, exactly in law, on two
scalars per path (the coordinate along x0 and the distance from that axis) and
the d coordinates are rebuilt once at the end: a step costs O(n) whatever d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import _h_and_hg, _radius
from .errors import DivergenceError, DomainError, StructuralError
from .measures import CheckResult, RadialProfile, SphericalMeasure
from .rng import Seed, substream

# |x| beyond this radius, or a NaN coordinate, aborts integration as a numerical blow-up
DIVERGENCE_RADIUS = 1e12

# floor on H in the tempered drift, capping the negative power 2*ell - 1 near the origin
H_FLOOR = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    """Euler-Maruyama step size."""

    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise StructuralError("integrator step must be positive")


@dataclass(frozen=True)
class OUProcess:
    """dX = -mu X dt + sqrt(2) dB on R^d, invariant law N(0, I/mu)."""

    mu: float
    d: int

    def __post_init__(self):
        if not self.mu > 0:
            raise StructuralError("mu must be positive")
        if int(self.d) < 1:
            raise StructuralError("dimension d must be a positive integer")
        object.__setattr__(self, "d", int(self.d))

    def drift_coefficient(self, r):
        """c(r) = -mu at every radius: the drift at x is c(|x|) x."""
        return np.full(np.shape(r), -self.mu)

    def noise_scale(self, r):
        """s(r) = sqrt(2) at every radius: the dispersion at x is s(|x|) I."""
        return np.full(np.shape(r), math.sqrt(2.0))

    def drift(self, x):
        return -self.mu * np.asarray(x, dtype=float)

    def invariant_measure(self) -> SphericalMeasure:
        return SphericalMeasure(self.d, RadialProfile.quadratic(self.mu / 2.0))

    def evolve(self, points, T: float, seed: Seed) -> np.ndarray:
        """Exact time-T marginal per row: e^{-mu T} x + sqrt((1-e^{-2 mu T})/mu) Z.

        At T = 0 this is a copy of the points, and nothing is drawn.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if T < 0:
            raise DomainError("horizon T must be nonnegative")
        if T == 0:
            return pts.copy()
        decay = math.exp(-self.mu * T)
        # expm1 keeps the variance where 1 - e^{-2 mu T} would round to 0
        scale = math.sqrt(-math.expm1(-2.0 * (self.mu * T)) / self.mu)
        z = substream(seed).standard_normal(pts.shape)
        z *= scale
        z += decay * pts
        return z

    def sample_endpoints(self, x0, T: float, n: int, seed: Seed,
                         cfg: IntegratorConfig | None = None) -> np.ndarray:
        """n exact draws of X_T given X_0 = x0 (no discretization).

        ``cfg`` is ignored; it keeps the signature of the tempered sampler.
        """
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        return self.evolve(np.tile(x0, (int(n), 1)), T, seed)


@dataclass(frozen=True)
class TemperedLangevin:
    """Multiplicative-noise diffusion leaving exp(-H(|x|)) invariant.

    Coefficients, with H the radial profile and temperature ell >= 0:

        b(x)     = -Hf(|x|)^(2 ell - 1) (Hf(|x|) - 2 ell) H'(|x|) x/|x|,  b(0) = 0
        sigma(x) = sqrt(2) H(|x|)^ell I

    where Hf = max(H, H_FLOOR).  The floor applies to the drift only; it
    caps the negative power 2*ell - 1 < 0 near the origin without touching
    behaviour away from it.  The dispersion genuinely vanishes at the origin
    for ell > 0, and for ell > 1/2 the dynamics exactly at 0 are left as-is
    (a path started there does not move).
    """

    profile: RadialProfile
    ell: float
    d: int

    def __post_init__(self):
        if not self.ell >= 0:
            raise StructuralError("temperature ell must be nonnegative")
        if int(self.d) < 1:
            raise StructuralError("dimension d must be a positive integer")
        object.__setattr__(self, "d", int(self.d))

    def _drift_magnitude(self, h, r):
        """h^(2 ell - 1) (h - 2 ell) H'(r), the inward drift at radius r read at level h."""
        return h ** (2.0 * self.ell - 1.0) * (h - 2.0 * self.ell) * self.profile.deriv(r)

    def drift_coefficient(self, r):
        """c(r) = -Hf^(2 ell - 1) (Hf - 2 ell) H'(r) / r on an array of radii; 0 at r = 0."""
        # every radius is evaluated: at a finite r > 0 nothing divides by zero or
        # turns invalid, and what r = 0 makes of H'(0) / 0 is discarded
        with np.errstate(divide="ignore", invalid="ignore"):
            c = -self._drift_magnitude(np.maximum(self.profile.value(r), H_FLOOR), r) / r
        return np.where(r > 0, c, 0.0)

    def noise_scale(self, r):
        """s(r) = sqrt(2) H(r)^ell, unfloored; vanishes at r = 0 when ell > 0."""
        return math.sqrt(2.0) * self.profile.value(r) ** self.ell

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        out = self.drift_coefficient(_radius(pts))[:, None] * pts
        return out[0] if x.ndim == 1 else out

    def dispersion_scalar(self, x):
        """noise_scale(|x|) per row of a point batch."""
        return self.noise_scale(_radius(x))

    def invariant_measure(self) -> SphericalMeasure:
        return SphericalMeasure(self.d, self.profile)

    def _steps(self, T: float, h: float) -> list[float]:
        n_full = int(math.floor(T / h + 1e-12))
        rem = T - n_full * h
        steps = [h] * n_full
        if rem > 1e-12 * max(1.0, T):
            steps.append(rem)
        return steps

    def sample_endpoints(self, x0, T: float, n: int, seed: Seed,
                         cfg: IntegratorConfig | None = None) -> np.ndarray:
        """Euler-Maruyama endpoints of n independent paths from x0, shape (n, d).

        One step of the d-dimensional chain is X' = g X + s xi with
        g = 1 + drift_coefficient(r) dt, s = noise_scale(r) sqrt(dt),
        r = |X| and xi ~ N(0, I_d).  The chain is run, exactly in law, on two
        scalars per path: A = <X, e1> with e1 = x0/|x0| (the first axis when
        x0 = 0) and W = |X - A e1|.  Split xi into its part zeta1 along e1,
        its part zeta2 along X - A e1 and the d - 2 coordinates left; then

            A' = g A + s zeta1,    W'^2 = (g W + s zeta2)^2 + s^2 chi2_{d-2},

        and g, s depend on r = sqrt(A^2 + W^2) only, so (A, W) is a Markov
        chain with the law of (<X, e1>, |X - <X, e1> e1|).  The chain commutes
        with every rotation that fixes e1 and starts on the e1 axis, so at
        time T the direction of X - A e1 is uniform on the unit sphere
        orthogonal to e1 and independent of (A, W).  One direction draw per
        path rebuilds X_T: a step costs O(n) and only that draw costs O(n d).

        A path that leaves the radius ``DIVERGENCE_RADIUS`` or turns NaN
        raises ``DivergenceError`` with the step, the grid time it reached
        and the largest radius there; overflow in a step reaches that guard
        as inf or NaN rather than as a numpy warning.
        """
        if cfg is None:
            raise StructuralError("tempered Langevin sampling needs an IntegratorConfig")
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if T < 0:
            raise DomainError("horizon T must be nonnegative")
        n, d = int(n), x0.size
        if T == 0:
            return np.tile(x0, (n, 1))
        if cfg.step > T:
            raise DomainError("integrator step exceeds the horizon T")
        r0 = float(np.linalg.norm(x0))
        if r0 > 0:
            e1 = x0 / r0
        else:
            e1 = np.zeros(d)
            e1[0] = 1.0
        rng = substream(seed)
        a = np.full(n, r0)
        w = np.zeros(n)  # |X - A e1|; stays 0 when d = 1
        r = np.full(n, r0)
        z = np.empty((min(d, 2), n))
        t = 0.0
        # overflow and NaN are left to reach the divergence guard
        with np.errstate(over="ignore", invalid="ignore"):
            for i, dt in enumerate(self._steps(T, cfg.step)):
                g = self.drift_coefficient(r)
                g *= dt
                g += 1.0
                s = self.noise_scale(r)
                s *= math.sqrt(dt)
                rng.standard_normal(out=z)
                z *= s
                a *= g
                a += z[0]
                if d > 1:
                    w *= g
                    w += z[1]
                w *= w  # W^2 from here to the square root
                if d > 2:
                    s *= s
                    s *= rng.chisquare(d - 2, n)
                    w += s
                r = a * a
                r += w
                np.sqrt(r, out=r)
                np.sqrt(w, out=w)
                t += dt
                if not float(np.max(r, initial=0.0)) <= DIVERGENCE_RADIUS:  # also catches NaN
                    # A^2 overflows from |A| ~ 1e154 on, where hypot still reads the radius
                    r_max = float(np.max(np.hypot(a, w), initial=0.0))
                    raise DivergenceError(
                        f"path diverged (|x| > {DIVERGENCE_RADIUS:.0e} or NaN) at step {i}, "
                        f"t = {t:.6g}, largest |x| = {r_max:.6g}", i, t, r_max
                    )
        if d == 1:
            return a[:, None] * e1
        # X_T = A e1 + W v, with v uniform on the unit sphere orthogonal to e1
        pts = rng.standard_normal((n, d))
        pts -= (pts @ e1)[:, None] * e1
        pts *= (w / np.linalg.norm(pts, axis=1))[:, None]
        pts += a[:, None] * e1
        return pts


def check_linear_growth(process, mu: float, r) -> CheckResult:
    """Bound the radial drift |<b(x), x/|x|>| / (mu |x|) over the radii r.

    With b(x) = c(|x|) x this is |c(r)| / mu.  Radii below 1e-12 are
    skipped, and none left raises ``DomainError``; the largest ratio passes
    at most 1 + 1e-9.  The probe checks only the radii it is given
    (``validate`` passes those of :func:`probe_grid`).
    """
    r = np.asarray(r, dtype=float)
    r = r[r >= 1e-12]
    if not r.size:
        raise DomainError("every probe radius lies within 1e-12 of the origin")
    return CheckResult("linear-growth", float(np.max(np.abs(process.drift_coefficient(r)))) / mu,
                       1.0 + 1e-9, "<=")


def check_drift_condition(tl: TemperedLangevin, mu: float, r_max: float) -> CheckResult:
    """Verify H^(2 ell - 1) (H - 2 ell) H' <= mu r on a geometric radius grid.

    The condition bounds the inward drift magnitude by mu |x| and is what the
    generator inequality needs from the drift.  Evaluated on the exact
    (unfloored) profile over 4096 radii from 1e-8 r_max to r_max; the value
    is the largest excess over mu r plus a tolerance 1e-9 * (1 + mu r), and
    passes at most 0.
    """
    if not r_max * 1e-8 > 0:
        raise DomainError(f"r_max = {r_max:g} must be positive, with 1e-8 r_max above 0 in float")
    grid = np.geomspace(r_max * 1e-8, r_max, 4096)
    lhs = tl._drift_magnitude(tl.profile.value(grid), grid)
    max_excess = float(np.max(lhs - mu * grid - 1e-9 * (1.0 + mu * grid)))
    return CheckResult("drift-condition", max_excess, 0.0, "<=")


def check_dispersion_balance(process, k: int, r, g) -> CheckResult:
    """Check sum_j <a y_j, y_j> >= 3 <a G_hat, G_hat> at radii r and projection
    norms g (broadcast together, as :func:`probe_grid` returns them).

    G_hat = H G, with G the projection on k >= 3 orthonormal rows.  With
    a(x) = s(|x|)^2 I the sides are s^2 k and 3 s^2 (H|G|)^2, and H|G| < 1, so
    the inequality holds wherever s(r)^2 is finite: the row catches a noise
    scale that is not (inf - inf reads NaN, which fails).  Violations are
    relative to |lhs| + |rhs|; the largest passes at most 1e-9.
    """
    hg = _h_and_hg(g)[1]
    s = process.noise_scale(r)
    lhs, rhs = s * s * k, 3.0 * s * s * hg * hg
    viol = (rhs - lhs) / np.maximum(np.abs(lhs) + np.abs(rhs), 1e-300)
    return CheckResult("dispersion-balance", float(np.max(viol)), 1e-9, "<=")


class RegimeKind(str, Enum):
    SUBEXPONENTIAL = "subexponential"
    EXPONENTIAL = "exponential"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class Regime:
    kind: RegimeKind
    exponent: float | None = None

    def describe(self) -> str:
        if self.kind is RegimeKind.SUBEXPONENTIAL:
            return f"subexponential (rate exp(-c t^{self.exponent:.6g}))"
        return self.kind.value


def classify_ergodicity(p: float, ell: float) -> Regime:
    """Ergodicity regime of the tempered diffusion for tail exponent p, temperature ell.

    For p in (0,1): subexponential with exponent p/(2 - p - 2 ell p) while
    ell < 1/p - 1, exponential on the closed band [1/p - 1, 1/p - 1/2],
    uniform above.  For p in [1,2]: exponential up to ell = 1/p - 1/2, then
    uniform.  For p > 2: uniform for every ell >= 0.
    """
    if not p > 0:
        raise StructuralError("tail exponent p must be positive")
    if not ell >= 0:
        raise StructuralError("temperature ell must be nonnegative")
    if p > 2:
        return Regime(RegimeKind.UNIFORM)
    if p >= 1:
        if ell <= 1.0 / p - 0.5:
            return Regime(RegimeKind.EXPONENTIAL)
        return Regime(RegimeKind.UNIFORM)
    if ell < 1.0 / p - 1.0:
        return Regime(RegimeKind.SUBEXPONENTIAL, exponent=p / (2.0 - p - 2.0 * ell * p))
    if ell <= 1.0 / p - 0.5:
        return Regime(RegimeKind.EXPONENTIAL)
    return Regime(RegimeKind.UNIFORM)
