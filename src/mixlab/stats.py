"""Scalar statistical measurement: binned TV and KS tests.

Full-dimensional TV between high-dimensional laws is not estimable, so all
distances here are one-dimensional, taken along fixed projections.  Any
projected TV lower-bounds the full-space TV (projections only merge events),
which is exactly the quantity the experiments need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import kolmogorov, ndtr

from .errors import DomainError, StructuralError


@dataclass(frozen=True)
class TVEstimate:
    """Binned 1D total-variation estimate between two distributions."""

    value: float
    bins: int


def empirical_tv_1d(samples_a, b, bins: int | None = None,
                    bin_range: tuple[float, float] | None = None) -> TVEstimate:
    """Binned TV between a sample and either a second sample or an exact CDF.

    Computes 0.5 * sum_i |p_i - q_i| over equal-width bins on ``bin_range``;
    mass outside the range is clipped into the edge bins.  When ``b`` is a
    CDF callable, the q_i are exact per-bin masses (with the CDF tails
    absorbed into the edge bins).  Default bins = ceil(sqrt(smaller sample size)).
    """
    a = np.asarray(samples_a, dtype=float).reshape(-1)
    if a.size == 0:
        raise DomainError("empty samples")
    cdf_mode = callable(b)
    if cdf_mode:
        n_eff = a.size
    else:
        bs = np.asarray(b, dtype=float).reshape(-1)
        if bs.size == 0:
            raise DomainError("empty samples")
        n_eff = min(a.size, bs.size)
    if bins is None:
        bins = max(2, int(math.ceil(math.sqrt(n_eff))))
    bins = int(bins)
    if bins < 2:
        raise StructuralError("need at least 2 bins")
    if bin_range is None:
        lo = float(a.min()) if cdf_mode else float(min(a.min(), bs.min()))
        hi = float(a.max()) if cdf_mode else float(max(a.max(), bs.max()))
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = float(bin_range[0]), float(bin_range[1])
        if not lo < hi:
            raise StructuralError("bin_range must be an increasing interval")
    edges = np.linspace(lo, hi, bins + 1)
    p = np.histogram(np.clip(a, lo, hi), bins=edges)[0] / a.size
    if cdf_mode:
        F = np.asarray(b(edges), dtype=float)
        q = np.diff(F)
        q[0] += F[0]
        q[-1] += 1.0 - F[-1]
    else:
        q = np.histogram(np.clip(bs, lo, hi), bins=edges)[0] / bs.size
    value = 0.5 * float(np.abs(p - q).sum())
    return TVEstimate(value=value, bins=bins)


def projected_tv_vs_gaussian(samples, mu: float, bins: int | None = None) -> TVEstimate:
    """Binned TV of the projections <x, u> in ``samples`` (flattened) against
    the exact N(0, 1/mu) CDF, on a range that covers +-8 sd of it.

    This lower-bounds the full-space TV against the Gaussian noise measure
    N(0, I/mu), whose pushforward along any unit vector u is N(0, 1/mu).
    """
    t = np.asarray(samples, dtype=float).reshape(-1)
    root_mu = math.sqrt(mu)
    bin_range = (min(float(t.min()), -8.0 / root_mu), max(float(t.max()), 8.0 / root_mu))
    return empirical_tv_1d(t, lambda x: ndtr(np.asarray(x) * root_mu), bins, bin_range)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float


def ks_statistic(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> KSResult:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The p-value is the Kolmogorov survival function at sqrt(n) * D.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size == 0:
        raise DomainError("empty samples")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite")
    n = x.size
    xs = np.sort(x)
    F = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - F))
    d_minus = float(np.max(F - (i - 1) / n))
    stat = min(1.0, max(0.0, max(d_plus, d_minus)))
    return KSResult(statistic=stat, p_value=float(kolmogorov(math.sqrt(n) * stat)))


def coordinate_ks(coords, mu: float, standardize: bool = False) -> KSResult:
    """KS test of d coordinates as d scalar draws against N(0, 1/mu).

    With ``standardize`` the coordinates are centred and scaled first and
    tested against N(0, 1).
    """
    if standardize:
        dev = coords - coords.mean()
        # scaled by the power of two at their largest magnitude, the squares stay
        # in the float range and the quotient dev / sd keeps every bit
        dev = np.ldexp(dev, -math.frexp(float(np.max(np.abs(dev))))[1])
        sd = math.sqrt(float(np.mean(dev * dev))) or 1.0
        return ks_statistic(dev / sd, ndtr)
    root_mu = math.sqrt(mu)
    return ks_statistic(coords, lambda x: ndtr(np.asarray(x) * root_mu))

