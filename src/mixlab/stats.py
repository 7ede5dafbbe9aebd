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


def _sorted_finite(samples) -> np.ndarray:
    """The samples flattened and sorted; DomainError when empty or not all finite."""
    x = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    if x.size == 0:
        raise DomainError("empty samples")
    # a sorted array puts -inf first and inf and NaN last
    if not (np.isfinite(x[0]) and np.isfinite(x[-1])):
        raise DomainError("samples must be finite")
    return x


def _bin_counts(xs: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of the sorted sample xs in the bins of ``edges``, each bin closed
    on the left and the last closed on both sides, with every sample clipped
    into [edges[0], edges[-1]]: the edge bins take everything below and above.

    These are the counts of ``np.histogram(np.clip(xs, lo, hi), edges)``."""
    inner = edges[1:-1]
    cuts = np.searchsorted(xs, inner)
    # on a range a few float spacings wide an inner edge can round to lo, which
    # every clipped sample reaches
    cuts[inner <= edges[0]] = 0
    return np.diff(cuts, prepend=0, append=xs.size)


def empirical_tv_1d(samples_a, cdf: Callable[[np.ndarray], np.ndarray],
                    bin_range: tuple[float, float]) -> float:
    """Binned TV between a sample and an exact CDF on ``bin_range``.

    Computes 0.5 * sum_i |p_i - q_i| over equal-width bins on ``bin_range``:
    the p_i are the sample's bin frequencies, samples outside the range
    clipped into the edge bins, and the q_i the exact per-bin masses of
    ``cdf``, its tails absorbed into the edge bins.  There are
    max(2, ceil(sqrt(sample size))) bins.  The sample is sorted once; an
    empty or non-finite one raises DomainError.
    """
    a = _sorted_finite(samples_a)
    bins = max(2, math.ceil(math.sqrt(a.size)))
    lo, hi = float(bin_range[0]), float(bin_range[1])
    if not lo < hi:
        raise StructuralError("bin_range must be an increasing interval")
    edges = np.linspace(lo, hi, bins + 1)
    p = _bin_counts(a, edges) / a.size
    F = np.asarray(cdf(edges), dtype=float)
    q = np.diff(F)
    q[0] += F[0]
    q[-1] += 1.0 - F[-1]
    return 0.5 * float(np.abs(p - q).sum())


def projected_tv_vs_gaussian(samples, mu: float) -> float:
    """Binned TV of the projections <x, u> in ``samples`` (flattened) against
    the exact N(0, 1/mu) CDF, in the bins of :func:`empirical_tv_1d` on a
    range that covers +-8 sd of it.

    This lower-bounds the full-space TV against the Gaussian noise measure
    N(0, I/mu), whose pushforward along any unit vector u is N(0, 1/mu).
    """
    t = np.asarray(samples, dtype=float).reshape(-1)
    if t.size == 0:
        raise DomainError("empty samples")
    root_mu = math.sqrt(mu)
    bin_range = (min(float(t.min()), -8.0 / root_mu), max(float(t.max()), 8.0 / root_mu))
    return empirical_tv_1d(t, lambda x: ndtr(np.asarray(x) * root_mu), bin_range)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float


def ks_statistic(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> KSResult:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The p-value is the Kolmogorov survival function at sqrt(n) * D.
    """
    xs = _sorted_finite(samples)
    n = xs.size
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

