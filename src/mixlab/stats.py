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
    """The samples flattened and sorted in place; DomainError when empty or
    not all finite.  A writeable float64 array that flattens to a view is
    itself sorted, in its flat order; any other input is sorted in a copy."""
    x = np.asarray(samples, dtype=float).reshape(-1)
    if not x.flags.writeable:
        x = x.copy()
    x.sort()
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


def _binned_tv(xs: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray],
               lo: float, hi: float) -> float:
    """The TV of :func:`empirical_tv_1d` for the sorted finite sample xs."""
    if not lo < hi:
        raise StructuralError("bin_range must be an increasing interval")
    edges = np.linspace(lo, hi, max(2, math.ceil(math.sqrt(xs.size))) + 1)
    p = _bin_counts(xs, edges) / xs.size
    F = np.asarray(cdf(edges), dtype=float)
    q = np.diff(F)
    q[0] += F[0]
    q[-1] += 1.0 - F[-1]
    return 0.5 * float(np.abs(p - q).sum())


def empirical_tv_1d(samples_a, cdf: Callable[[np.ndarray], np.ndarray],
                    bin_range: tuple[float, float]) -> float:
    """Binned TV between a sample and an exact CDF on ``bin_range``.

    Computes 0.5 * sum_i |p_i - q_i| over equal-width bins on ``bin_range``:
    the p_i are the sample's bin frequencies, samples outside the range
    clipped into the edge bins, and the q_i the exact per-bin masses of
    ``cdf``, its tails absorbed into the edge bins.  There are
    max(2, ceil(sqrt(sample size))) bins.  The sample is sorted once, in
    place: a writeable float64 ``samples_a`` comes back sorted, in its flat
    order, holding the same values.  An empty or non-finite one raises
    DomainError.
    """
    a = _sorted_finite(samples_a)
    return _binned_tv(a, cdf, float(bin_range[0]), float(bin_range[1]))


def projected_tv_vs_gaussian(samples, mu: float) -> float:
    """Binned TV of the projections <x, u> in ``samples`` (flattened) against
    the exact N(0, 1/mu) CDF, in the bins of :func:`empirical_tv_1d` on a
    range that covers +-8 sd of it.  Like :func:`empirical_tv_1d` it sorts
    ``samples`` in place, so the range reads the sample's ends.

    This lower-bounds the full-space TV against the Gaussian noise measure
    N(0, I/mu), whose pushforward along any unit vector u is N(0, 1/mu).
    """
    t = _sorted_finite(samples)
    root_mu = math.sqrt(mu)
    return _binned_tv(t, lambda x: ndtr(np.asarray(x) * root_mu),
                      min(float(t[0]), -8.0 / root_mu), max(float(t[-1]), 8.0 / root_mu))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float


def ks_statistic(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> KSResult:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The p-value is the Kolmogorov survival function at sqrt(n) * D.
    ``samples`` is left as it is: the sort runs on a copy.
    """
    xs = _sorted_finite(np.array(samples, dtype=float))
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

