"""Reference implementations the tests read in place of package code.

``histogram_tv`` is the binned TV by ``np.histogram``: the oracle of
:func:`mixlab.empirical_tv_1d` against a CDF, and the tests' own two-sample
TV, a job the package does not do.  ``frame`` reads a point batch as the
(|x|, |G|) pairs that the process probes take.  ``in_frame`` restates a
mixture in a frame whose leading axes are given rows, so a projection on any
orthonormal rows is read as the package reads every projection: on the first
k coordinates.
"""

from dataclasses import replace

import numpy as np

from mixlab.bounds import _radius


def histogram_tv(a, b, bins: int, bin_range=None) -> float:
    """Binned TV between the sample ``a`` and either a second sample or an
    exact CDF ``b``: 0.5 sum_i |p_i - q_i| over ``bins`` equal-width bins on
    ``bin_range`` (for two samples, by default from the least to the largest
    of both), with every sample clipped into the range, so the edge bins take
    what lies outside.  Against a CDF the q_i are its exact bin masses, its
    tails in the edge bins.
    """
    lo, hi = bin_range or (min(np.min(a), np.min(b)), max(np.max(a), np.max(b)))
    edges = np.linspace(lo, hi, bins + 1)
    p = np.histogram(np.clip(a, lo, hi), bins=edges)[0] / np.size(a)
    if callable(b):
        F = b(edges)
        q = np.diff(F)
        q[0] += F[0]
        q[-1] += 1.0 - F[-1]
    else:
        q = np.histogram(np.clip(b, lo, hi), bins=edges)[0] / np.size(b)
    return 0.5 * float(np.abs(p - q).sum())


def frame(proj, x):
    """(|x|, |G|) for an (n, d) batch, all that the radial probes read of a
    point.  |G| comes from the k coefficients of G by hypot, so no |G|^2 is
    formed."""
    return _radius(x), np.hypot.reduce(proj.coeffs(np.atleast_2d(x)), axis=1)


def in_frame(spec, basis):
    """The mixture ``spec`` in a frame whose first k axes are the orthonormal
    rows of ``basis``, (k, d): each center c becomes its k coefficients
    basis @ c and, when k < d, its distance from their span as the next
    coordinate.  Every offset law is rotation invariant about its center, so
    the first k coordinates of the new mixture have the law of x @ basis.T
    under the old; along one unit vector u the center is [c.u, |c - (c.u) u|].
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    modes = []
    for m in spec.modes:
        full = np.zeros(spec.d)
        full[:m.center.size] = m.center
        c = basis @ full
        if len(c) < spec.d:
            c = np.append(c, np.linalg.norm(full - basis.T @ c))
        modes.append(replace(m, center=c))
    return replace(spec, modes=tuple(modes))
