"""Property test of :func:`projection_quantile` over the noise family's
ranges: it raises :class:`DomainError` or returns a finite root of
Tail(q) = eps/2 in a bounded number of tail evaluations."""

import math

import pytest

from mixlab import DomainError, RadialProfile, SphericalMeasure, projection_quantile, projection_tail

from test_measures import counted_tail_evaluations

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    log_d=st.floats(math.log(4.0), math.log(1e5)),
    p=st.floats(0.05, 2.0),
    log_a=st.floats(-2.0, 2.0),
    log_eps=st.floats(math.log(1e-6), math.log(0.9)),
)
def test_root_or_domain_error(log_d, p, log_a, log_eps):
    d, eps = round(math.exp(log_d)), math.exp(log_eps)
    pi = SphericalMeasure(d, RadialProfile.power_tail(math.exp(log_a), p))
    try:
        est, calls = counted_tail_evaluations(lambda: projection_quantile(pi, 3, eps))
    except DomainError as exc:
        assert "float range" in str(exc)
        return
    q = est.ball_radius
    assert math.isfinite(q) and q > 0.0
    assert abs(projection_tail(pi, 3, q) - eps / 2.0) <= 1e-12
    assert calls <= 16
