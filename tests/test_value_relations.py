"""Value relations on interior ``lowerbound`` draws.

Each relation ties a printed value to another printed value or to a closed
form, so it needs no second implementation.  An OU ``lowerbound`` config is
drawn inside the cut-off hypotheses: mu in [0.05, 20], R sqrt(mu) in
[20, 1e6], d in [3, 2000], delta in [1e-3, 0.2] and eps in [1e-3, 0.3], each
log-uniform.  On every draw:

- t_lower = log(R / (2 r_k)) / mu, and r_k does not read R, so
  t_lower(e R) - t_lower(R) = 1/mu;
- at r_k itself the pi term pi(H >= 1/r_k) is 1 - eps/2;
- r_k is the level ``quantile-table`` prints for N(0, I/mu), whose radial
  profile is a r^p at p = 2, a = mu/2;
- the horizon gate passes.
"""

import math

import pytest

from mixlab.cli import resolve_config
from mixlab.experiments import run_lowerbound, run_quantile_table

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_scale_property import log_uniform  # noqa: E402


@st.composite
def ou_lowerbound_configs(draw):
    mu = draw(log_uniform(0.05, 20.0))
    return {"mu": mu, "R": draw(log_uniform(20.0, 1e6)) / math.sqrt(mu),
            "d": round(draw(log_uniform(3.0, 2000.0))), "delta": draw(log_uniform(1e-3, 0.2)),
            "eps": draw(log_uniform(1e-3, 0.3))}


def run(runner, sub, cfg):
    return runner(resolve_config(sub, {k: repr(v) for k, v in cfg.items()}), 0)


def horizon_row(res):
    row, = [r for r in res.rows if r["t"] == r["t_lower"]]
    return row


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cfg=ou_lowerbound_configs())
def test_ou_lowerbound_relations(cfg):
    res = run(run_lowerbound, "lowerbound", cfg)
    row = horizon_row(res)
    mu, eps = cfg["mu"], cfg["eps"]

    far = horizon_row(run(run_lowerbound, "lowerbound", dict(cfg, R=math.e * cfg["R"])))
    assert far["t_lower"] - row["t_lower"] == pytest.approx(1.0 / mu, rel=1e-12, abs=0.0)

    assert row["pi_term"] == pytest.approx(1.0 - eps / 2.0, rel=1e-12, abs=0.0)

    d = cfg["d"]
    table = run(run_quantile_table, "quantile-table",
                {"p_list": 2.0, "d_list": d, "eps": eps, "a": mu / 2.0})
    assert row["r_k"] == table.rows[0][f"r_d{d}"]

    gate, = [c for c in res.checks if c.name == "lower-bound-at-horizon"]
    assert gate.passed, (cfg, gate)
