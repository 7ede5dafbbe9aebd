"""Value relations on interior ``quantile-table`` and ``validate`` draws.

Each relation ties a printed value to another printed value, to a config
value or to a closed form, so it needs no second implementation.

``quantile-table`` draws d in [3, 2000], k in [3, min(d, 8)], a in [0.1, 10],
p in [0.5, 2] and eps in [1e-3, 0.3], log-uniform but for k.  Each draw
raises DomainError or satisfies:

- q is nonincreasing in eps (read at eps and eps/2);
- r is hypot(1, q) bit for bit;
- at p = 2, exp(-a |x|^2) is N(0, I/(2a)) and 2a |G_k|^2 is chi-square
  with k degrees, so q = sqrt(gammainccinv(k/2, eps/2)/a), to 1e-12 relative.

``validate`` draws the box of ``lowerbound``'s relations (mu in [0.05, 20],
R sqrt(mu) in [20, 1e6], d in [3, 2000], delta in [1e-3, 0.2], eps in
[1e-3, 0.3]) with b_rho in [0.3, 0.9] and beta in (0, 1], half OU and half
tempered (p in [0.5, 2], a in [0.1, 10], ell in [0, 0.45]).  Every draw
reaches its checks (exit 0 or 3), and:

- an OU draw passes ``linear-growth``, ``dispersion-balance`` and
  ``generator-bound``, which OU meets by construction;
- ``data/mode-mass`` passes exactly when b_rho > 3 eps;
- on a tempered draw that ``lowerbound`` runs, ``generator-bound`` reads
  the same value in both, bit for bit: both probe ``probe_grid(R, d, k)``.
"""

import math

import pytest
from scipy.special import gammainccinv

from mixlab import ConfigError, DomainError
from mixlab.cli import resolve_config
from mixlab.experiments import run_lowerbound, run_quantile_table, run_validate

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_scale_property import log_uniform  # noqa: E402

DRAWS = 150


def run(runner, sub, cfg):
    """``runner`` on ``cfg`` as the config file would give it: text values as
    written, numbers by repr."""
    return runner(resolve_config(sub, {k: v if isinstance(v, str) else repr(v)
                                       for k, v in cfg.items()}), 0)


def check_named(res, name):
    check, = [c for c in res.checks if c.name == name]
    return check


@st.composite
def quantile_table_configs(draw):
    d = round(draw(log_uniform(3.0, 2000.0)))
    return {"d_list": d, "k": draw(st.integers(3, min(d, 8))), "a": draw(log_uniform(0.1, 10.0)),
            "p": draw(log_uniform(0.5, 2.0)), "eps": draw(log_uniform(1e-3, 0.3))}


def quantile_table_relations(cfg):
    """True when the draw runs, False when it raises DomainError; asserts the relations."""
    d, k, a, eps = cfg["d_list"], cfg["k"], cfg["a"], cfg["eps"]
    ps = sorted({cfg["p"], 2.0})  # p <= 2, so the p = 2 row is the last
    try:
        rows, half = (run(run_quantile_table, "quantile-table",
                          {"p_list": ",".join(map(repr, ps)), "d_list": d, "eps": e, "a": a,
                           "k": k}).rows for e in (eps, eps / 2.0))
    except DomainError:
        return False
    for row, row_half in zip(rows, half):
        q, r = row[f"q_d{d}"], row[f"r_d{d}"]
        assert row_half[f"q_d{d}"] >= q, (cfg, row["p"])
        assert r == math.hypot(1.0, q), (cfg, row["p"])
    chi = math.sqrt(gammainccinv(k / 2.0, eps / 2.0) / a)
    assert rows[-1][f"q_d{d}"] == pytest.approx(chi, rel=1e-12, abs=0.0), cfg
    return True


def test_quantile_table_relations():
    ran = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=DRAWS)
    @given(cfg=quantile_table_configs())
    def draw(cfg):
        ran.append(quantile_table_relations(cfg))

    draw()
    assert len(ran) >= DRAWS and 2 * sum(ran) >= len(ran), (sum(ran), len(ran))


@st.composite
def validate_configs(draw):
    mu = draw(log_uniform(0.05, 20.0))
    cfg = {"mu": mu, "R": draw(log_uniform(20.0, 1e6)) / math.sqrt(mu),
           "d": round(draw(log_uniform(3.0, 2000.0))), "delta": draw(log_uniform(1e-3, 0.2)),
           "eps": draw(log_uniform(1e-3, 0.3)), "b_rho": draw(log_uniform(0.3, 0.9)),
           "beta": draw(st.floats(0.0, 1.0, exclude_min=True))}
    if draw(st.booleans()):
        cfg.update(process="tempered", profile_p=draw(log_uniform(0.5, 2.0)),
                   profile_a=draw(log_uniform(0.1, 10.0)), ell=draw(st.floats(0.0, 0.45)))
    return cfg


def validate_relations(cfg):
    res = run(run_validate, "validate", cfg)
    assert check_named(res, "data/mode-mass").passed == (cfg["b_rho"] > 3.0 * cfg["eps"])
    if "process" not in cfg:
        for name in ("linear-growth", "dispersion-balance", "generator-bound"):
            assert check_named(res, name).passed, (cfg, name)
        return
    lower = {k: v for k, v in cfg.items() if k != "beta"}
    try:
        bound = run(run_lowerbound, "lowerbound", lower)
    except ConfigError:
        return
    assert check_named(res, "generator-bound").value == \
        check_named(bound, "generator-bound").value, cfg


def test_validate_relations():
    kinds = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=DRAWS)
    @given(cfg=validate_configs())
    def draw(cfg):
        validate_relations(cfg)
        kinds.append(cfg.get("process", "ou"))

    draw()
    assert len(kinds) >= DRAWS and min(kinds.count("ou"), kinds.count("tempered")) >= DRAWS // 3
