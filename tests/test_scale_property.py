"""Property test of the OU scale covariance over drawn configs.

In law, the OU state at (c mu, R/sqrt(c), t/c) is the state at (mu, R, t)
divided by sqrt(c).  With c a power of 4 every factor is a power of two, so
a drawn ``cutoff`` or ``ks-sweep`` config run at (mu, R, bulk_scale) and at
(c mu, R/sqrt(c), bulk_scale/sqrt(c)) gives the same float in every cell but
a time, and each time ``t``, ``t_onset`` and ``t_mix_simple`` is exactly c
times its scaled counterpart.  A config that one side rejects, the other
rejects with the same error type.  ``tests/test_experiments.py`` checks the
golden configs the same way.

Two limits of the relation, which the draws respect:

- R > 8, so that R/4 (c = 16) stays above the data keys' floor R > 2;
- a stationary ``ks-sweep`` start (R = 0) passes its ``times``, scaled by
  1/c, because its default grid 0, 1, 2, 4 is in absolute time and does not
  read mu.
"""

import math

import pytest

from mixlab import ConfigError, DomainError, StructuralError
from mixlab.cli import resolve_config
from mixlab.experiments import run_cutoff, run_ks_sweep
from mixlab.measures import MODE_KINDS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TIME_COLUMNS = ("t", "t_onset", "t_mix_simple")
ERRORS = (ConfigError, DomainError, StructuralError)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
MU = log_uniform(1e-3, 1e3)
R = log_uniform(8.5, 1e6)
# a subnormal time would lose bits when divided by 16
TIMES = st.lists(st.floats(0.0, 1e3, allow_subnormal=False), min_size=1, max_size=3)


@st.composite
def cutoff_configs(draw):
    cfg = {"d": draw(st.integers(1, 128)), "n": draw(st.integers(100, 800)), "R": draw(R),
           "mu": draw(MU), "delta": draw(UNIT), "eps": draw(UNIT),
           "b_rho": draw(st.floats(0.0, 1.0, exclude_min=True)),
           "mode_kind": draw(st.sampled_from(MODE_KINDS))}
    if draw(st.booleans()):
        cfg["bulk_scale"] = draw(log_uniform(1e-3, 1e6))
    if draw(st.booleans()):
        cfg["bins"] = draw(st.integers(2, 100))
    if draw(st.booleans()):
        cfg["times"] = tuple(draw(TIMES))
    return cfg


@st.composite
def ks_sweep_configs(draw):
    cfg = {"d": draw(st.integers(1, 128)), "R": draw(st.just(0.0) | R), "mu": draw(MU),
           "eps": draw(UNIT), "reps": draw(st.integers(1, 3))}
    if cfg["R"] == 0 or draw(st.booleans()):
        cfg["times"] = tuple(draw(TIMES))
    return cfg


def scaled(cfg, c):
    """The config at (c mu, R/sqrt(c), bulk_scale/sqrt(c)), times over c."""
    out = dict(cfg, mu=c * cfg["mu"], R=cfg["R"] / math.sqrt(c))
    if "bulk_scale" in cfg:
        out["bulk_scale"] = cfg["bulk_scale"] / math.sqrt(c)
    if "times" in cfg:
        out["times"] = tuple(t / c for t in cfg["times"])
    return out


def resolved(sub, cfg):
    """The config as the CLI resolves it from ``key = value`` text."""
    def text(v):
        if isinstance(v, tuple):
            return ",".join(map(repr, v))
        return v if isinstance(v, str) else repr(v)

    return resolve_config(sub, {k: text(v) for k, v in cfg.items()})


def outcome(runner, sub, cfg, seed):
    try:
        return runner(resolved(sub, cfg), seed)
    except ERRORS as exc:
        return type(exc)


def assert_covariant(runner, sub, cfg, c, seed):
    base = outcome(runner, sub, cfg, seed)
    other = outcome(runner, sub, scaled(cfg, c), seed)
    if isinstance(base, type):
        assert other is base, (cfg, c)
        return
    assert base.columns == other.columns and len(base.rows) == len(other.rows)
    for row, row_c in zip(base.rows, other.rows):
        for col in base.columns:
            if col in TIME_COLUMNS:
                assert row[col] == c * row_c[col], (cfg, c, col)
            else:
                assert row[col] == row_c[col], (cfg, c, col)


SCALE_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)
C = st.sampled_from([0.25, 4.0, 16.0])
SEED = st.integers(0, 2 ** 32)


@SCALE_SETTINGS
@given(cfg=cutoff_configs(), c=C, seed=SEED)
def test_cutoff_is_scale_covariant(cfg, c, seed):
    assert_covariant(run_cutoff, "cutoff", cfg, c, seed)


@SCALE_SETTINGS
@given(cfg=ks_sweep_configs(), c=C, seed=SEED)
def test_ks_sweep_is_scale_covariant(cfg, c, seed):
    assert_covariant(run_ks_sweep, "ks-sweep", cfg, c, seed)
