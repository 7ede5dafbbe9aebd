"""Every order check's verdict agrees with the relation it reports.

A ``CheckResult`` with relation ``<``, ``<=``, ``>`` or ``>=`` passes exactly
when ``value <relation> threshold`` holds, so the line ``mixlab`` prints for
it never contradicts its PASS/FAIL verdict.
"""

import operator

import numpy as np
import pytest

from mixlab import ModeSpec, MultiModalData, check_compatibility, validate_data_spec
from mixlab.cli import resolve_config
from mixlab.experiments import run_cutoff, run_validate

ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

DATA = {"d": "8", "R": "50", "delta": "0.02", "eps": "0.05", "b_rho": "0.5"}
TEMPERED = {"process": "tempered", "profile_a": "0.6", "profile_p": "1", "ell": "0.4"}


def assert_relations_agree(checks):
    checks = list(checks)
    assert checks
    for c in checks:
        if c.relation in ORDER:
            assert c.passed == ORDER[c.relation](c.value, c.threshold), c


def spec(b_rho=0.5, eps=0.05, **kw):
    center = np.zeros(8)
    center[0] = 50.0 * 1.02
    return MultiModalData(8, 50.0, 0.02, eps, modes=(ModeSpec(center, 1.0, b_rho),), **kw)


@pytest.mark.parametrize("extra", [
    {"process": "ou", "n_points": "1000", "beta": "0.5"},
    {**TEMPERED, "n_points": "1000", "beta": "0.5", "rk_n": "20000"},
    {"process": "ou", "n_points": "1000", "b_rho": "0.15"},
], ids=["ou", "tempered", "ou-mode-mass-fails"])
def test_run_validate(extra):
    cfg = resolve_config("validate", {**DATA, **extra})
    assert_relations_agree(run_validate(cfg, 5).checks)


def test_run_cutoff():
    cfg = resolve_config("cutoff", {**DATA, "n": "5000"})
    assert_relations_agree(run_cutoff(cfg, 5).checks)


@pytest.mark.parametrize("args", [
    (1.0, 32.0, 0.01, 0.1, 10_000, 0.5, 2.0),
    (1.0, 100.0, 0.01, 0.1, 100, 0.4, 100.0 ** 0.4 / 2.0),
])
def test_check_compatibility(args):
    assert_relations_agree(check_compatibility(*args))


@pytest.mark.parametrize("b_rho,eps", [(0.15, 0.05), (0.75, 0.25)])
def test_mode_mass_at_three_eps_fails_strictly(b_rho, eps):
    # 3 * 0.25 == 0.75 exactly in float, so a weight equal to 3 eps must read FAIL
    checks = {c.name: c for c in validate_data_spec(spec(b_rho=b_rho, eps=eps))}
    for name in ("mode-mass", "far-mass-aggregate"):
        assert not checks[name].passed
    assert_relations_agree(checks.values())


def test_tail_mass_reports_the_bound_it_is_compared_with():
    # the true mass outside B(0, 52) is 0.5 P(chi2_8 > (52/13.225)^2) = 0.02540,
    # above eps/2: the check reads that closed form and must fail
    checks = {c.name: c for c in validate_data_spec(spec(bulk_scale=13.225), seed=2)}
    tail = checks["tail-mass"]
    assert not tail.passed
    assert tail.value > 0.05 / 2
    assert tail.threshold == pytest.approx(0.05 / 2 - 3.0 * tail.se, rel=1e-12)
    assert_relations_agree(checks.values())
