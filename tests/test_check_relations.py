"""Every check's verdict agrees with the relation it reports.

A ``CheckResult`` with relation ``<``, ``<=``, ``>`` or ``>=`` passes exactly
when ``value <relation> threshold`` holds, and one with ``==`` when the two
agree to 1e-12 relative, so the line ``mixlab`` prints for it never
contradicts its PASS/FAIL verdict.  The verdict is derived from the relation,
and no check site in the package computes one of its own.
"""

import ast
import math
import operator
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mixlab
from mixlab import (
    CheckResult,
    ModeSpec,
    MultiModalData,
    check_compatibility,
    validate_data_spec,
)
from mixlab.cli import resolve_config
from mixlab.experiments import run_cutoff, run_validate

ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
         "==": lambda v, t: abs(v - t) <= 1e-12 * abs(t)}

DATA = {"d": "8", "R": "50", "delta": "0.02", "eps": "0.05", "b_rho": "0.5"}
TEMPERED = {"process": "tempered", "profile_a": "0.6", "profile_p": "1", "ell": "0.4"}


def assert_relations_agree(checks):
    checks = list(checks)
    assert checks
    for c in checks:
        assert c.passed == ORDER[c.relation](c.value, c.threshold), c


def spec(b_rho=0.5, eps=0.05, **kw):
    center = np.zeros(8)
    center[0] = 50.0 * 1.02
    return MultiModalData(8, 50.0, 0.02, eps, modes=(ModeSpec(center, 1.0, b_rho),), **kw)


@pytest.mark.parametrize("extra", [
    {"process": "ou", "n_points": "1000", "beta": "0.5"},
    {**TEMPERED, "n_points": "1000", "beta": "0.5"},
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
    checks = {c.name: c for c in validate_data_spec(spec(bulk_scale=13.225))}
    tail = checks["tail-mass"]
    assert not tail.passed
    assert tail.value > 0.05 / 2
    assert tail.threshold == pytest.approx(0.05 / 2, rel=1e-12)
    assert_relations_agree(checks.values())


class TestVerdict:
    def test_fields(self):
        assert [f.name for f in fields(CheckResult)] == [
            "name", "value", "threshold", "relation"]

    @pytest.mark.parametrize("relation", sorted(ORDER))
    @pytest.mark.parametrize("value", [0.5, 1.0, 2.0, 1, 3])
    def test_order_relations(self, relation, value):
        c = CheckResult("c", value, 1.0, relation)
        assert c.passed is ORDER[relation](value, 1.0)

    def test_equal_to_1e_12_relative(self):
        t = 51.0
        assert CheckResult("c", t, t, "==").passed
        assert CheckResult("c", t * (1 + 0.5e-12), t, "==").passed
        assert not CheckResult("c", t * (1 + 2e-12), t, "==").passed
        assert not CheckResult("c", t * (1 - 2e-12), t, "==").passed
        assert CheckResult("c", 0.1 + 0.2, 0.3, "==").passed

    def test_equal_integer_value(self):
        assert CheckResult("c", 1, 1, "==").passed
        assert not CheckResult("c", 2, 1, "==").passed
        assert not CheckResult("c", 0, 1, "==").passed

    @pytest.mark.parametrize("relation", sorted(ORDER))
    def test_nan_value_fails(self, relation):
        assert not CheckResult("c", math.nan, 1.0, relation).passed
        assert not CheckResult("c", math.nan, 0.0, relation).passed


def check_result_calls():
    """Every ``CheckResult(...)`` call in the package source."""
    for path in sorted(Path(mixlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult":
                yield path.name, node


def is_boolean(node) -> bool:
    return (isinstance(node, (ast.Compare, ast.BoolOp))
            or (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not))
            or (isinstance(node, ast.Constant) and isinstance(node.value, bool)))


def test_no_check_site_passes_a_verdict():
    calls = list(check_result_calls())
    # 6 data checks, 4 in bounds, 3 in forward, 2 cutoff gates
    assert len(calls) >= 15
    for name, call in calls:
        where = f"{name}:{call.lineno}"
        assert "passed" not in [kw.arg for kw in call.keywords], where
        assert not any(is_boolean(a) for a in call.args + [kw.value for kw in call.keywords]), where
