"""Property test of the command line: every schema-valid config of every
subcommand, at small sizes, ends in a documented exit code (0, 2, 3 or 4)
with no exception escaping :func:`main`.

Float keys are drawn across their whole interval, ends and float extremes
included; the size keys (d, n, reps, k and the list lengths) are kept
small so that each example runs in a fraction of a second.  The suite turns
RuntimeWarnings into errors, so an overflow on the way fails an example as a
traceback does.
"""

import math
import tempfile
from pathlib import Path

import pytest

from mixlab.cli import SCHEMAS, main

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

# the largest value drawn for each size key; the schema's own lower end holds
SIZE_CAPS = {"d": 2000, "n": 400, "reps": 3, "k": 8, "n_points": 10_000, "rk_n": 10_000}
LIST_CAPS = {"d_list": 3000}


def _interval(spec):
    lo, hi = (float(end) for end in spec.within[1:-1].split(","))
    return lo, hi, spec.within[0] == "(", spec.within[-1] == ")"


def _float_value(spec):
    lo, hi, open_lo, open_hi = _interval(spec)
    return st.floats(min_value=lo, max_value=min(hi, 1e300), exclude_min=open_lo,
                     exclude_max=open_hi and hi <= 1e300, allow_nan=False,
                     allow_infinity=False)


def _int_value(spec, cap):
    lo = 0 if spec.within is None else int(_interval(spec)[0])
    return st.integers(min_value=lo, max_value=max(lo, cap))


def _text(key, spec):
    """A strategy for the text of one valid value of ``key``."""
    if spec.choices is not None:
        return st.sampled_from(spec.choices)
    if spec.kind == "float":
        return _float_value(spec).map(repr)
    if spec.kind == "int":
        return _int_value(spec, SIZE_CAPS.get(key, 1000)).map(str)
    item = (_float_value(spec).map(repr) if spec.kind == "floats"
            else _int_value(spec, LIST_CAPS.get(key, 1000)).map(str))
    least = 0 if key == "times" else 1
    return st.lists(item, min_size=least, max_size=3).map(",".join)


@st.composite
def config_text(draw, sub):
    """The text of one ``sub`` config: every required key and a drawn subset
    of the optional ones, each at a valid value."""
    lines = []
    for key, spec in SCHEMAS[sub].items():
        if spec.default is None or key in SIZE_CAPS or draw(st.booleans()):
            lines.append(f"{key} = {draw(_text(key, spec))}")
    return "".join(line + "\n" for line in lines)


# cutoff at a large mu once merged a required horizon into a nearby row within
# 1e-12 absolute and then could not find the gate's row
LARGE_MU = "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\nn = 100\n"
# R sqrt(mu) = 0.972 passed a cut-off check without the onset radius 1, and
# t_onset < 0 then stopped the OU transition with a message naming no key
BELOW_ONSET = "d = 1\nR = 3\ndelta = 0.02\neps = 0.9\nmu = 0.105\nn = 200\n"
# the OU processes at a tiny mu: at 1e-17 the transition's variance once rounded
# to 0; at 1.1e-308 the stationary start overflowed; at 5e-324, mu/2 is 0
OU_AT_TINY_MU = "process = ou\nmu = 5e-324\nd = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"

# configs each subcommand runs besides its draws
PINNED = {
    "cutoff": [LARGE_MU + "mu = 1e13\ntimes = 1\n", LARGE_MU + "mu = 1e14\ntimes = 0\n",
               BELOW_ONSET],
    "ks-sweep": ["d = 64\nR = 50\nmu = 1e-17\nreps = 3\ntimes = 1\n",
                 "d = 125\nR = 0\nmu = 1.1125369292536007e-308\nreps = 1\n"],
    # at mu = 1e-323 and 1e-315 the exact r_k of N(0, I/mu) leaves the float
    # range, and at 1e-300 it breaks 2 r_k < R; each once exited without naming mu
    "lowerbound": [OU_AT_TINY_MU.replace("5e-324", mu)
                   for mu in ("5e-324", "1e-323", "1e-315", "1e-300")],
    "validate": [OU_AT_TINY_MU,
                 # a mode radius delta R of 1.5e-323 ends on the tail-mass ball in
                 # float, and its length nodes underflow to 0: the direction share
                 # once read 0/0 and printed nan
                 "d = 3\nR = 3.0\ndelta = 5e-324\neps = 0.5\n"],
}


@pytest.mark.parametrize("sub", sorted(SCHEMAS))
def test_every_valid_config_ends_in_a_documented_exit(sub):
    # each subcommand draws from its own schema, so editing one schema moves
    # no other subcommand's draws
    @settings(derandomize=True, database=None, deadline=None, max_examples=34,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=config_text(sub))
    def run(text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.cfg"
            cfg.write_text(text, encoding="utf-8")
            out = Path(tmp) / "out"
            code = main([sub, "--config", str(cfg), "--seed", "1", "--out", str(out)])
            assert code in (0, 2, 3, 4), text
            csv = out / f"{sub}.csv"
            if code in (0, 3) and csv.exists():
                assert "nan" not in csv.read_text()

    for text in PINNED.get(sub, ()):
        run = example(text=text)(run)
    run()
