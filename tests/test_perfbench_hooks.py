"""The benchmark's tracer patches mixlab functions by name; a rename must fail here.

``perfbench/tracer.py`` wraps every function it lists with a timing wrapper
and reads some of their parameters by name.  This test installs the tracer
against the live package, makes one small traced call through the
Euler-Maruyama loop, and restores the originals.
"""

import importlib.util
from pathlib import Path

import numpy as np

import mixlab.cli  # noqa: F401  (the tracer patches every mixlab module it finds)
from mixlab import IntegratorConfig, RadialProfile, TemperedLangevin

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_mod = load_tracer()
    original = TemperedLangevin.__dict__["sample_endpoints"]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert TemperedLangevin.__dict__["sample_endpoints"] is not original
        tl = TemperedLangevin(RadialProfile.power_tail(1.0, 1.0), 0.25, 2)
        tl.sample_endpoints(np.ones(2), 0.02, 3, 0, IntegratorConfig(0.01))
    finally:
        tracer.uninstall()
    assert TemperedLangevin.__dict__["sample_endpoints"] is original
    names = [span[0] for span in tracer.spans]
    assert names.count("forward.TemperedLangevin.sample_endpoints") == 1
    assert names.count("forward.TemperedLangevin.drift") == 2
    assert names.count("forward.TemperedLangevin.dispersion_scalar") == 2
    # the units of the loop span come from its n, T and cfg.step parameters
    loop = next(s for s in tracer.spans if s[0] == "forward.TemperedLangevin.sample_endpoints")
    assert loop[4] == 3 * 2
