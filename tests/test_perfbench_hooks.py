"""The benchmark's tracer patches mixlab functions by name; a rename must fail here.

``perfbench/tracer.py`` wraps every function it lists with a timing wrapper
and reads some of their parameters by name.  This test installs the tracer
against the live package, makes small traced calls through the
Euler-Maruyama loop, ``mixlab validate`` and ``mixlab cutoff``, and restores
the originals.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import mixlab.cli  # the tracer patches every mixlab module it finds
from mixlab import IntegratorConfig, RadialProfile, TemperedLangevin

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unit_keys(units_fn):
    """The bound-argument names a unit function reads: its string constants.

    The tracer's unit functions read their arguments only as ``a["name"]``
    and carry no docstring, so every string constant is such a name.
    """
    return {c for c in units_fn.__code__.co_consts if isinstance(c, str)}


def test_every_traced_name_binds():
    tracer_mod = load_tracer()
    for layer, qual, _, units_fn in tracer_mod.functions():
        module = importlib.import_module(tracer_mod.LAYERS[layer][0])
        parts = qual.split(".")[1:]
        if len(parts) == 2:
            # the tracer patches methods in the class's own __dict__
            cls = getattr(module, parts[0])
            assert parts[1] in cls.__dict__, qual
            target = cls.__dict__[parts[1]]
        else:
            target = getattr(module, parts[0])
        assert callable(target), qual
        if units_fn is not None:
            params = inspect.signature(target).parameters
            missing = unit_keys(units_fn) - set(params)
            assert not missing, (qual, missing)


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
    # the loop steps two scalars per path from the radius alone, so it never
    # evaluates the d-dimensional drift or dispersion
    assert names.count("forward.TemperedLangevin.drift") == 0
    assert names.count("forward.TemperedLangevin.dispersion_scalar") == 0
    # the units of the loop span come from its n, T and cfg.step parameters
    loop = next(s for s in tracer.spans if s[0] == "forward.TemperedLangevin.sample_endpoints")
    assert loop[4] == 3 * 2


TEMPERED_VALIDATE = """process = tempered
profile_a = 0.6
profile_p = 1
ell = 0.4
d = 4
R = 50
delta = 0.02
eps = 0.05
b_rho = 0.5
n_points = 200
"""


def test_tracer_sees_the_admissibility_probes(tmp_path):
    cfg = tmp_path / "validate.cfg"
    cfg.write_text(TEMPERED_VALIDATE)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        code = mixlab.cli.main(["validate", "--config", str(cfg), "--seed", "3",
                                "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    for probe in ("forward.check_linear_growth", "forward.check_drift_condition",
                  "forward.check_dispersion_balance", "bounds.check_generator_bound",
                  "measures.validate_data_spec"):
        assert names.count(probe) == 1, probe
    # the tail mass is closed form for the data law validate builds
    assert names.count("measures.MultiModalData.sample") == 0
    # one envelope sample, read by all three process probes
    assert names.count("rng.substream") == 1


def test_cutoff_draws_its_start_projections_once(tmp_path):
    cfg = tmp_path / "cutoff.cfg"
    cfg.write_text("d = 16\nR = 50\ndelta = 0.02\neps = 0.05\nn = 1000\n")
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        code = mixlab.cli.main(["cutoff", "--config", str(cfg), "--seed", "3",
                                "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    # one substream for the shared start draw, one per grid time for the transition
    assert names.count("forward.OUProcess.evolve") == 10
    assert names.count("rng.substream") == 11


def test_tracer_reads_the_quantile_sample_count(tmp_path):
    # the tracer's unit count for projection_quantile reads its argument n,
    # which the exact quantile accepts and ignores: nothing is drawn
    cfg = tmp_path / "lowerbound.cfg"
    cfg.write_text("process = tempered\nd = 8\nR = 400\ndelta = 0.02\neps = 0.05\n"
                   "n = 200\nrk_n = 1000\n")
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        code = mixlab.cli.main(["lowerbound", "--config", str(cfg), "--seed", "3",
                                "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    quantile, = [s for s in tracer.spans if s[0] == "measures.projection_quantile"]
    assert quantile[4:] == (0, 0)
    # every lowerbound term is exact: no substream is opened, nothing is drawn
    names = [s[0] for s in tracer.spans]
    assert names.count("measures.projection_norm_samples") == 0
    assert names.count("rng.substream") == 0
