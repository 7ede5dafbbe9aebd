import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import mixlab


def test_star_import_binds_no_module():
    namespace = {}
    exec("from mixlab import *", namespace)
    public = {k: v for k, v in namespace.items() if not k.startswith("__")}
    assert public, "star import bound nothing"
    assert not [k for k, v in public.items() if isinstance(v, ModuleType)]


def test_every_exported_name_resolves():
    for name in mixlab.__all__:
        assert hasattr(mixlab, name), name


LOADED = ("print([m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.linalg', "
          "'scipy.stats') if m in sys.modules])")


def test_cli_import_leaves_out_optimize_and_integrate(tmp_path):
    # importing scipy.optimize or scipy.integrate after scipy.special adds 0.15-0.30 s
    # to every CLI call's start-up, and no module needs scipy.linalg or scipy.stats.
    # The exact r_k, the quantile root finding, the start-law quadrature, the OU
    # transition, the binned TV, the KS test and the validate probes must not pull
    # them in either, so a call of every subcommand but classify follows the import
    configs = {
        "lowerbound": "process = tempered\nd = 8\nR = 400\ndelta = 0.02\neps = 0.05\nn = 200\n",
        "quantile-table": "p_list = 1.2\nd_list = 3,30\n",
        "cutoff": "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\nn = 200\ntimes = 0, 3\n",
        "ks-sweep": "d = 8\nR = 50\nreps = 2\n",
        "validate": "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\nn_points = 200\n",
    }
    calls = []
    for sub, text in configs.items():
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(text)
        calls.append(f"assert main([{sub!r}, '--config', {str(cfg)!r}, '--seed', '1', "
                     f"'--out', {str(tmp_path)!r}]) == 0, {sub!r}")
    code = "\n".join([
        "import sys, mixlab.cli",
        LOADED,
        "from mixlab.cli import main",
        *calls,
        LOADED,
    ])
    src = str(Path(mixlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    lines = [line for line in out.stdout.splitlines() if line.startswith("[")]
    assert lines == ["[]", "[]"]
