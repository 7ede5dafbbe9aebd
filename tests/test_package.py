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


def test_cli_import_leaves_out_optimize_and_integrate():
    # only ConcaveRate uses them, and it imports them when called; no module
    # needs scipy.linalg
    code = ("import sys, mixlab.cli; print([m for m in "
            "('scipy.optimize', 'scipy.integrate', 'scipy.linalg') if m in sys.modules])")
    src = str(Path(mixlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
