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
    # only ConcaveRate uses the first two, and it imports them when called; no
    # module needs scipy.linalg or scipy.stats.  The exact r_k, the quantile root
    # finding and the start-law quadrature must not pull them in either, so a
    # lowerbound and a quantile-table call follow the import
    (tmp_path / "lb.cfg").write_text("process = tempered\nd = 8\nR = 400\ndelta = 0.02\n"
                                     "eps = 0.05\nn = 200\n")
    (tmp_path / "qt.cfg").write_text("p_list = 1.2\nd_list = 3,30\n")
    code = "\n".join([
        "import sys, mixlab.cli",
        LOADED,
        "from mixlab.cli import main",
        f"assert main(['lowerbound', '--config', {str(tmp_path / 'lb.cfg')!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0",
        f"assert main(['quantile-table', '--config', {str(tmp_path / 'qt.cfg')!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0",
        LOADED,
    ])
    src = str(Path(mixlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    lines = [line for line in out.stdout.splitlines() if line.startswith("[")]
    assert lines == ["[]", "[]"]
