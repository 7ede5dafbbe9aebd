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
