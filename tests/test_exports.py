from __future__ import annotations

import types

import welfair


def test_every_exported_name_resolves():
    assert len(set(welfair.__all__)) == len(welfair.__all__)
    for name in welfair.__all__:
        assert getattr(welfair, name, None) is not None, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from welfair import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(welfair.__all__)
    # and __all__ leaves out no public name that __init__ imports
    public = {
        name
        for name, value in vars(welfair).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(welfair.__all__)
