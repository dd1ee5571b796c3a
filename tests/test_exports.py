"""The package's export list matches what its __init__ binds."""

import importlib
import types

import pytest

import flagflow


def test_all_lists_exactly_the_public_names():
    for name in flagflow.__all__:
        assert hasattr(flagflow, name), name
    bound = {name for name, value in vars(flagflow).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    # sorted lists, so a name listed twice fails too
    assert sorted(flagflow.__all__) == sorted(bound)


def test_each_export_is_its_home_modules_object():
    for module, names in flagflow._EXPORTS.items():
        home = importlib.import_module(f"flagflow.{module}")
        for name in names:
            assert getattr(flagflow, name) is getattr(home, name), name


def test_dir_and_star_import_list_the_exports():
    assert set(flagflow.__all__) <= set(dir(flagflow))
    namespace = {}
    exec("from flagflow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(flagflow.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        flagflow.no_such_export  # noqa: B018
