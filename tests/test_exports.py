"""The package's export list matches what its __init__ binds."""

import types

import flagflow


def test_all_lists_exactly_the_public_names():
    for name in flagflow.__all__:
        assert hasattr(flagflow, name), name
    bound = {name for name, value in vars(flagflow).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    # sorted lists, so a name listed twice fails too
    assert sorted(flagflow.__all__) == sorted(bound)
