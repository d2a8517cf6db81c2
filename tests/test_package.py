"""The package namespace: __all__ lists exactly the public names it binds."""

import types

import symtwistor


def test_all_lists_exactly_the_public_names_of_the_package():
    bound = {
        name for name, value in vars(symtwistor).items()
        if (not name.startswith("_") or name == "__version__")
        and not isinstance(value, types.ModuleType)
    }
    exported = symtwistor.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) - bound == set()  # no stale export
    assert bound - set(exported) == set()  # no public name missing
