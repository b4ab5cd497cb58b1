"""Package surface: the names `from splitplot import *` exports."""

import types

import splitplot


def test_all_names_resolve_to_non_module_attributes():
    assert splitplot.__all__ == sorted(set(splitplot.__all__))
    for name in splitplot.__all__:
        assert not isinstance(getattr(splitplot, name), types.ModuleType), name
    assert "inference" not in splitplot.__all__ and "reml_fit" in splitplot.__all__
