"""The package namespace: one export list per module."""

import multiwell
from multiwell import crossings, polynomial, spectrum, wells

MODULES = (polynomial, wells, spectrum, crossings)


def test_package_exports_exactly_the_module_exports():
    assert multiwell.__all__ == ["__version__"] + [
        name for module in MODULES for name in module.__all__]
    assert len(set(multiwell.__all__)) == len(multiwell.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(multiwell, name) is getattr(module, name), name
