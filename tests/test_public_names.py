"""The package namespace re-exports each module's ``__all__``, declared once."""

import semifourier
from semifourier import errors, expansion, ladder, quadrature, spectral

MODULES = (spectral, quadrature, ladder, expansion, errors)


def test_package_all_is_the_modules_all():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert semifourier.__all__ == expected
    assert len(set(semifourier.__all__)) == len(semifourier.__all__)


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(semifourier, name) is getattr(module, name), f"{module.__name__}.{name}"
