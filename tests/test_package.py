"""The package re-exports every public name of its modules."""

import pytest

import fusebench
from fusebench import analysis, errors, fusion, metrics, model, simulate


def _public_names(module) -> list[str]:
    if module is errors:  # no ``__all__``: every class it defines is public
        return [n for n, v in vars(errors).items() if isinstance(v, type) and v.__module__ == errors.__name__]
    return list(module.__all__)


@pytest.mark.parametrize("module", [errors, model, metrics, fusion, simulate, analysis], ids=lambda m: m.__name__)
def test_each_public_name_is_the_package_attribute(module):
    names = _public_names(module)
    assert names
    missing = [n for n in names if getattr(fusebench, n, None) is not getattr(module, n)]
    assert missing == []

