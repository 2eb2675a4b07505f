"""The package re-exports every public name of its modules, on first use."""

import subprocess
import sys

import pytest

import fusebench
from fusebench import analysis, errors, fusion, metrics, model, report, simulate

MODULES = [errors, report, model, metrics, fusion, simulate, analysis]


def _public_names(module) -> list[str]:
    if module is errors:  # no ``__all__``: every class it defines is public
        return [n for n, v in vars(errors).items() if isinstance(v, type) and v.__module__ == errors.__name__]
    return list(module.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_the_package_attribute(module):
    names = _public_names(module)
    assert names
    missing = [n for n in names if getattr(fusebench, n, None) is not getattr(module, n)]
    assert missing == []


def test_dir_lists_every_public_name():
    listed = set(dir(fusebench))
    assert [n for m in MODULES for n in _public_names(m) if n not in listed] == []
    assert {"__version__", "errors", "report"} <= listed


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(fusebench, "no_such_name")


def test_import_and_numpy_free_names_load_no_numpy():
    code = (
        "import sys, fusebench\n"
        "assert 'numpy' not in sys.modules\n"
        "fusebench.balanced_indicators, fusebench.export_report, fusebench.FusebenchError\n"
        "assert 'numpy' not in sys.modules\n"
        "fusebench.iou\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
