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


def test_dir_lists_every_public_name_before_any_is_used():
    # in a new interpreter: this module's other tests have cached the names they looked up
    code = "import fusebench; print(*dir(fusebench))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) >= {n for m in MODULES for n in _public_names(m)} | {"__version__"}


def test_io_and_cli_name_their_public_functions():
    # not re-exported by the package; the benchmark's tracer times each function these lists name
    from fusebench import cli, io

    assert cli.__all__ == ["main"]
    assert io.__all__ and all(callable(getattr(io, n)) and getattr(io, n).__module__ == io.__name__
                              for n in io.__all__)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(fusebench, "no_such_name")


def test_training_side_helpers_are_not_public():
    # a tracker computes its confidences and losses; fusebench reads confidences from files
    removed = ("ScoreMap", "confidence_from_score_map", "aggregate_expert_losses",
               "EmptyScoreMapError", "NegativeLossError")
    assert [n for n in removed if hasattr(fusebench, n) or hasattr(fusion, n) or hasattr(errors, n)] == []


def test_repeated_answers_are_not_public():
    # each repeated what another public name answers: the metrics kernel's
    # centre and area, ``not is_present``, ``len(sequences)``, ``subset_manifest``
    from fusebench import io

    removed = [(model.Box, "center"), (model.Box, "area"), (model.FramePrediction, "declares_absence"),
               (model.DatasetManifest, "m"), (model.DatasetManifest, "ids"), (model.DatasetManifest, "subset"),
               (io, "load_score_table")]
    assert [n for owner, n in removed if hasattr(owner, n)] == []
    assert "ScenarioReport" not in simulate.__all__
    assert callable(report.load_score_table)
    assert fusebench.ScenarioReport is metrics.ScenarioReport


def test_restated_answers_are_removed():
    # each answered what another name answers: ``load_config``,
    # ``MetricConfig()``, ``selection_ratios``, the ``cs_*`` fields and
    # ``fusebench.__main__.Expectation``
    from fusebench import cli, io

    removed = [(io, "metric_config_from_dict"), (io, "scenario_config_from_dict"),
               (metrics, "default_success_thresholds"), (metrics, "default_precision_thresholds"),
               (fusion.SelectionTrace, "count"), (fusion.SelectionRecord, "score_of"), (cli, "Expectation")]
    assert [n for owner, n in removed if hasattr(owner, n)] == []
    assert fusebench.load_score_table is report.load_score_table


def test_error_fields_nobody_reads_are_removed():
    # the line is in the message, which ``_reading`` prefixes; the sequence
    # id, key and tag are in the message too
    made = [errors.MalformedLineError("m"), errors.NegativeExtentError("m"),
            errors.MissingSequenceResultError("m"), errors.UnknownKeyError("m")]
    assert [e.args for e in made] == [("m",)] * 4
    removed = [(made[0], "line"), (made[1], "line"), (made[2], "sequence_id"), (made[3], "key"),
               (errors.EmptySubsetError("rgb"), "tag")]
    assert [n for owner, n in removed if hasattr(owner, n)] == []


def test_restated_entry_points_are_removed():
    # ``iou`` and ``degrade_modality`` answer them: the overlap of two
    # present frames, the simulated confidence rule and the derived mask
    import inspect

    removed = ("box_iou", "calibrate_confidence")
    assert [n for n in removed for owner in (fusebench, metrics, simulate) if hasattr(owner, n)] == []
    assert "mask" not in inspect.signature(simulate.degrade_modality).parameters


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
