"""Golden snapshots of every report export.

Each report type (curve, evaluation report, balance table, scenario
report, selection trace) is exported in ``csv``, ``json-lines`` and
``pretty-table`` on fixed inputs, and the full text is pinned. The inputs
cover evaluations with 0, 1 and 2 subsets, with and without untagged
sequences; balance tables with tied ranks; and a selection trace with exact
confidence ties and values such as 1/3 that print differently in full
precision and at 4 decimals.

A failing snapshot means an export changed byte for byte. To regenerate
deliberately, after saying why in CHANGES.md, run::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from fusebench import (
    Curve,
    DatasetManifest,
    ScenarioConfig,
    SelectionTrace,
    SequenceAnnotation,
    Subset,
    balanced_indicators,
    compositional_eval,
    export_report,
    parse_report,
    run_scenario,
)
from conftest import random_benchmark

GOLDEN = Path(__file__).with_name("golden") / "reports.json"
FORMATS = ("csv", "json-lines", "pretty-table")

PR_TABLE = [
    ("GTOT", 92.9, 84.9, 64.3),
    ("RGBT234", 87.5, 81.6, 76.5),
    ("LasHeR", 71.7, 62.4, 59.8),
    ("VTUAV-ST", 82.9, 76.1, 51.7),
    ("MV-RGBT", 65.3, 44.0, 39.7),
]


def tagged_evaluation(tags, seed):
    manifest, results = random_benchmark(np.random.default_rng(seed), n_sequences=len(tags), max_frames=12)
    manifest = DatasetManifest(tuple(
        SequenceAnnotation(id=s.id, frames=s.frames, subset=tag)
        for s, tag in zip(manifest.sequences, tags)
    ), name=manifest.name)
    return compositional_eval(manifest, results, tracker=f"tracker-{seed}")


def reports() -> dict:
    rgb, tir, none = Subset.RGB_DOMINANT, Subset.TIR_DOMINANT, Subset.UNSPECIFIED
    third = 1.0 / 3.0
    return {
        "curve linspace": Curve(tuple(np.linspace(0, 1, 11)), tuple(np.linspace(1, 0, 11) ** 3)),
        "curve thirds": Curve((0.0, third, 2 * third, 1.0), (1.0, 2 * third, third, 0.0)),
        "evaluation no subsets": tagged_evaluation([none, none, none], seed=1),
        "evaluation one subset": tagged_evaluation([rgb, none, rgb], seed=2),
        "evaluation two subsets": tagged_evaluation([tir, rgb, none, tir], seed=3),
        "evaluation two subsets all tagged": tagged_evaluation([rgb, tir, rgb, tir], seed=4),
        "balanced pr": balanced_indicators(PR_TABLE, metric="PR"),
        "balanced tied": balanced_indicators(
            [("a", 5.0, 5.0, 5.0), ("b", 7.0, 7.0, 7.0), ("c", 10.0, 10.0, 8.0),
             ("d", 10.0, 10.0, 8.0), ("e", 9.0, 8.5, 8.25)],
            metric="SR",
        ),
        "scenario": run_scenario(ScenarioConfig(n_sequences=2, n_frames=12, seed=7)),
        "trace": SelectionTrace(
            [0, 2, 1, 2, 0, 1, 2],
            [
                (third, third, third),
                (0.1, 0.2, 0.1 + 0.2),
                (0.25, 0.5, 0.5),
                (2 * third, 0.0, 2 * third),
                (1.0, 0.999999, 1.0),
                (0.0, 1e-9, 0.0),
                (0.123456789, 0.5, 0.987654321),
            ],
        ),
        "trace empty": SelectionTrace([], np.zeros((0, 3))),
    }


def snapshot() -> dict:
    return {f"{name} {fmt}": export_report(report, fmt)
            for name, report in reports().items() for fmt in FORMATS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return snapshot()


@pytest.mark.parametrize("key", sorted(f"{n} {f}" for n in reports() for f in FORMATS))
def test_export_matches_golden(golden, current, key):
    assert current[key] == golden[key]


@pytest.mark.parametrize("name", sorted(reports()))
def test_table_alias_equals_pretty_table(golden, name):
    assert export_report(reports()[name], "table") == golden[f"{name} pretty-table"]


@pytest.mark.parametrize("name", sorted(reports()))
def test_json_lines_round_trip_matches_golden(golden, name):
    text = golden[f"{name} json-lines"]
    assert export_report(parse_report(text), "json-lines") == text


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(snapshot())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
