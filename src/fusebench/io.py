"""File ingest and export: the boundary where sentinels become typed variants.

Formats
-------
Groundtruth / prediction files
    One frame per line, four real numbers ``x y w h`` separated by commas,
    spaces or tabs (mixes allowed). A line ends only at CR LF, CR or LF, so
    U+2028 and the other Unicode breaks are whitespace inside it. Blank
    lines are ignored. An all-zero row means the target is absent
    (groundtruth) or absence is declared (predictions). Values are taken
    verbatim; no 0- vs 1-indexing correction is applied.

Confidence sidecars
    One real number per line, same length as the prediction file it
    accompanies; conventional file name is the prediction file name plus
    the suffix ``.conf``.

Manifest (JSON)
    ``{"name": str?, "sequences": [{"id": str, "groundtruth": path,
    "subset": "rgb"|"tir"|"none"?}, ...]}``. Paths are relative to the
    manifest's directory. Sequence ids must be unique file names, not
    ``.`` or ``..`` and without a path separator. Unknown keys are rejected.

Config (JSON)
    A single object with an optional ``"kind"`` key: ``"metrics"``
    (default) or ``"scenario"``. An empty file means all defaults. Unknown
    keys are rejected at every level; see README for the full key lists.

Results directory
    One prediction file per sequence, named ``<sequence id>.txt``, with
    optional ``<sequence id>.txt.conf`` sidecars.

Score table (CSV)
    ``benchmark,rgbt,rgb,tir`` rows, one per benchmark, with an optional
    header row; input to the balanced-benchmark indicators. Read by
    :func:`fusebench.report.load_score_table`.

Box files and sidecars are parsed into validated columns
(:class:`~fusebench.model.TruthColumns`,
:class:`~fusebench.model.PredictionColumns`). Every file is read as UTF-8;
errors raised while reading a file name it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DuplicateSequenceIdError,
    FusebenchError,
    MalformedLineError,
    NegativeExtentError,
    UnknownKeyError,
    _lines,
    _reading,
)
from .fusion import EXPERTS
from .metrics import MetricConfig
from .model import (
    DatasetManifest,
    Expert,
    ExpertStream,
    FrameColumns,
    FramePrediction,
    FrameTruth,
    PredictionColumns,
    SequenceAnnotation,
    Subset,
    TruthColumns,
    _check_lengths,
)
from .simulate import (
    DegradationProfile,
    FusedQualityModel,
    ScenarioConfig,
)

__all__ = [
    "parse_groundtruth",
    "parse_predictions",
    "parse_confidences",
    "write_groundtruth",
    "write_predictions",
    "write_confidences",
    "load_manifest",
    "load_results",
    "load_expert_stream",
    "load_expert_streams",
    "load_config",
    "bundled_scenario_names",
    "bundled_scenario",
]

# Box files and sidecars are parsed by one ``np.loadtxt`` call. numpy's C
# reader splits on the whitespace ``str.split`` splits on and converts with
# the string-to-double ``float`` uses, but accepts less (``1_0``, ``٤``).
# The line checks below define the format. The bulk rows are used only where
# they provably equal the line parse; every other file is parsed line by
# line, which raises the first bad line's error, numbered by ``_reading``.


def _check_box_line(line: str) -> list[float]:
    parts = line.replace(",", " ").split()
    if len(parts) != 4:
        raise MalformedLineError(f"expected 4 fields, got {len(parts)}")
    values = []
    for p in parts:
        try:
            v = float(p)
        except ValueError:
            raise MalformedLineError(f"not a number: {p!r}") from None
        if not math.isfinite(v):
            raise MalformedLineError(f"non-finite value: {p!r}")
        values.append(v)
    w, h = values[2:]
    if w < 0 or h < 0:
        raise NegativeExtentError(f"negative extent w={w}, h={h}")
    return values


def _check_confidence_line(line: str) -> float:
    field = line.strip()
    try:
        v = float(field)
    except ValueError:
        raise MalformedLineError(f"not a number: {field!r}") from None
    if not math.isfinite(v):
        raise MalformedLineError(f"non-finite confidence: {field!r}")
    return v


def _line_rows(text: str, check_line, width: int) -> np.ndarray:
    """The reference parse: ``(n, width)`` rows of ``check_line`` on each
    non-blank line of ``text``, or the error of the first bad line."""
    rows = []
    for n, line in enumerate(_lines(text), start=1):
        if line.strip():
            with _reading(f"line {n}"):
                rows.append(check_line(line))
    return np.array(rows, dtype=np.float64).reshape(-1, width)


def _bulk_rows(text: str, fields: str, width: int) -> np.ndarray | None:
    """The rows of ``text`` by ``np.loadtxt`` over ``fields``, its lines with
    each separator a space; None wherever they may differ from the line parse."""
    if not fields.strip():  # nothing to parse, and loadtxt would warn
        return None
    lines = _lines(fields)
    try:
        rows = np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError:  # a bad line, or a field only float accepts
        return None
    if rows.shape[1] != width or not np.isfinite(rows).all():
        return None
    # one row per line, or per non-blank line of ``text`` (loadtxt skips the lines without a field)
    if len(rows) != len(lines) and len(rows) != sum(1 for line in _lines(text) if line.strip()):
        return None
    return rows


def _box_values(text: str) -> np.ndarray:
    """``(n, 4)`` rows of a groundtruth/prediction file; fields are split on
    any run of commas and whitespace, blank lines are skipped."""
    rows = _bulk_rows(text, text.replace(",", " "), 4)
    if rows is None or (rows[:, 2:] < 0.0).any():
        rows = _line_rows(text, _check_box_line, 4)
    return rows


def _confidence_values(text: str) -> np.ndarray:
    """``(n,)`` values of a confidence sidecar, one per non-blank line."""
    rows = _bulk_rows(text, text, 1)
    if rows is None:
        rows = _line_rows(text, _check_confidence_line, 1)
    return rows.ravel()


def _read_text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _truth_columns(text: str) -> TruthColumns:
    boxes = _box_values(text)
    return TruthColumns(boxes, boxes.any(axis=1))


def _load_predictions(path: Path, conf_path: Path | None) -> PredictionColumns:
    with _reading(path):
        boxes = _box_values(_read_text(path))
        if not len(boxes):  # a sequence has a frame, and fuse needs one to select
            raise FusebenchError("no predictions")
    conf = None
    if conf_path is not None:
        with _reading(conf_path):
            conf = _confidence_values(_read_text(conf_path))
    with _reading(path):
        return PredictionColumns(boxes, boxes.any(axis=1), conf)


def parse_groundtruth(text: str) -> list[FrameTruth]:
    """Parse a groundtruth file; all-zero rows become absent frames."""
    return list(_truth_columns(text))


def parse_confidences(text: str) -> list[float]:
    """Parse a confidence sidecar: one finite real per non-blank line."""
    return _confidence_values(text).tolist()


def parse_predictions(text: str, confidences: str | None = None) -> list[FramePrediction]:
    """Parse a prediction file, optionally attaching a confidence sidecar.

    All-zero rows become declared absences; confidences are attached
    positionally and must match the prediction count.
    """
    boxes = _box_values(text)
    conf = None if confidences is None else parse_confidences(confidences)
    return list(PredictionColumns(boxes, boxes.any(axis=1), conf))


def _box_lines(frames: FrameColumns) -> str:
    rows, present = frames.boxes.tolist(), frames.present.tolist()
    return "".join(
        f"{x!r},{y!r},{w!r},{h!r}\n" if p else "0,0,0,0\n" for (x, y, w, h), p in zip(rows, present)
    )


def write_groundtruth(frames: Sequence[FrameTruth]) -> str:
    """Serialize groundtruth frames; absent frames become all-zero rows.

    Float fields use shortest round-trip formatting, so parsing the output
    reproduces the input exactly.
    """
    return _box_lines(TruthColumns.from_frames(frames))


def write_predictions(preds: Sequence[FramePrediction]) -> str:
    """Serialize predictions in the groundtruth line format."""
    return _box_lines(PredictionColumns.from_frames(preds))


def write_confidences(preds: Sequence[FramePrediction]) -> str:
    """Serialize the confidence sidecar for a prediction list."""
    cols = PredictionColumns.from_frames(preds)
    if cols.confidence is None:
        missing = [i for i, p in enumerate(cols) if p.confidence is None]
        raise FusebenchError(f"predictions at frames {missing[:5]} have no confidence")
    return "".join(f"{c!r}\n" for c in cols.confidence.tolist())


def _check_keys(d: Mapping, allowed: set[str], where: str) -> None:
    for k in d:
        if k not in allowed:
            raise UnknownKeyError(f"unknown key {k!r} in {where}")


def _check_id(sid: str) -> None:
    """A sequence id must be a plain file name, so that ``<id>.txt`` stays in a results directory."""
    if sid in ("", ".", "..") or any(sep and sep in sid for sep in ("/", os.sep, os.altsep)):
        raise ConfigError(f"sequence id must be a plain file name, got {sid!r}")


def _manifest_entries(path: Path) -> tuple[str, list[dict]]:
    """The name and the checked sequence entries of the manifest at ``path``;
    ids are unique plain file names (:func:`_check_id`)."""
    with _reading(path):
        raw = json.loads(_read_text(path) or "{}")
        if not isinstance(raw, dict):
            raise ConfigError("manifest must hold a JSON object")
        _check_keys(raw, {"name", "sequences"}, "manifest")
        entries = raw.get("sequences", [])
        if not isinstance(entries, list):
            raise ConfigError("sequences must be a JSON list")
        if not entries:
            raise ConfigError("manifest must list at least one sequence")
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise ConfigError(f"name must be a string, got {name!r}")
        seen: set[str] = set()
        for entry in entries:
            if not isinstance(entry, dict):
                raise ConfigError("sequence entries must be objects")
            _check_keys(entry, {"id", "groundtruth", "subset"}, "manifest")
            for key in ("id", "groundtruth"):
                if key not in entry:
                    raise ConfigError(f"sequence entry missing {key!r}")
                if not isinstance(entry[key], str):
                    raise ConfigError(f"sequence {key} must be a string, got {entry[key]!r}")
            Subset(entry.get("subset", "none"))  # an unknown tag is a ConfigError
            sid = entry["id"]
            _check_id(sid)
            if sid in seen:
                raise DuplicateSequenceIdError(f"duplicate sequence id {sid!r}")
            seen.add(sid)
    return name, entries


def _load_sequence(root: Path, entry: dict) -> SequenceAnnotation:
    """The sequence of a checked manifest entry; its groundtruth path is relative to ``root``."""
    gt_path = root / entry["groundtruth"]
    if not gt_path.is_file():
        raise FileNotFoundError(f"groundtruth file for sequence {entry['id']!r} not found: {gt_path}")
    with _reading(gt_path):
        return SequenceAnnotation(entry["id"], _truth_columns(_read_text(gt_path)), entry.get("subset", "none"))


def _load_result(seq: SequenceAnnotation, results_dir: Path) -> PredictionColumns:
    """The predictions of ``seq`` in ``results_dir``; another length is an error naming the file."""
    _check_id(seq.id)
    pred_path = results_dir / f"{seq.id}.txt"
    if not pred_path.is_file():
        raise FileNotFoundError(f"prediction file for sequence {seq.id!r} not found: {pred_path}")
    conf_path = Path(str(pred_path) + ".conf")
    preds = _load_predictions(pred_path, conf_path if conf_path.is_file() else None)
    with _reading(pred_path):
        _check_lengths(seq.id, groundtruth=len(seq), predictions=len(preds))
    return preds


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a manifest and eagerly parse every referenced groundtruth file."""
    path = Path(path)
    name, entries = _manifest_entries(path)
    return DatasetManifest(tuple(_load_sequence(path.parent, e) for e in entries), name=name)


def load_results(manifest: DatasetManifest, results_dir: str | Path) -> dict[str, PredictionColumns]:
    """Load one prediction file per manifest sequence from a directory.

    Files are ``<sequence id>.txt`` with optional ``.conf`` sidecars. Each
    sequence's predictions are returned as :class:`PredictionColumns`.
    """
    return {seq.id: _load_result(seq, Path(results_dir)) for seq in manifest.sequences}


def load_expert_stream(path: str | Path, expert: Expert | str) -> ExpertStream:
    """Load a prediction file plus its ``.conf`` confidence sidecar as an
    expert stream."""
    path = Path(path)
    conf_path = Path(str(path) + ".conf")
    if not path.is_file():
        raise FileNotFoundError(f"prediction file not found: {path}")
    if not conf_path.is_file():
        raise FileNotFoundError(f"confidence sidecar not found: {conf_path}")
    return ExpertStream(expert=expert, predictions=_load_predictions(path, conf_path))


def load_expert_streams(rgb: str | Path, tir: str | Path, rgbt: str | Path) -> tuple[ExpertStream, ...]:
    """Load the rgb, tir and rgbt streams that ``fuse`` selects between, each
    as by :func:`load_expert_stream`. A stream whose length differs from the
    RGB stream's is an error that names its file."""
    streams = tuple(load_expert_stream(p, e) for p, e in zip((rgb, tir, rgbt), EXPERTS))
    for path, stream in zip((tir, rgbt), streams[1:]):
        with _reading(path):
            _check_lengths("expert streams", rgb=len(streams[0]), **{stream.expert.value: len(stream)})
    return streams


# -- configuration files ----------------------------------------------------

def _config(cls: type, d, where: str, **fixed):
    """Build the config dataclass ``cls`` from the JSON object ``d`` plus
    the ``fixed`` fields, which ``d`` may not set. Unknown keys are
    rejected; any other error names ``where`` and is a ConfigError."""
    if not isinstance(d, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    _check_keys(d, {f.name for f in dataclasses.fields(cls)} - fixed.keys(), where)
    try:
        return cls(**d, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path: str | Path) -> MetricConfig | ScenarioConfig:
    """Load a JSON config file; ``kind`` selects metrics (default) or scenario.

    An empty file yields a default MetricConfig. Unknown keys are rejected.
    Errors name the file.
    """
    path = Path(path)
    with _reading(path):
        text = _read_text(path).strip()
        raw = json.loads(text) if text else {}
        if not isinstance(raw, dict):
            raise ConfigError("config must hold a JSON object")
        kind = raw.pop("kind", "metrics")
        if kind == "metrics":
            return _config(MetricConfig, raw, "metrics config")
        if kind == "scenario":
            for key in ("rgb", "tir"):
                if key in raw:
                    raw[key] = _config(DegradationProfile, raw[key], f"{key} degradation profile", target=key)
            if "fused" in raw:
                raw["fused"] = _config(FusedQualityModel, raw["fused"], "fused quality model")
            return _config(ScenarioConfig, raw, "scenario config")
        raise ConfigError(f"unknown config kind {kind!r} (use 'metrics' or 'scenario')")


# -- bundled scenarios -------------------------------------------------------
_SCENARIOS = resources.files("fusebench") / "data" / "scenarios"


def bundled_scenario_names() -> tuple[str, ...]:
    """Names of the scenario configs shipped with the package."""
    return tuple(sorted(p.name[: -len(".json")] for p in _SCENARIOS.iterdir() if p.name.endswith(".json")))


def bundled_scenario(name: str) -> ScenarioConfig:
    """Load one of the scenario configs shipped with the package, by a name
    from :func:`bundled_scenario_names`."""
    names = bundled_scenario_names()
    if name not in names:
        raise ConfigError(f"unknown bundled scenario {name!r}; available: {', '.join(names)}")
    with resources.as_file(_SCENARIOS / f"{name}.json") as path:
        return load_config(path)
