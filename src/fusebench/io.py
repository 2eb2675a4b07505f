"""File ingest and export: the boundary where sentinels become typed variants.

Formats
-------
Groundtruth / prediction files
    One frame per line, four real numbers ``x y w h`` separated by commas,
    spaces or tabs (mixes allowed). Blank lines are ignored. An all-zero
    row means the target is absent (groundtruth) or absence is declared
    (predictions). Values are taken verbatim; no 0- vs 1-indexing
    correction is applied.

Confidence sidecars
    One real number per line, same length as the prediction file it
    accompanies; conventional file name is the prediction file name plus
    the suffix ``.conf``.

Manifest (JSON)
    ``{"name": str?, "sequences": [{"id": str, "groundtruth": path,
    "subset": "rgb"|"tir"|"none"?}, ...]}``. Paths are relative to the
    manifest's directory. Sequence ids must be unique. Unknown keys are
    rejected.

Config (JSON)
    A single object with an optional ``"kind"`` key: ``"metrics"``
    (default) or ``"scenario"``. An empty file means all defaults. Unknown
    keys are rejected at every level; see README for the full key lists.

Results directory
    One prediction file per sequence, named ``<sequence id>.txt``, with
    optional ``<sequence id>.txt.conf`` sidecars.

Score table (CSV)
    ``benchmark,rgbt,rgb,tir`` rows, one per benchmark, with an optional
    header row; input to the balanced-benchmark indicators.

Box files and sidecars are parsed into validated columns
(:class:`~fusebench.model.TruthColumns`,
:class:`~fusebench.model.PredictionColumns`). Every file is read as UTF-8;
errors raised while reading a file name it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from importlib import resources
from pathlib import Path
from typing import Mapping, NoReturn, Sequence

import numpy as np

from .errors import (
    ConfigError,
    FusebenchError,
    MalformedLineError,
    NegativeExtentError,
    UnknownKeyError,
    _reading,
)
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
from .report import load_score_table
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
    "load_score_table",
    "metric_config_from_dict",
    "scenario_config_from_dict",
    "bundled_scenario_names",
    "bundled_scenario",
]

_SEP = re.compile(r"[,\s]+")

# Box files and sidecars are parsed in bulk: the whole text is split into
# fields and converted by ``float`` in one pass, then checked as an array.
# Only a file that fails those checks is parsed again line by line, to
# raise the error of its first bad line with the line number.


def _finite_floats(fields: list[str]) -> np.ndarray | None:
    """The fields as a float64 array, or None if any is not a finite number."""
    try:
        values = np.array(list(map(float, fields)), dtype=np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _check_box_line(line: str, line_no: int) -> None:
    parts = [p for p in _SEP.split(line.strip()) if p]
    if len(parts) != 4:
        raise MalformedLineError(f"expected 4 fields, got {len(parts)}", line_no)
    values = []
    for p in parts:
        try:
            v = float(p)
        except ValueError:
            raise MalformedLineError(f"not a number: {p!r}", line_no) from None
        if not math.isfinite(v):
            raise MalformedLineError(f"non-finite value: {p!r}", line_no)
        values.append(v)
    x, y, w, h = values
    if (x or y or w or h) and (w < 0 or h < 0):
        raise NegativeExtentError(f"line {line_no}: negative extent w={w}, h={h}", line_no)


def _check_confidence_line(line: str, line_no: int) -> None:
    try:
        v = float(line.strip())
    except ValueError:
        raise MalformedLineError(f"not a number: {line.strip()!r}", line_no) from None
    if not math.isfinite(v):
        raise MalformedLineError(f"non-finite confidence: {line.strip()!r}", line_no)


def _raise_first_error(text: str, check_line) -> NoReturn:
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            check_line(line, line_no)
    raise AssertionError("unreachable: a file that fails the bulk parse has a bad line")


def _box_values(text: str) -> np.ndarray:
    """``(n, 4)`` rows of a groundtruth/prediction file; fields are split on
    any run of commas and whitespace, blank lines are skipped."""
    canon = text.replace(",", " ")
    counts = list(map(len, map(str.split, canon.splitlines())))
    # a blank line is whitespace only: a line of commas has 0 fields but is an error
    if counts.count(4) == len(counts) or all(
        n == 4 or not line.strip() for n, line in zip(counts, text.splitlines())
    ):
        values = _finite_floats(canon.split())
        if values is not None:
            rows = values.reshape(-1, 4)
            if not ((rows[:, 2:] < 0.0).any(axis=1) & rows.any(axis=1)).any():
                return rows
    _raise_first_error(text, _check_box_line)


def _confidence_values(text: str) -> np.ndarray:
    """``(n,)`` values of a confidence sidecar, one per non-blank line."""
    fields = text.split()
    # every non-blank line holds a field, so equal counts mean one per line
    if len(fields) == sum(1 for line in text.splitlines() if line.strip()):
        values = _finite_floats(fields)
        if values is not None:
            return values
    _raise_first_error(text, _check_confidence_line)


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
            raise UnknownKeyError(k, where)


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a manifest and eagerly parse every referenced groundtruth file."""
    path = Path(path)
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
        for entry in entries:
            if not isinstance(entry, dict):
                raise ConfigError("sequence entries must be objects")
            _check_keys(entry, {"id", "groundtruth", "subset"}, "manifest")
            for key in ("id", "groundtruth"):
                if key not in entry:
                    raise ConfigError(f"sequence entry missing {key!r}")
                if not isinstance(entry[key], str):
                    raise ConfigError(f"sequence {key} must be a string, got {entry[key]!r}")
            if entry.get("subset", "none") not in list(Subset):  # list: a tag may be unhashable
                raise ConfigError(f"unknown subset tag {entry['subset']!r}")

    sequences: list[SequenceAnnotation] = []
    for entry in entries:
        sid = entry["id"]
        gt_path = path.parent / entry["groundtruth"]
        if not gt_path.is_file():
            raise FileNotFoundError(f"groundtruth file for sequence {sid!r} not found: {gt_path}")
        with _reading(gt_path):
            frames = _truth_columns(_read_text(gt_path))
            sequences.append(SequenceAnnotation(sid, frames, entry.get("subset", "none")))
    with _reading(path):
        return DatasetManifest(tuple(sequences), name=name)


def load_results(manifest: DatasetManifest, results_dir: str | Path) -> dict[str, PredictionColumns]:
    """Load one prediction file per manifest sequence from a directory.

    Files are ``<sequence id>.txt`` with optional ``.conf`` sidecars. Each
    sequence's predictions are returned as :class:`PredictionColumns`.
    """
    results_dir = Path(results_dir)
    out: dict[str, PredictionColumns] = {}
    for seq in manifest.sequences:
        pred_path = results_dir / f"{seq.id}.txt"
        if not pred_path.is_file():
            raise FileNotFoundError(f"prediction file for sequence {seq.id!r} not found: {pred_path}")
        conf_path = Path(str(pred_path) + ".conf")
        preds = _load_predictions(pred_path, conf_path if conf_path.is_file() else None)
        with _reading(pred_path):
            _check_lengths(seq.id, groundtruth=len(seq), predictions=len(preds))
        out[seq.id] = preds
    return out


def load_expert_stream(path: str | Path, expert: Expert | str) -> ExpertStream:
    """Load a prediction file plus its ``.conf`` confidence sidecar as an
    expert stream."""
    path = Path(path)
    conf_path = Path(str(path) + ".conf")
    if not path.is_file():
        raise FileNotFoundError(f"prediction file not found: {path}")
    if not conf_path.is_file():
        raise FileNotFoundError(f"confidence sidecar not found: {conf_path}")
    return ExpertStream(expert=Expert(expert), predictions=_load_predictions(path, conf_path))


def load_expert_streams(rgb: str | Path, tir: str | Path, rgbt: str | Path) -> tuple[ExpertStream, ...]:
    """Load the rgb, tir and rgbt streams that ``fuse`` selects between, each
    as by :func:`load_expert_stream`. A stream whose length differs from the
    RGB stream's is an error that names its file."""
    experts = (Expert.RGB, Expert.TIR, Expert.RGBT)
    streams = tuple(load_expert_stream(p, e) for p, e in zip((rgb, tir, rgbt), experts))
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


def metric_config_from_dict(d: Mapping) -> MetricConfig:
    """Build a MetricConfig from parsed JSON; unknown keys are rejected."""
    return _config(MetricConfig, {k: v for k, v in d.items() if k != "kind"}, "metrics config")


def scenario_config_from_dict(d: Mapping) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed JSON; unknown keys are rejected."""
    d = {k: v for k, v in d.items() if k != "kind"}
    for key in ("rgb", "tir"):
        if key in d:
            d[key] = _config(DegradationProfile, d[key], f"{key} degradation profile", target=Expert(key))
    if "fused" in d:
        d["fused"] = _config(FusedQualityModel, d["fused"], "fused quality model")
    return _config(ScenarioConfig, d, "scenario config")


def load_config(path: str | Path) -> MetricConfig | ScenarioConfig:
    """Load a JSON config file; ``kind`` selects metrics (default) or scenario.

    An empty file yields a default MetricConfig. Errors name the file.
    """
    path = Path(path)
    with _reading(path):
        text = _read_text(path).strip()
        raw = json.loads(text) if text else {}
        if not isinstance(raw, dict):
            raise ConfigError("config must hold a JSON object")
        kind = raw.get("kind", "metrics")
        if kind == "metrics":
            return metric_config_from_dict(raw)
        if kind == "scenario":
            return scenario_config_from_dict(raw)
        raise ConfigError(f"unknown config kind {kind!r} (use 'metrics' or 'scenario')")


# -- bundled scenarios -------------------------------------------------------


def bundled_scenario_names() -> tuple[str, ...]:
    """Names of the scenario configs shipped with the package."""
    pkg = resources.files("fusebench") / "data" / "scenarios"
    return tuple(sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json")))


def bundled_scenario(name: str) -> ScenarioConfig:
    """Load one of the scenario configs shipped with the package."""
    pkg = resources.files("fusebench") / "data" / "scenarios"
    candidate = pkg / f"{name}.json"
    try:
        text = candidate.read_text()
    except (FileNotFoundError, OSError):
        raise ConfigError(
            f"unknown bundled scenario {name!r}; available: {', '.join(bundled_scenario_names())}"
        ) from None
    raw = json.loads(text)
    return scenario_config_from_dict(raw)
