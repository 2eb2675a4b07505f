import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusebench import (
    Box,
    ConfigError,
    DatasetManifest,
    DuplicateSequenceIdError,
    Expert,
    FramePrediction,
    FrameTruth,
    FusebenchError,
    LengthMismatchError,
    MalformedLineError,
    MetricConfig,
    NegativeExtentError,
    PredictionColumns,
    ScenarioConfig,
    SequenceAnnotation,
    Subset,
    TruthColumns,
    UnknownKeyError,
    benchmark_scores,
)
from fusebench import io as fio
from conftest import random_benchmark


class TestParseGroundtruth:
    def test_all_zero_row_is_absent(self):
        assert fio.parse_groundtruth("0,0,0,0") == [FrameTruth.absent()]

    def test_space_separated(self):
        assert fio.parse_groundtruth("10.5 20 30 40") == [
            FrameTruth.present(Box(10.5, 20, 30, 40))
        ]

    def test_mixed_separators_and_blank_lines(self):
        text = "1,2 3\t4\n\n0, 0,\t0 0\n"
        frames = fio.parse_groundtruth(text)
        assert frames == [FrameTruth.present(Box(1, 2, 3, 4)), FrameTruth.absent()]

    def test_malformed_line_is_numbered(self):
        with pytest.raises(MalformedLineError) as err:
            fio.parse_groundtruth("10,20,thirty,40")
        assert str(err.value).startswith("line 1: ")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLineError) as err:
            fio.parse_groundtruth("1,2,3\n1,2,3,4")
        assert str(err.value).startswith("line 1: ")

    def test_negative_extent_is_numbered(self):
        with pytest.raises(NegativeExtentError) as err:
            fio.parse_groundtruth("1,1,2,2\n1,1,-3,2")
        assert str(err.value).startswith("line 2: ")

    def test_non_finite_rejected(self):
        with pytest.raises(MalformedLineError):
            fio.parse_groundtruth("nan,0,1,1")


class TestParsePredictions:
    def test_absence_with_confidence(self):
        preds = fio.parse_predictions("0,0,0,0", "0.9")
        assert preds == [FramePrediction.absent(0.9)]

    def test_confidence_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            fio.parse_predictions("1,1,2,2\n1,1,2,2\n1,1,2,2", "0.5\n0.5")

    def test_optional_confidence(self):
        preds = fio.parse_predictions("5,5,10,10")
        assert preds[0].box == Box(5, 5, 10, 10)
        assert preds[0].confidence is None

    def test_malformed_confidence(self):
        with pytest.raises(MalformedLineError):
            fio.parse_predictions("1,1,2,2", "high")


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
truth_frames = st.lists(
    st.one_of(
        st.just(FrameTruth.absent()),
        st.builds(lambda x, y, w, h: FrameTruth.present(Box(x, y, w, h)), finite, finite, positive, positive),
    ),
    min_size=1,
    max_size=30,
)


class TestRoundTrip:
    @given(frames=truth_frames)
    def test_groundtruth_round_trips(self, frames):
        assert fio.parse_groundtruth(fio.write_groundtruth(frames)) == frames

    @given(frames=truth_frames, confs=st.lists(st.floats(0, 1, allow_nan=False), min_size=30, max_size=30))
    def test_predictions_round_trip_with_confidences(self, frames, confs):
        preds = [FramePrediction(f.box, c) for f, c in zip(frames, confs)]
        text = fio.write_predictions(preds)
        sidecar = fio.write_confidences(preds)
        assert fio.parse_predictions(text, sidecar) == preds


class TestManifest:
    def test_load_with_tags(self, toy_dataset):
        man = fio.load_manifest(toy_dataset["manifest"])
        assert len(man.sequences) == 3
        assert man.sequences[0].subset is Subset.RGB_DOMINANT
        assert man.sequences[1].subset is Subset.TIR_DOMINANT
        assert man.sequences[2].subset is Subset.UNSPECIFIED
        assert all(len(s) == 10 for s in man.sequences)
        assert fio.load_manifest(str(toy_dataset["manifest"])) == man

    def test_duplicate_id(self, tmp_path):
        (tmp_path / "a.txt").write_text("1,1,2,2\n")
        manifest = {
            "sequences": [
                {"id": "a", "groundtruth": "a.txt"},
                {"id": "a", "groundtruth": "a.txt"},
            ]
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(DuplicateSequenceIdError):
            fio.load_manifest(path)

    def test_duplicate_id_before_missing_groundtruth_file(self, tmp_path):
        # every entry is checked before any groundtruth file is opened
        (tmp_path / "a.txt").write_text("1,1,2,2\n")
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sequences": [
            {"id": "a", "groundtruth": "a.txt"}, {"id": "a", "groundtruth": "missing.txt"}]}))
        with pytest.raises(DuplicateSequenceIdError) as err:
            fio.load_manifest(path)
        assert str(err.value) == f"{path}: duplicate sequence id 'a'"

    @pytest.mark.parametrize("sid", ["", ".", "..", "../a", "a/b", "/a"] + [
        f"a{sep}b" for sep in (os.sep, os.altsep) if sep not in (None, "/")])
    def test_id_that_is_no_plain_file_name_rejected(self, tmp_path, sid):
        # ``<id>.txt`` must name a file inside the results directory
        (tmp_path / "a.txt").write_text("1,1,2,2\n")
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sequences": [{"id": sid, "groundtruth": "a.txt"}]}))
        with pytest.raises(ConfigError) as err:
            fio.load_manifest(path)
        assert str(err.value) == f"{path}: sequence id must be a plain file name, got {sid!r}"

    def test_missing_groundtruth_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sequences": [{"id": "a", "groundtruth": "nope.txt"}]}))
        with pytest.raises(FileNotFoundError) as err:
            fio.load_manifest(path)
        assert "a" in str(err.value)

    @pytest.mark.parametrize("manifest,message", [
        ({"sequences": [{"id": 5, "groundtruth": "a.txt"}]}, "sequence id must be a string, got 5"),
        ({"sequences": [{"id": "a", "groundtruth": 1}]}, "sequence groundtruth must be a string, got 1"),
        ({"name": [1], "sequences": [{"id": "a", "groundtruth": "a.txt"}]}, "name must be a string, got [1]"),
        ({"sequences": {"id": "a", "groundtruth": "a.txt"}}, "sequences must be a JSON list"),
        ({}, "must list at least one sequence"),
        ({"sequences": [5]}, "sequence entries must be objects"),
        ({"sequences": [None]}, "sequence entries must be objects"),
    ])
    def test_wrong_types_rejected(self, tmp_path, manifest, message):
        (tmp_path / "a.txt").write_text("1,1,2,2\n")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError) as err:
            fio.load_manifest(path)
        assert str(path) in str(err.value) and str(err.value).endswith(message)

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "a.txt").write_text("1,1,2,2\n")
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sequences": [{"id": "a", "groundtruth": "a.txt", "fps": 30}]}))
        with pytest.raises(UnknownKeyError):
            fio.load_manifest(path)


class TestResults:
    def test_load_results(self, toy_dataset):
        man = fio.load_manifest(toy_dataset["manifest"])
        res = fio.load_results(man, toy_dataset["results"])
        assert set(res) == {"seq0", "seq1", "seq2"}
        assert len(res["seq0"]) == 10

    def test_missing_result_names_sequence(self, toy_dataset):
        man = fio.load_manifest(toy_dataset["manifest"])
        (toy_dataset["results"] / "seq1.txt").unlink()
        with pytest.raises(FileNotFoundError) as err:
            fio.load_results(man, toy_dataset["results"])
        path = toy_dataset["results"] / "seq1.txt"
        assert str(err.value) == f"prediction file for sequence 'seq1' not found: {path}"

    @pytest.mark.parametrize("sid", ["../gt/a", "..", "", "a/b"])
    def test_id_that_leaves_the_directory_rejected_before_any_file_is_read(self, tmp_path, monkeypatch, sid):
        # a manifest built in code skips the manifest file's checks
        (tmp_path / "gt").mkdir()
        (tmp_path / "gt" / "a.txt").write_text("1,1,2,2\n")
        (tmp_path / "results").mkdir()
        manifest = DatasetManifest((SequenceAnnotation(sid, [FrameTruth.absent()]),))
        monkeypatch.setattr(fio, "_load_predictions", lambda *args: pytest.fail("a prediction file was read"))
        with pytest.raises(ConfigError) as err:
            fio.load_results(manifest, tmp_path / "results")
        assert str(err.value) == f"sequence id must be a plain file name, got {sid!r}"

    def test_expert_stream_requires_sidecar(self, tmp_path):
        p = tmp_path / "rgb.txt"
        p.write_text("1,1,2,2\n")
        with pytest.raises(FileNotFoundError) as err:
            fio.load_expert_stream(p, Expert.RGB)
        assert str(err.value) == f"confidence sidecar not found: {p}.conf"
        (tmp_path / "rgb.txt.conf").write_text("0.5\n")
        stream = fio.load_expert_stream(p, Expert.RGB)
        assert stream.predictions[0].confidence == 0.5
        p.unlink()  # a sidecar without its prediction file
        with pytest.raises(FileNotFoundError) as err:
            fio.load_expert_stream(p, Expert.RGB)
        assert str(err.value) == f"prediction file not found: {p}"

    def test_short_prediction_file_names_itself(self, toy_dataset):
        man = fio.load_manifest(toy_dataset["manifest"])
        pred = toy_dataset["results"] / "seq2.txt"
        pred.write_text(pred.read_text() + "1,1,2,2\n")
        with pytest.raises(LengthMismatchError) as err:
            fio.load_results(man, toy_dataset["results"])
        assert str(err.value) == f"{pred}: seq2: lengths differ: groundtruth=10, predictions=11"

    def test_expert_streams_name_the_stream_of_another_length(self, tmp_path):
        for name, n in (("rgb", 3), ("tir", 3), ("rgbt", 2)):
            (tmp_path / f"{name}.txt").write_text("1,1,2,2\n" * n)
            (tmp_path / f"{name}.txt.conf").write_text("0.5\n" * n)
        paths = [tmp_path / f"{name}.txt" for name in ("rgb", "tir", "rgbt")]
        with pytest.raises(LengthMismatchError) as err:
            fio.load_expert_streams(*paths)
        assert str(err.value) == f"{paths[2]}: expert streams: lengths differ: rgb=3, rgbt=2"
        (tmp_path / "rgbt.txt").write_text("1,1,2,2\n" * 3)
        (tmp_path / "rgbt.txt.conf").write_text("0.5\n" * 3)
        streams = fio.load_expert_streams(*paths)
        assert [s.expert for s in streams] == [Expert.RGB, Expert.TIR, Expert.RGBT]


class TestConfig:
    def test_empty_config_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("")
        cfg = fio.load_config(path)
        assert isinstance(cfg, MetricConfig)
        assert len(cfg.success_thresholds) == 21
        assert len(cfg.precision_thresholds) == 51
        assert cfg.pr_report_threshold == 20.0

    def test_gtot_style_threshold(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pr_report_threshold": 5}))
        cfg = fio.load_config(path)
        assert cfg.pr_report_threshold == 5.0

    def test_non_increasing_grid_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"success_thresholds": [0.9, 0.5, 0.1]}))
        with pytest.raises(ConfigError):
            fio.load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"succes_thresholds": [0.1]}))
        with pytest.raises(UnknownKeyError):
            fio.load_config(path)

    def test_scenario_kind(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "scenario",
            "n_sequences": 3,
            "n_frames": 7,
            "rgb": {"fraction": 0.5, "behavior": "frozen-box"},
        }))
        cfg = fio.load_config(path)
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.n_sequences == 3
        assert cfg.rgb.fraction == 0.5

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "magic"}))
        with pytest.raises(ConfigError):
            fio.load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "scenario", "rgb": {"strength": 2}}))
        with pytest.raises(UnknownKeyError):
            fio.load_config(path)

    @pytest.mark.parametrize("cfg", [MetricConfig(), ScenarioConfig()], ids=["metrics", "scenario"])
    def test_every_field_loads_from_its_json_form(self, tmp_path, cfg):
        raw = dataclasses.asdict(cfg)
        for section in ("rgb", "tir"):
            if section in raw:
                del raw[section]["target"]
        if isinstance(cfg, ScenarioConfig):
            raw["kind"] = "scenario"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert fio.load_config(path) == cfg


class TestBundledScenarios:
    def test_names(self):
        names = fio.bundled_scenario_names()
        assert "mmw-one-modality-dead" in names
        assert "common-scenario" in names

    def test_load(self):
        cfg = fio.bundled_scenario("mmw-one-modality-dead")
        assert cfg.rgb.fraction == 1.0
        assert cfg.tir.fraction == 0.0
        assert cfg.fused.informative_weight == 0.5
        assert cfg.n_sequences == 100 and cfg.n_frames == 200

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            fio.bundled_scenario("does-not-exist")

    def test_every_name_loads_as_a_scenario_config(self):
        for name in fio.bundled_scenario_names():
            assert isinstance(fio.bundled_scenario(name), ScenarioConfig), name

    @pytest.mark.parametrize("text", ["{nope", json.dumps({"kind": "metrics"}), json.dumps({"kind": "scenario"})])
    def test_a_path_is_no_name(self, tmp_path, text):
        # the json file beside the path is never read, whatever it holds
        (tmp_path / "x.json").write_text(text)
        for name in (str(tmp_path / "x"), "/abs/x", "../scenarios/common-scenario"):
            with pytest.raises(ConfigError, match="unknown bundled scenario"):
                fio.bundled_scenario(name)


# -- bulk parser: same results and errors as a line-by-line reference -------

def reference_parse_boxes(text):
    """Line-by-line reference parser: fields split on runs of commas and
    whitespace, blank lines skipped, all-zero rows absent."""
    rows = []
    for line_no, line in enumerate(re.split(r"\r\n?|\n", text), start=1):
        if not line.strip():
            continue
        parts = [p for p in re.split(r"[,\s]+", line.strip()) if p]
        if len(parts) != 4:
            raise MalformedLineError(f"line {line_no}: expected 4 fields, got {len(parts)}")
        values = []
        for p in parts:
            try:
                v = float(p)
            except ValueError:
                raise MalformedLineError(f"line {line_no}: not a number: {p!r}") from None
            if not math.isfinite(v):
                raise MalformedLineError(f"line {line_no}: non-finite value: {p!r}")
            values.append(v)
        x, y, w, h = values
        if x == 0 and y == 0 and w == 0 and h == 0:
            rows.append(FrameTruth.absent())
            continue
        if w < 0 or h < 0:
            raise NegativeExtentError(f"line {line_no}: negative extent w={w}, h={h}")
        rows.append(FrameTruth.present(Box(x, y, w, h)))
    return rows


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except FusebenchError as exc:
        line = re.match(r"line (\d+): ", str(exc))
        return type(exc).__name__, str(exc), line and int(line[1])


fields = st.sampled_from(["1", "2.5", "-3", "0", "-0", "1e3", "1_0", "+.5", "nan", "-inf", "x", "0x1"])
separators = st.sampled_from([",", " ", "\t", ", ", ",,", " ,\t"])
line_ends = st.sampled_from(["\n", "\r\n", "\r", "\x0b", " "])
box_lines = st.one_of(
    st.lists(fields, min_size=0, max_size=6).flatmap(
        lambda fs: st.lists(separators, min_size=len(fs) + 1, max_size=len(fs) + 1).map(
            lambda seps: seps[0] + "".join(f + s for f, s in zip(fs, seps[1:]))
        )
    ),
    st.sampled_from(["", "  ", "\t", ",", "1,1,1,1", "5,5,-1,2", "0,0,0,0", "\xa01 2 3 4"]),
)
box_texts = st.lists(st.tuples(box_lines, line_ends), max_size=8).map(
    lambda lines: "".join(line + end for line, end in lines)
)


class TestBulkParser:
    @settings(max_examples=300, deadline=None)
    @given(text=box_texts)
    def test_matches_line_by_line_reference(self, text):
        assert outcome(fio.parse_groundtruth, text) == outcome(reference_parse_boxes, text)
        want = outcome(reference_parse_boxes, text)
        got = outcome(fio.parse_predictions, text)
        if want[0] == "ok":
            want = ("ok", [FramePrediction(f.box) for f in want[1]])
        assert got == want

    # (class, message, line) raised by the line-by-line parser before the
    # bulk parser replaced it
    MALFORMED = {
        "field count": ("1,2,3\n", "MalformedLineError", "line 1: expected 4 fields, got 3", 1),
        "field count on a later line": (
            "1,2,3,4\n1,2,3,4,5\n", "MalformedLineError", "line 2: expected 4 fields, got 5", 2),
        "comma-only line": ("1,2,3,4\n,,,\n", "MalformedLineError", "line 2: expected 4 fields, got 0", 2),
        "not a number": ("1,2,x,4\n", "MalformedLineError", "line 1: not a number: 'x'", 1),
        "nan": ("nan,0,1,1\n", "MalformedLineError", "line 1: non-finite value: 'nan'", 1),
        "inf": ("1,2,inf,4\n", "MalformedLineError", "line 1: non-finite value: 'inf'", 1),
        "minus inf": ("1,2,3,-inf\n", "MalformedLineError", "line 1: non-finite value: '-inf'", 1),
        "negative width": ("1,1,-3,2\n", "NegativeExtentError", "line 1: negative extent w=-3.0, h=2.0", 1),
        "negative height": ("1,1,3,-2\n", "NegativeExtentError", "line 1: negative extent w=3.0, h=-2.0", 1),
        "blank lines count": (
            "1,1,2,2\n\n \t \n1,1,-2,2\n", "NegativeExtentError", "line 4: negative extent w=-2.0, h=2.0", 4),
        "mixed separators": (
            "1, 2\t3 4\n5,,6,\t7  ,8\n1 2 3 4 5\n", "MalformedLineError", "line 3: expected 4 fields, got 5", 3),
        "first of two errors: count, then value": (
            "1,2,3\n1,2,x,4\n", "MalformedLineError", "line 1: expected 4 fields, got 3", 1),
        "first of two errors: extent, then count": (
            "1,1,-1,1\n1,2,3\n", "NegativeExtentError", "line 1: negative extent w=-1.0, h=1.0", 1),
        "first of two errors: value, then extent": (
            "1,1,1,1\n1,nan,1,1\n1,1,-1,1\n", "MalformedLineError", "line 2: non-finite value: 'nan'", 2),
        # only \r\n, \r and \n end a line; the other breaks of str.splitlines are whitespace
        **{f"two rows on one line split by U+{ord(c):04X}": (
            f"1,1,5,5{c}2,2,5,5\n", "MalformedLineError", "line 1: expected 4 fields, got 8", 1)
           for c in "\v\f\x1c\x85\u2028"},
    }

    @pytest.mark.parametrize("parse", [fio.parse_groundtruth, fio.parse_predictions])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_box_file(self, parse, case):
        text, cls, message, line = self.MALFORMED[case]
        assert outcome(parse, text) == (cls, message, line)

    MALFORMED_SIDECARS = {
        "not a number": ("0.5\nhigh\n", "line 2: not a number: 'high'"),
        "two values on a line": ("0.5\n0.1 0.2\n", "line 2: not a number: '0.1 0.2'"),
        "trailing comma": ("0.5\n0.25,\n", "line 2: not a number: '0.25,'"),
        "nan": ("0.5\nnan\n", "line 2: non-finite confidence: 'nan'"),
        "inf": ("inf\n0.5\n", "line 1: non-finite confidence: 'inf'"),
        "line ending in U+2028": ("0.5\u2028\nx\n", "line 2: not a number: 'x'"),
        "line ending in a form feed": ("0.5\f\nx\n", "line 2: not a number: 'x'"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_SIDECARS))
    def test_malformed_sidecar(self, case):
        text, message = self.MALFORMED_SIDECARS[case]
        line = int(message.split(":")[0].split()[1])
        assert outcome(fio.parse_predictions, "1,1,1,1\n2,2,2,2\n", text) == ("MalformedLineError", message, line)

    def test_accepted_syntax(self):
        text = "1_0,2,3,4\r\n0,0,0,-0\r\n\n  1e3\t2E-2 ,+3,.5  \n"
        assert fio.parse_groundtruth(text) == [
            FrameTruth.present(Box(10, 2, 3, 4)),
            FrameTruth.absent(),
            FrameTruth.present(Box(1000, 0.02, 3, 0.5)),
        ]
        assert fio.parse_confidences(" 0.5 \n\n1e-3\n") == [0.5, 0.001]


# -- bulk rows against the line parse that defines the format ----------------

plain_fields = st.sampled_from(["1", "-2.5", "0", "7e-3", "123.45678901234567", "-0.0", "+.5"])
odd_fields = st.sampled_from(["1_0", "\u0664", "nan", "-inf", "1e400", "x", "#1"])
plain_separators = st.sampled_from([",", " ", "\t", ", ", " ,\t"])
odd_whitespace = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"])
not_rows = st.sampled_from(["", " ", "\t ", ",", ",,,", " , "])


@st.composite
def bulk_texts(draw):
    """Up to six lines: mostly rows of one width (a sidecar's 1 or a box
    file's 4 fields), plus odd rows (other widths, fields only ``float``
    reads or none reads, odd whitespace), blank or comma-only lines."""
    width = draw(st.sampled_from([1, 4]))
    text = ""
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row", "row", "odd row", "no row"]))
        if kind == "no row":
            line = draw(st.one_of(not_rows, odd_whitespace))
        else:
            odd = kind == "odd row"
            n = draw(st.sampled_from([2, 3, 5, 8])) if odd and draw(st.booleans()) else width
            fields = draw(st.lists(st.one_of(plain_fields, odd_fields) if odd else plain_fields,
                                   min_size=n, max_size=n))
            seps = draw(st.lists(st.one_of(plain_separators, odd_whitespace) if odd else plain_separators,
                                 min_size=n - 1, max_size=n - 1))
            line = "".join(f + s for f, s in zip(fields, seps + [draw(st.sampled_from(["", " ", ","]))]))
        text += line + draw(st.sampled_from(["\n", "\r\n"]))
    return text


class TestBulkRows:
    @settings(max_examples=500, deadline=None)
    @given(text=bulk_texts())
    @example(text="1,2,3,4\r\n,,,\n")  # loadtxt skips the comma-only line
    @example(text="1 2 3 4 #1\n")  # '#' starts no comment
    @example(text="0.5 #1\n")
    @example(text="1 2\x853 4\n")  # a line break inside a row
    @example(text="1_0 2 3 \u0664\n0.5 0.7\n")
    @example(text="-0.0 0 1e400 -0.0\n")
    def test_equal_the_line_parse(self, text):
        for parse, check_line, width in (
            (fio._box_values, fio._check_box_line, 4),
            (fio._confidence_values, fio._check_confidence_line, 1),
        ):
            want = outcome(fio._line_rows, text, check_line, width)
            got = outcome(parse, text)
            if want[0] == "ok":  # bit for bit, so -0.0 is not 0.0
                assert got[0] == "ok", got
                assert got[1].reshape(-1, width).view(np.int64).tolist() == want[1].view(np.int64).tolist()
            else:
                assert got == want

    @pytest.mark.parametrize("boxes,confidences,n", [
        ("1 2 3 4\n\n", "0.5\n\n", 1),
        ("1,2,3,4\r\n \t\r\n0,0,0,0\n\xa0\n", "0.5\r\n \t\r\n-0.0\n\xa0\n", 2),
    ])
    def test_blank_lines_stay_on_the_bulk_path(self, boxes, confidences, n, monkeypatch):
        def line_parse(*args):
            raise AssertionError("parsed line by line")

        monkeypatch.setattr(fio, "_line_rows", line_parse)
        assert len(fio._box_values(boxes)) == len(fio._confidence_values(confidences)) == n

    def test_two_values_on_the_only_sidecar_line(self):
        assert outcome(fio.parse_confidences, "0.5 0.7\n") == (
            "MalformedLineError", "line 1: not a number: '0.5 0.7'", 1)

    @pytest.mark.parametrize("text", ["", "\n", " \t\r\n\n  "], ids=["empty", "newline", "blank"])
    def test_files_without_data_raise_no_warning(self, text, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fio.parse_groundtruth(text) == []
            assert fio.parse_predictions(text, text) == []
            assert fio.parse_confidences(text) == []
            for name in ("gt.txt", "pred.txt", "pred.txt.conf"):
                (tmp_path / name).write_text(text)
            (tmp_path / "m.json").write_text(json.dumps({"sequences": [{"id": "a", "groundtruth": "gt.txt"}]}))
            with pytest.raises(FusebenchError, match="gt.txt"):
                fio.load_manifest(tmp_path / "m.json")
            with pytest.raises(FusebenchError, match="pred.txt: no predictions"):
                fio.load_expert_stream(tmp_path / "pred.txt", Expert.RGB)
            (tmp_path / "pred.txt").write_text("1,1,2,2\n")
            with pytest.raises(LengthMismatchError, match="pred.txt"):
                fio.load_expert_stream(tmp_path / "pred.txt", Expert.RGB)


class TestColumnsFromFiles:
    def test_loaders_and_scoring_build_no_box(self, toy_dataset, monkeypatch):
        built = []
        post_init = Box.__post_init__
        monkeypatch.setattr(Box, "__post_init__", lambda self: built.append(1) or post_init(self))
        manifest = fio.load_manifest(toy_dataset["manifest"])
        results = fio.load_results(manifest, toy_dataset["results"])
        benchmark_scores(manifest, results, MetricConfig())
        benchmark_scores(manifest, results, MetricConfig(pooling="sequence-mean"))
        assert built == []
        assert isinstance(manifest.sequences[0].frames, TruthColumns)
        assert all(isinstance(r, PredictionColumns) for r in results.values())
        list(manifest.sequences[0].frames)  # per-frame access builds them
        assert len(built) == 9

    @pytest.mark.parametrize("pooling", ["frame", "sequence-mean"])
    def test_scores_equal_object_lists(self, tmp_path, pooling):
        rng = np.random.default_rng(99)
        manifest, results = random_benchmark(rng, n_sequences=25, max_frames=40)
        entries = []
        for seq in manifest.sequences:
            (tmp_path / f"{seq.id}.gt").write_text(fio.write_groundtruth(seq.frames))
            (tmp_path / f"{seq.id}.txt").write_text(fio.write_predictions(results[seq.id]))
            entries.append({"id": seq.id, "groundtruth": f"{seq.id}.gt"})
        (tmp_path / "m.json").write_text(json.dumps({"sequences": entries}))
        loaded = fio.load_manifest(tmp_path / "m.json")
        cfg = MetricConfig(pooling=pooling)
        assert benchmark_scores(loaded, fio.load_results(loaded, tmp_path), cfg) == benchmark_scores(
            manifest, results, cfg
        )
