"""Command-line behavior: subcommands, exit codes, and printed output."""

from __future__ import annotations

import functools
import json

import pytest
from conftest import ontology_from_labels, to_latin1, write_reference_xml

from ontomatch.cli import _ALIGN_FLAGS, _build_parser, _config_from_args, main
from ontomatch.parsing import load_json_alignment

SRC_BASE = "http://example.org/a#"
TGT_BASE = "http://example.org/b#"


@pytest.fixture()
def corpus(tmp_path):
    labels = ["alloy", "copper", "zinc"]
    source = ontology_from_labels(tmp_path / "src.owl", labels, base=SRC_BASE)
    target = ontology_from_labels(tmp_path / "tgt.owl", labels, base=TGT_BASE)
    reference = write_reference_xml(
        tmp_path / "reference.rdf",
        [(f"{SRC_BASE}C{i:03d}", f"{TGT_BASE}C{i:03d}") for i in range(len(labels))],
    )
    return source, target, reference


def test_align_prints_summary_and_writes_files(corpus, tmp_path, capsys):
    source, target, _ = corpus
    out = tmp_path / "alignment.xml"
    code = main([
        "align", "--source", str(source), "--target", str(target), "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {
        "correspondences": 3,
        "output_path": str(out),
        "report_path": str(out) + ".report.json",
    }
    assert out.exists()
    assert (tmp_path / "alignment.xml.report.json").exists()


def test_align_with_reference_reports_metrics(corpus, tmp_path, capsys):
    source, target, reference = corpus
    out = tmp_path / "alignment.xml"
    code = main([
        "align", "--source", str(source), "--target", str(target),
        "--reference", str(reference), "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["precision"] == 100.0
    assert summary["metrics"]["recall"] == 100.0
    assert "seconds" in summary["metrics"]


def test_align_flags_override_the_config_file(tmp_path, capsys):
    source = ontology_from_labels(tmp_path / "src.owl", ["alloy"], base=SRC_BASE)
    target = ontology_from_labels(tmp_path / "tgt.owl", ["alloy steel"], base=TGT_BASE)
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({
            "source_path": str(source),
            "target_path": str(target),
            "fuzzy": {"threshold": 0.9},
            "output_path": str(tmp_path / "a.xml"),
        }),
        encoding="utf-8",
    )
    assert main(["align", "--config", str(config)]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert strict["correspondences"] == 0  # 0.625 similarity < 0.9

    assert main(["align", "--config", str(config), "--threshold", "0.5"]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert loose["correspondences"] == 1


def test_align_mock_rag_run_and_shot_flag(corpus, tmp_path, capsys):
    source, target, reference = corpus
    out = tmp_path / "rag.xml"
    code = main([
        "align", "--source", str(source), "--target", str(target),
        "--reference", str(reference), "--method", "fewshot_rag",
        "--ns", "1", "--endpoint", "mock:", "--tl", "0.6", "--tr", "0.4",
        "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["f1"] == 100.0
    report = json.loads((tmp_path / "rag.xml.report.json").read_text(encoding="utf-8"))
    assert report["config"]["rag"]["shots"] == 1
    assert report["config"]["rag"]["llm_threshold"] == 0.6
    assert report["config"]["rag"]["retrieval"]["threshold"] == 0.4


def test_align_survives_a_provider_sending_malformed_logprobs(corpus, tmp_path, http_server):
    # A null logprob counts as no logprobs: each decision falls back to the text.
    choice = {"text": "No.", "logprobs": {"top_logprobs": [{" yes": None, " no": -0.1}]}}
    http_server.app = lambda path, payload: (200, {"choices": [choice]})
    source, target, _ = corpus
    out = tmp_path / "rag.json"
    code = main([
        "align", "--source", str(source), "--target", str(target), "--method", "rag",
        "--endpoint", http_server.url, "--tl", "0.6", "--out", str(out),
    ])
    assert code == 0
    assert len(load_json_alignment(out)) == 0
    assert len(http_server.requests) > 0


def test_align_exits_2_on_a_null_completion_text(corpus, tmp_path, http_server, capsys):
    http_server.app = lambda path, payload: (200, {"choices": [{"text": None}]})
    source, target, _ = corpus
    out = tmp_path / "rag.json"
    code = main([
        "align", "--source", str(source), "--target", str(target), "--method", "rag",
        "--endpoint", http_server.url, "--out", str(out),
    ])
    assert code == 2
    assert "not a string" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_method_exits_1_with_config_error(corpus, tmp_path, capsys):
    source, target, _ = corpus
    code = main([
        "align", "--source", str(source), "--target", str(target),
        "--method", "magic", "--out", str(tmp_path / "a.xml"),
    ])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_missing_ontology_exits_2(tmp_path, capsys):
    code = main([
        "align", "--source", str(tmp_path / "nope.owl"),
        "--target", str(tmp_path / "nope2.owl"), "--out", str(tmp_path / "a.xml"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_align_reads_latin1_xml_ontology_and_reference(tmp_path, capsys):
    source = to_latin1(ontology_from_labels(tmp_path / "src.owl", ["café", "thé"], base=SRC_BASE))
    target = ontology_from_labels(tmp_path / "tgt.owl", ["café", "thé"], base=TGT_BASE)
    reference = to_latin1(write_reference_xml(tmp_path / "reference.rdf", [
        (f"{SRC_BASE}C000", f"{TGT_BASE}C000"),
        (f"{SRC_BASE}C001", f"{TGT_BASE}C001"),
        (f"{SRC_BASE}café", f"{TGT_BASE}café"),
    ]))
    code = main([
        "align", "--source", str(source), "--target", str(target),
        "--reference", str(reference), "--out", str(tmp_path / "a.xml"),
    ])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert (metrics["inter"], metrics["pred"], metrics["ref"]) == (2, 2, 3)


def test_align_exits_2_on_turtle_that_is_not_utf8(corpus, tmp_path, capsys):
    _, target, _ = corpus
    source = tmp_path / "src.ttl"
    source.write_bytes(b'@prefix ex: <http://x.org/> .\nex:A ex:label "caf\xe9" .\n')
    code = main(["align", "--source", str(source), "--target", str(target), "--out", str(tmp_path / "a.xml")])
    assert code == 2
    assert "not valid UTF-8 (line 2)" in capsys.readouterr().err


@pytest.mark.parametrize("literal", [r'"x\uZZZZy"', r'"x\U00110000y"', r'"a\qb"'])
def test_align_exits_2_on_a_bad_turtle_escape(corpus, tmp_path, capsys, literal):
    _, target, _ = corpus
    source = tmp_path / "src.ttl"
    source.write_text(f"@prefix ex: <http://x.org/> .\nex:A ex:label {literal} .\n", encoding="utf-8")
    code = main(["align", "--source", str(source), "--target", str(target), "--out", str(tmp_path / "a.xml")])
    assert code == 2
    assert "invalid Turtle escape" in capsys.readouterr().err


def test_eval_exits_2_on_json_that_is_not_utf8(corpus, tmp_path, capsys):
    _, _, reference = corpus
    predicted = tmp_path / "pred.json"
    predicted.write_bytes(b'[{"source": "http://a#caf\xe9", "target": "http://b#x"}]')
    assert main(["eval", "--pred", str(predicted), "--ref", str(reference)]) == 2
    assert "alignment JSON is not valid UTF-8" in capsys.readouterr().err


def test_bad_config_file_exits_1(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{", encoding="utf-8")
    assert main(["align", "--config", str(config)]) == 1
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["align", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("config", [{"rag": None}, {"rag": {"retrieval": None}}])
def test_flags_land_on_a_null_config_section(corpus, tmp_path, capsys, config):
    source, target, _ = corpus
    config_file = tmp_path / "null-section.json"
    config_file.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "a.xml"
    code = main([
        "align", "--config", str(config_file), "--source", str(source), "--target", str(target),
        "--topk", "3", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((tmp_path / "a.xml.report.json").read_text(encoding="utf-8"))
    assert report["config"]["rag"]["retrieval"]["top_k"] == 3
    assert report["config"]["retrieval"]["top_k"] == 3


def test_every_flag_reaches_each_of_its_config_paths():
    argv, expected = ["align"], {}
    for index, (name, kind, _, paths) in enumerate(_ALIGN_FLAGS):
        if not paths:
            continue
        value = {int: index + 1, float: index + 0.5, str: f"value-{name}"}[kind]
        argv += [f"--{name}", str(value)]
        expected.update(dict.fromkeys(paths, value))
    cfg = _config_from_args(_build_parser().parse_args(argv))
    assert {path: functools.reduce(getattr, path.split("."), cfg) for path in expected} == expected


def _one_error_line(capsys, *needles) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err
    return err


def test_unreadable_config_file_exits_1_naming_it(corpus, tmp_path, capsys):
    source, target, _ = corpus
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"method": "fuzzy", "view": "caf\xe9"}')
    folder = tmp_path / "folder.json"
    folder.mkdir()
    for config in (latin1, folder):
        assert main(["align", "--config", str(config), "--source", str(source), "--target", str(target)]) == 1
        _one_error_line(capsys, "config error", str(config))


@pytest.mark.parametrize("unreadable", ["latin1", "folder"])
def test_compare_unreadable_report_exits_1_naming_it(tmp_path, capsys, unreadable):
    report = tmp_path / "bad-run.json"
    if unreadable == "folder":
        report.mkdir()
    else:
        report.write_bytes(b'{"metrics": {"f1": 90.0}, "seconds": {"total": 1.0}, "note": "caf\xe9"}')
    assert main(["compare", str(report)]) == 1
    _one_error_line(capsys, "config error", str(report))


def test_align_out_that_is_a_directory_exits_2(corpus, tmp_path, capsys):
    source, target, _ = corpus
    out = tmp_path / "out"
    out.mkdir()
    assert main(["align", "--source", str(source), "--target", str(target), "--out", str(out)]) == 2
    _one_error_line(capsys, "ontomatch: error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "reference.rdf", "src.owl", "tgt.owl"]


def test_eval_pred_that_is_a_directory_exits_2(corpus, tmp_path, capsys):
    _, _, reference = corpus
    predicted = tmp_path / "pred.xml"
    predicted.mkdir()
    assert main(["eval", "--pred", str(predicted), "--ref", str(reference)]) == 2
    _one_error_line(capsys, "ontomatch: error:")


def test_exemplar_file_that_is_not_utf8_exits_1(corpus, tmp_path, capsys):
    source, target, _ = corpus
    shots = tmp_path / "shots.json"
    shots.write_bytes(b'[{"source": "caf\xe9", "target": "coffee", "answer": "yes"}]')
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rag": {"exemplars_path": str(shots)}}), encoding="utf-8")
    code = main([
        "align", "--config", str(config), "--source", str(source), "--target", str(target),
        "--method", "fewshot_rag", "--endpoint", "mock:", "--out", str(tmp_path / "a.xml"),
    ])
    assert code == 1
    _one_error_line(capsys, "config error", str(shots))


@pytest.mark.parametrize("unreadable", ["missing", "folder"])
def test_exemplar_file_that_cannot_be_read_exits_1(corpus, tmp_path, capsys, unreadable):
    source, target, _ = corpus
    shots = tmp_path / "shots.json"
    if unreadable == "folder":
        shots.mkdir()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rag": {"exemplars_path": str(shots)}}), encoding="utf-8")
    code = main([
        "align", "--config", str(config), "--source", str(source), "--target", str(target),
        "--method", "fewshot_rag", "--endpoint", "mock:", "--out", str(tmp_path / "a.xml"),
    ])
    assert code == 1
    _one_error_line(capsys, "config error", str(shots))


@pytest.mark.parametrize("method", ["llm", "fewshot_rag"])
def test_an_llm_run_without_an_endpoint_exits_1(corpus, tmp_path, capsys, method):
    source, target, _ = corpus
    out = tmp_path / "a.xml"
    code = main(["align", "--source", str(source), "--target", str(target), "--method", method, "--out", str(out)])
    assert code == 1
    _one_error_line(capsys, "config error", "rag.llm.endpoint", "--endpoint")
    assert not out.exists()


@pytest.mark.parametrize("endpoint", ["mock:?dim=x", "mock:?dims=8", "mock:?dim=0"])
@pytest.mark.parametrize("method", ["llm", "retrieval"])
def test_a_bad_mock_query_exits_1_for_every_method(corpus, tmp_path, capsys, method, endpoint):
    source, target, _ = corpus
    out = tmp_path / "a.xml"
    code = main([
        "align", "--source", str(source), "--target", str(target), "--method", method,
        "--endpoint", endpoint, "--out", str(out),
    ])
    assert code == 1
    _one_error_line(capsys, "config error", endpoint)
    assert not out.exists()


@pytest.mark.parametrize("config, needle", [
    ({"fuzzy": {"threshold": "0.5"}}, "'fuzzy.threshold' must be float, got \"0.5\""),
    ({"pair_cap": "9"}, "'pair_cap' must be int"),
    ({"postprocess": {"threshold": "x"}}, "'postprocess.threshold' must be float | None"),
    ({"method": "llm", "rag": {"llm": {"batch_size": 2.5}}}, "'rag.llm.batch_size' must be int, got 2.5"),
    ({"method": "fewshot_rag", "rag": {"shots": 1.5}}, "'rag.shots' must be int | None"),
    ({"method": "retrieval", "retrieval": {"top_k": True}}, "'retrieval.top_k' must be int, got true"),
    ({"fuzzy": {"method": "weighted", "weights": {"alloy": "x"}}}, "fuzzy weight for 'alloy'"),
], ids=["float-as-text", "int-as-text", "optional-float-as-text", "int-as-float", "shots-as-float",
        "int-as-bool", "weight-as-text"])
def test_a_config_value_of_the_wrong_json_type_exits_1(corpus, tmp_path, capsys, config, needle):
    source, target, _ = corpus
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "a.xml"
    code = main([
        "align", "--config", str(path), "--source", str(source), "--target", str(target),
        "--endpoint", "mock:", "--out", str(out),
    ])
    assert code == 1
    _one_error_line(capsys, "config error", needle)
    assert not out.exists()


@pytest.mark.parametrize("method", ["fuzzy", "retrieval", "llm", "rag"])
def test_shots_for_a_method_that_never_prompts_with_them_exit_1(corpus, tmp_path, capsys, method):
    source, target, _ = corpus
    out = tmp_path / "a.xml"
    code = main([
        "align", "--source", str(source), "--target", str(target), "--method", method,
        "--ns", "3", "--endpoint", "mock:", "--out", str(out),
    ])
    assert code == 1
    _one_error_line(capsys, "config error", f"method {method} takes no shots", "fewshot_rag")
    assert not out.exists()


def test_fewshot_rag_reports_the_two_shots_it_runs_by_default(corpus, tmp_path, capsys):
    source, target, _ = corpus
    out = tmp_path / "a.json"
    code = main([
        "align", "--source", str(source), "--target", str(target), "--method", "fewshot_rag",
        "--endpoint", "mock:", "--tr", "0.4", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((tmp_path / "a.json.report.json").read_text(encoding="utf-8"))
    assert report["config"]["rag"]["shots"] == 2
    assert {c.provenance for c in load_json_alignment(out)} == {"rag:fewshot"}


def test_mock_llm_run_keeps_the_label_similar_pairs(corpus, tmp_path, capsys):
    source, target, reference = corpus
    out = tmp_path / "a.json"
    code = main([
        "align", "--source", str(source), "--target", str(target), "--reference", str(reference),
        "--method", "llm", "--endpoint", "mock:", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["metrics"]["f1"] == 100.0
    assert [(c.source, c.target, c.score) for c in load_json_alignment(out)] == [
        (f"{SRC_BASE}C{i:03d}", f"{TGT_BASE}C{i:03d}", 1.0) for i in range(3)
    ]


def test_seed_is_neither_a_config_key_nor_a_flag(corpus, tmp_path, capsys):
    source, target, _ = corpus
    config = tmp_path / "seeded.json"
    config.write_text(json.dumps({"seed": 3}), encoding="utf-8")
    paths = ["--source", str(source), "--target", str(target), "--out", str(tmp_path / "a.xml")]
    assert main(["align", "--config", str(config), *paths]) == 1
    _one_error_line(capsys, "config error", "unknown config key 'seed'")
    assert main(["align", "--seed", "3", *paths]) == 1
    _one_error_line(capsys, "config error", "--seed")


def test_rag_view_key_is_rejected(corpus, tmp_path, capsys):
    source, target, _ = corpus
    config = tmp_path / "rag-view.json"
    config.write_text(json.dumps({"method": "rag", "rag": {"view": "CC"}}), encoding="utf-8")
    code = main([
        "align", "--config", str(config), "--source", str(source), "--target", str(target),
        "--out", str(tmp_path / "a.xml"),
    ])
    assert code == 1
    assert "unknown config key 'view' in section 'rag'" in capsys.readouterr().err


def test_output_format_is_neither_a_config_key_nor_a_flag(corpus, tmp_path, capsys):
    source, target, _ = corpus
    config = tmp_path / "json-out.json"
    config.write_text(json.dumps({"output_format": "json"}), encoding="utf-8")
    paths = ["--source", str(source), "--target", str(target), "--out", str(tmp_path / "a.json")]
    assert main(["align", "--config", str(config), *paths]) == 1
    _one_error_line(capsys, "config error", "unknown config key 'output_format'")
    assert main(["align", "--format", "json", *paths]) == 1
    _one_error_line(capsys, "config error", "--format")
    assert not (tmp_path / "a.json").exists()


def test_a_bad_prompt_template_is_a_config_error(corpus, tmp_path, capsys):
    source, target, _ = corpus
    config = tmp_path / "template.json"
    config.write_text(json.dumps({"rag": {"template": {"query_block": "no placeholders"}}}), encoding="utf-8")
    code = main([
        "align", "--config", str(config), "--source", str(source), "--target", str(target),
        "--method", "fuzzy", "--out", str(tmp_path / "a.xml"),
    ])
    assert code == 1
    _one_error_line(capsys, "config error", "query_block must contain {src} exactly once")


@pytest.mark.parametrize("name", ["x.json", "x.JSON"])
def test_align_out_json_is_read_back_by_eval(corpus, tmp_path, capsys, name):
    source, target, reference = corpus
    out = tmp_path / name
    code = main([
        "align", "--source", str(source), "--target", str(target),
        "--reference", str(reference), "--out", str(out),
    ])
    assert code == 0
    aligned = json.loads(capsys.readouterr().out)["metrics"]
    assert len(json.loads(out.read_text(encoding="utf-8"))) == 3
    assert main(["eval", "--pred", str(out), "--ref", str(reference)]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert {**evaluated, "seconds": None} == {**aligned, "seconds": None}


def test_eval_prints_metric_json(corpus, tmp_path, capsys):
    _, _, reference = corpus
    predicted = tmp_path / "pred.json"
    predicted.write_text(
        json.dumps([
            {"source": f"{SRC_BASE}C000", "target": f"{TGT_BASE}C000"},
            {"source": f"{SRC_BASE}C001", "target": f"{TGT_BASE}C999"},
        ]),
        encoding="utf-8",
    )
    code = main(["eval", "--pred", str(predicted), "--ref", str(reference)])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["inter"] == 1 and metrics["pred"] == 2 and metrics["ref"] == 3
    assert metrics["precision"] == 50.0
    assert metrics["recall"] == 33.3
    assert metrics["f1"] == 40.0
    assert "seconds" in metrics


def _eval_metrics(capsys, predicted, reference) -> dict:
    assert main(["eval", "--pred", str(predicted), "--ref", str(reference)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    metrics.pop("seconds")
    return metrics


def test_eval_reads_xml_and_json_alike_whatever_the_suffix_case(corpus, tmp_path, capsys):
    from ontomatch.export import AlignmentDocument, export_json, export_xml
    from ontomatch.mapping import Correspondence

    _, _, reference = corpus
    document = AlignmentDocument.from_correspondences([
        Correspondence(f"{SRC_BASE}C000", f"{TGT_BASE}C000", "=", 0.9),
        Correspondence(f"{SRC_BASE}C001", f"{TGT_BASE}C999", "=", 0.4),
    ])
    pred_xml = tmp_path / "pred.xml"
    pred_xml.write_text(export_xml(document), encoding="utf-8")
    pred_json = tmp_path / "pred.json"
    pred_json.write_text(export_json(document), encoding="utf-8")
    pred_upper = tmp_path / "pred.JSON"
    pred_upper.write_bytes(pred_json.read_bytes())
    ref_json = tmp_path / "ref.json"
    ref_json.write_text(json.dumps([
        {"source": f"{SRC_BASE}C{i:03d}", "target": f"{TGT_BASE}C{i:03d}"} for i in range(3)
    ]), encoding="utf-8")
    ref_upper = tmp_path / "ref.JSON"
    ref_upper.write_bytes(ref_json.read_bytes())

    expected = {"inter": 1, "pred": 2, "ref": 3, "precision": 50.0, "recall": 33.3, "f1": 40.0}
    assert _eval_metrics(capsys, pred_xml, reference) == expected
    assert _eval_metrics(capsys, pred_json, reference) == expected
    assert _eval_metrics(capsys, pred_json, ref_json) == expected
    assert _eval_metrics(capsys, pred_upper, ref_upper) == expected


def test_convert_roundtrips_through_json_byte_identically(tmp_path, capsys):
    from ontomatch.export import AlignmentDocument, export_xml
    from ontomatch.mapping import Correspondence

    original = tmp_path / "original.xml"
    cells = [Correspondence(f"{SRC_BASE}C000", f"{TGT_BASE}C000", "=", 0.75)]
    original.write_text(export_xml(AlignmentDocument.from_correspondences(cells)), encoding="utf-8")

    as_json = tmp_path / "converted.json"
    assert main(["convert", "--in", str(original), "--out", str(as_json)]) == 0
    assert capsys.readouterr().out.strip() == f"wrote {as_json}"
    assert load_json_alignment(as_json) == cells

    back = tmp_path / "back.xml"
    assert main(["convert", "--in", str(as_json), "--out", str(back)]) == 0
    assert back.read_bytes() == original.read_bytes()


def test_convert_preserves_onto_headers_from_xml(corpus, tmp_path, capsys):
    source, target, _ = corpus
    out = tmp_path / "alignment.xml"
    main(["align", "--source", str(source), "--target", str(target), "--out", str(out)])
    capsys.readouterr()
    leveled = tmp_path / "leveled.xml"
    leveled.write_text(
        out.read_text(encoding="utf-8")
        .replace("<level>0</level>", "<level>1</level>")
        .replace("<type>??</type>", "<type>11</type>"),
        encoding="utf-8",
    )
    for original in (out, leveled):
        copy = tmp_path / "copy.xml"
        assert main(["convert", "--in", str(original), "--out", str(copy)]) == 0
        assert copy.read_bytes() == original.read_bytes()


def test_convert_rejects_unknown_format(tmp_path, capsys):
    assert main(["convert", "--in", "x.json", "--out", "y", "--format", "csv"]) == 1


def test_compare_ranks_reports_by_f1(tmp_path, capsys):
    strong = tmp_path / "retrieval-run.json"
    strong.write_text(json.dumps({
        "metrics": {"inter": 9, "pred": 10, "ref": 10, "precision": 90.0, "recall": 90.0, "f1": 90.0},
        "seconds": {"total": 2.0},
    }), encoding="utf-8")
    weak = tmp_path / "fuzzy-run.json"
    weak.write_text(json.dumps({
        "metrics": {"inter": 5, "pred": 10, "ref": 10, "precision": 50.0, "recall": 50.0, "f1": 50.0},
        "seconds": {"total": 1.0},
    }), encoding="utf-8")
    assert main(["compare", str(weak), str(strong)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[0] == "system"
    assert lines[2].split()[0] == "retrieval-run"
    assert lines[3].split()[0] == "fuzzy-run"


def test_compare_missing_report_exits_1(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("payload", [
    [],
    {"metrics": "x"},
    {"seconds": [2.0]},
    {"metrics": {"inter": "many"}},
    {"metrics": {"pred": float("inf")}},
    {"seconds": {"total": None}},
])
def test_compare_malformed_report_exits_1_naming_the_file(tmp_path, capsys, payload):
    report = tmp_path / "bad-run.json"
    report.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["compare", str(report)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and str(report) in err


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "config error" in capsys.readouterr().err
