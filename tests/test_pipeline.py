"""End-to-end pipeline runs and the JSON config schema."""

from __future__ import annotations

import json

import pytest
from conftest import RecordingClient, ontology_from_labels, write_rdfxml, write_reference_xml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ontomatch import pipeline
from ontomatch.errors import ConfigError
from ontomatch.fuzzy import FuzzyConfig
from ontomatch.llm import LLMConfig, MockLLMClient
from ontomatch.parsing import load_json_alignment, parse_reference_alignment
from ontomatch.pipeline import (
    PipelineConfig,
    RunReport,
    report_path_for,
    run_pipeline,
)
from ontomatch.postprocess import PostprocessConfig
from ontomatch.rag import Exemplar, PromptTemplate, RAGConfig
from ontomatch.retrieval import RetrievalConfig

SRC_BASE = "http://example.org/a#"
TGT_BASE = "http://example.org/b#"


@pytest.fixture()
def corpus_paths(tmp_path):
    labels = ["alloy", "copper", "zinc", "quartz"]
    source = ontology_from_labels(tmp_path / "src.owl", labels, base=SRC_BASE)
    target = ontology_from_labels(tmp_path / "tgt.owl", labels, base=TGT_BASE)
    reference = write_reference_xml(
        tmp_path / "reference.rdf",
        [(f"{SRC_BASE}C{i:03d}", f"{TGT_BASE}C{i:03d}") for i in range(len(labels))],
    )
    return source, target, reference


def base_config(corpus_paths, tmp_path, **overrides) -> PipelineConfig:
    source, target, reference = corpus_paths
    defaults = dict(
        source_path=str(source),
        target_path=str(target),
        reference_path=str(reference),
        output_path=str(tmp_path / "alignment.xml"),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


# -- config schema ----------------------------------------------------------------


def test_config_dict_roundtrip_preserves_everything():
    cfg = PipelineConfig(
        source_path="a.owl",
        target_path="b.owl",
        method="fewshot_rag",
        view="CP",
        fuzzy=FuzzyConfig(method="weighted_token_set", threshold=0.3, weights={"alloy": 2.0}),
        retrieval=RetrievalConfig(backend="embedding", top_k=7, threshold=0.25,
                                  provider_endpoint="mock:?dim=8", model="m", batch_size=4),
        rag=RAGConfig(
            retrieval=RetrievalConfig(top_k=3, threshold=0.4),
            llm=LLMConfig(endpoint="http://h/v1", model_id="m2", batch_size=16),
            llm_threshold=0.6,
            shots=2,
            exemplars=(Exemplar("metal", "metallic", "yes"),),
            template=PromptTemplate(preamble="Same?"),
            journal_path="run.jsonl",
        ),
        postprocess=PostprocessConfig(threshold=0.5, cardinality="one_to_one_greedy"),
        output_path="out.json",
        pair_cap=5000,
    )
    default = PipelineConfig()
    for name in ("fuzzy", "retrieval", "rag", "postprocess"):
        assert getattr(cfg, name) != getattr(default, name)
    for name in ("retrieval", "llm", "template", "exemplars"):
        assert getattr(cfg.rag, name) != getattr(default.rag, name)
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("section", [
    "fuzzy", "retrieval", "rag", "rag.retrieval", "rag.llm", "rag.template", "postprocess",
])
def test_an_empty_section_is_the_default_section(section):
    data: dict = {}
    node = data
    for key in section.split("."):
        node = node.setdefault(key, {})
    assert PipelineConfig.from_dict(data) == PipelineConfig()


def test_keys_left_out_keep_their_section_default():
    assert PipelineConfig.from_dict({"rag": {}}).rag.retrieval.top_k == 5
    rag = PipelineConfig.from_dict({"rag": {"retrieval": {"threshold": 0.4}}}).rag
    assert rag.retrieval == RetrievalConfig(top_k=5, threshold=0.4)
    assert PipelineConfig.from_dict({"rag": None, "fuzzy": None}) == PipelineConfig()


def test_config_rejects_unknown_keys_everywhere():
    with pytest.raises(ConfigError, match="top level"):
        PipelineConfig.from_dict({"sourcepath": "x"})
    with pytest.raises(ConfigError, match="'fuzzy'"):
        PipelineConfig.from_dict({"fuzzy": {"treshold": 0.5}})
    with pytest.raises(ConfigError, match="'rag'"):
        PipelineConfig.from_dict({"rag": {"retreival": {}}})
    with pytest.raises(ConfigError, match="rag.llm"):
        PipelineConfig.from_dict({"rag": {"llm": {"modelid": "x"}}})
    with pytest.raises(ConfigError, match="must be an object"):
        PipelineConfig.from_dict({"postprocess": [1, 2]})
    with pytest.raises(ConfigError, match="exemplars"):
        PipelineConfig.from_dict({"rag": {"exemplars": [{"source": "a"}]}})


@pytest.mark.parametrize("source, target", [(None, "b"), ("a", 3)])
def test_an_exemplar_whose_texts_are_not_strings_is_refused(source, target):
    inline = {"rag": {"exemplars": [{"source": source, "target": target, "answer": "yes"}]}}
    with pytest.raises(ConfigError, match="must be a string"):
        PipelineConfig.from_dict(inline)
    with pytest.raises(ConfigError, match="must be a string"):
        Exemplar(source, target, "yes").validate()


def test_config_validation_catches_bad_fields():
    with pytest.raises(ConfigError):
        PipelineConfig(target_path="b.owl").validate()  # no source
    with pytest.raises(ConfigError):
        PipelineConfig(source_path="a", target_path="b", method="magic").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(source_path="a", target_path="b", view="CPX").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(source_path="a", target_path="b", pair_cap=0).validate()


# -- runs -----------------------------------------------------------------------


def test_fuzzy_run_scores_perfectly_on_identical_labels(corpus_paths, tmp_path):
    cfg = base_config(corpus_paths, tmp_path)
    correspondences, report = run_pipeline(cfg)
    assert len(correspondences) == 4
    assert report.metrics.precision == 100.0
    assert report.metrics.recall == 100.0
    assert report.metrics.f1 == 100.0

    output = tmp_path / "alignment.xml"
    assert output.exists()
    parsed = parse_reference_alignment(output)
    assert len(parsed.cells) == 4
    assert parsed.onto1 == str(corpus_paths[0])

    report_file = report_path_for(output)
    assert report_file.exists()
    payload = json.loads(report_file.read_text(encoding="utf-8"))
    assert payload["method"] == "fuzzy"
    assert payload["correspondences"] == 4
    assert payload["metrics"]["f1"] == 100.0
    assert set(payload["seconds"]) == {
        "parse", "encode", "align", "postprocess", "evaluate", "export", "total",
    }
    # the echoed config is itself a loadable config
    assert PipelineConfig.from_dict(payload["config"]) == cfg


def test_run_without_reference_skips_evaluation(corpus_paths, tmp_path):
    cfg = base_config(corpus_paths, tmp_path, reference_path=None)
    _, report = run_pipeline(cfg)
    assert report.metrics is None
    assert "evaluate" not in report.seconds
    payload = json.loads(report_path_for(cfg.output_path).read_text(encoding="utf-8"))
    assert payload["metrics"] is None


def test_retrieval_run_with_mock_embeddings(corpus_paths, tmp_path):
    cfg = base_config(
        corpus_paths, tmp_path,
        method="retrieval",
        retrieval=RetrievalConfig(backend="embedding", top_k=1, threshold=0.9,
                                  provider_endpoint="mock:?dim=16"),
        output_path=str(tmp_path / "alignment.json"),
    )
    correspondences, report = run_pipeline(cfg)
    assert report.metrics.f1 == 100.0
    cells = load_json_alignment(tmp_path / "alignment.json")
    assert cells == correspondences
    assert all(c.provenance == "retrieval:embedding" for c in cells)


def test_llm_run_maps_completions_to_decisions(tmp_path):
    source = ontology_from_labels(tmp_path / "src.owl", ["alloy"], base=SRC_BASE)
    target = ontology_from_labels(tmp_path / "tgt.owl", ["alloy"], base=TGT_BASE)
    cfg = PipelineConfig(
        source_path=str(source),
        target_path=str(target),
        method="llm",
        output_path=str(tmp_path / "alignment.xml"),
    )
    correspondences, report = run_pipeline(cfg, llm_client=MockLLMClient(PromptTemplate()))
    assert [(c.source, c.target, c.score) for c in correspondences] == [
        (f"{SRC_BASE}C000", f"{TGT_BASE}C000", 1.0)
    ]
    assert correspondences[0].provenance == "llm:pairwise"
    assert report.seconds["encode"] > -1  # encode stage actually timed


def test_an_llm_run_resumes_from_the_rag_journal_path(corpus_paths, tmp_path):
    journal = tmp_path / "llm.jsonl"
    cfg = base_config(corpus_paths, tmp_path, method="llm",
                      rag=RAGConfig(llm=LLMConfig(endpoint="mock:"), journal_path=str(journal)))
    first, _ = run_pipeline(cfg)
    lines = journal.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 16  # one per pair of the 4x4 product
    client = RecordingClient()
    assert run_pipeline(cfg, llm_client=client)[0] == first
    assert client.prompts == [] and journal.read_text(encoding="utf-8").splitlines() == lines


def test_rag_method_runs_zero_shot(corpus_paths, tmp_path):
    client = RecordingClient()
    cfg = base_config(
        corpus_paths, tmp_path,
        method="rag",
        rag=RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9)),
    )
    _, report = run_pipeline(cfg, llm_client=client)
    assert client.prompts and all(
        prompt.count("### Answer:") == 1 for prompt in client.prompts
    )
    assert report.seconds["encode"] == 0.0
    assert report.config["rag"]["shots"] is None


@pytest.mark.parametrize("method, shots, other", [("rag", 1, "fewshot_rag"), ("fewshot_rag", 0, "use method rag")])
def test_shots_that_contradict_the_method_are_rejected(corpus_paths, tmp_path, method, shots, other):
    client = RecordingClient()
    cfg = base_config(corpus_paths, tmp_path, method=method, rag=RAGConfig(shots=shots))
    with pytest.raises(ConfigError, match=other):
        run_pipeline(cfg, llm_client=client)
    assert client.prompts == []


def test_fewshot_rag_defaults_to_two_shots(corpus_paths, tmp_path):
    client = RecordingClient()
    cfg = base_config(
        corpus_paths, tmp_path,
        method="fewshot_rag",
        rag=RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9)),
    )
    run_pipeline(cfg, llm_client=client)
    assert client.prompts and all(
        prompt.count("### Answer:") == 3 for prompt in client.prompts
    )


def test_fewshot_rag_respects_explicit_shot_count(corpus_paths, tmp_path):
    client = RecordingClient()
    cfg = base_config(
        corpus_paths, tmp_path,
        method="fewshot_rag",
        rag=RAGConfig(shots=1, retrieval=RetrievalConfig(top_k=1, threshold=0.9)),
    )
    run_pipeline(cfg, llm_client=client)
    assert client.prompts and all(
        prompt.count("### Answer:") == 2 for prompt in client.prompts
    )


def test_rag_prompts_follow_the_top_level_view(tmp_path):
    labels, hierarchy = ["alloy", "steel"], {1: [0]}
    source = ontology_from_labels(tmp_path / "src.owl", labels, base=SRC_BASE, parents=hierarchy)
    target = ontology_from_labels(tmp_path / "tgt.owl", labels, base=TGT_BASE, parents=hierarchy)
    client = RecordingClient()
    cfg = PipelineConfig(
        source_path=str(source), target_path=str(target), method="rag", view="CP",
        rag=RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9)),
        output_path=str(tmp_path / "alignment.xml"),
    )
    run_pipeline(cfg, llm_client=client)
    assert len(client.prompts) == 2
    assert any("### First concept: steel, parents: alloy\n" in prompt for prompt in client.prompts)


def test_json_reference_files_are_accepted(corpus_paths, tmp_path):
    source, target, _ = corpus_paths
    reference = tmp_path / "reference.json"
    reference.write_text(
        json.dumps([
            {"source": f"{SRC_BASE}C{i:03d}", "target": f"{TGT_BASE}C{i:03d}"}
            for i in range(4)
        ]),
        encoding="utf-8",
    )
    cfg = base_config(corpus_paths, tmp_path, reference_path=str(reference))
    _, report = run_pipeline(cfg)
    assert report.metrics.f1 == 100.0


def test_xml_and_json_references_load_through_one_reader(corpus_paths, tmp_path, monkeypatch):
    pairs = [(f"{SRC_BASE}C{i:03d}", f"{TGT_BASE}C{i:03d}") for i in range(3)]
    pairs.append((f"{SRC_BASE}C003", f"{TGT_BASE}C000"))
    as_xml = write_reference_xml(tmp_path / "ref.rdf", pairs)
    as_json = tmp_path / "ref.json"
    as_json.write_text(json.dumps([{"source": s, "target": t} for s, t in pairs]), encoding="utf-8")
    loaded = []

    def counting_reader(path):
        loaded.append(path)
        return parse_reference_alignment(path)

    monkeypatch.setattr(pipeline, "parse_reference_alignment", counting_reader)
    from_xml = run_pipeline(base_config(corpus_paths, tmp_path, reference_path=str(as_xml)))[1].metrics
    from_json = run_pipeline(base_config(corpus_paths, tmp_path, reference_path=str(as_json)))[1].metrics
    assert from_xml == from_json
    assert (from_xml.inter, from_xml.pred, from_xml.ref) == (3, 4, 4)
    assert loaded == [str(as_xml), str(as_json)]


def test_stage_clock_records_a_stage_that_raises():
    clock = pipeline._StageClock()
    with pytest.raises(ValueError):
        with clock.time("parse"):
            raise ValueError("boom")
    assert clock.finish() == {"parse": 0.0, "total": 0.0}


def test_one_to_one_postprocess_inside_the_pipeline(tmp_path):
    from ontomatch.postprocess import PostprocessConfig

    source = ontology_from_labels(tmp_path / "src.owl", ["alloy", "alloy metal"], base=SRC_BASE)
    target = ontology_from_labels(tmp_path / "tgt.owl", ["alloy"], base=TGT_BASE)
    cfg = PipelineConfig(
        source_path=str(source),
        target_path=str(target),
        postprocess=PostprocessConfig(cardinality="one_to_one_greedy"),
        output_path=str(tmp_path / "alignment.xml"),
    )
    correspondences, _ = run_pipeline(cfg)
    # both sources match the one target; only the best survives
    assert [(c.source, c.target) for c in correspondences] == [
        (f"{SRC_BASE}C000", f"{TGT_BASE}C000")
    ]
    assert correspondences[0].score == 1.0


def test_rag_runs_are_deterministic(corpus_paths, tmp_path):
    cfg = base_config(
        corpus_paths, tmp_path,
        method="rag",
        rag=RAGConfig(retrieval=RetrievalConfig(top_k=2, threshold=0.0), llm=LLMConfig(endpoint="mock:")),
    )
    run_pipeline(cfg)
    first_bytes = (tmp_path / "alignment.xml").read_bytes()
    first_report = json.loads(report_path_for(cfg.output_path).read_text(encoding="utf-8"))
    run_pipeline(cfg)
    assert (tmp_path / "alignment.xml").read_bytes() == first_bytes
    second_report = json.loads(report_path_for(cfg.output_path).read_text(encoding="utf-8"))
    first_report.pop("seconds"), second_report.pop("seconds")
    assert first_report == second_report


def test_missing_ontology_file_raises_file_not_found(tmp_path):
    cfg = PipelineConfig(
        source_path=str(tmp_path / "nope.owl"),
        target_path=str(tmp_path / "nope2.owl"),
        output_path=str(tmp_path / "alignment.xml"),
    )
    with pytest.raises(FileNotFoundError):
        run_pipeline(cfg)


def test_report_json_shape():
    report = RunReport(
        method="fuzzy", view="C", correspondences=2,
        seconds={"total": 0.1}, output_path="x.xml",
    )
    payload = json.loads(report.to_json())
    assert payload == {
        "method": "fuzzy",
        "view": "C",
        "correspondences": 2,
        "seconds": {"total": 0.1},
        "output_path": "x.xml",
        "metrics": None,
        "config": {},
    }


@st.composite
def _reordered_inputs(draw):
    """Two small ontologies and a reference, each ontology's classes in
    document order and in a drawn order, and the reference with one of its
    cells written once more at a drawn position."""
    words = st.text("aeiklmnorst -", min_size=1, max_size=10)

    def classes(base):
        n = draw(st.integers(1, 7))
        return [
            {
                "iri": f"{base}C{i}",
                "labels": draw(st.lists(words, max_size=2)),
                "synonyms": draw(st.lists(words, max_size=1)),
                "parents": [f"{base}C{j}" for j in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))],
            }
            for i in range(n)
        ]

    source, target = classes(SRC_BASE), classes(TGT_BASE)
    reference = draw(st.lists(
        st.tuples(st.sampled_from(source), st.sampled_from(target)).map(lambda pair: (pair[0]["iri"], pair[1]["iri"])),
        min_size=1, max_size=6,
    ))
    repeated = list(reference)
    repeated.insert(draw(st.integers(0, len(reference))), draw(st.sampled_from(reference)))
    return (source, draw(st.permutations(source))), (target, draw(st.permutations(target))), (reference, repeated)


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_reordered_inputs(), st.sampled_from(["fuzzy", "retrieval"]), st.sampled_from(["C", "CC", "CP"]))
def test_class_order_and_a_repeated_reference_cell_change_no_output(tmp_path, inputs, method, view):
    (source, shuffled_source), (target, shuffled_target), (reference, repeated) = inputs
    cfg = PipelineConfig(
        source_path=str(tmp_path / "src.owl"), target_path=str(tmp_path / "tgt.owl"),
        reference_path=str(tmp_path / "reference.rdf"), output_path=str(tmp_path / "alignment.xml"),
        method=method, view=view,
    )

    def run(source, target, reference):
        write_rdfxml(tmp_path / "src.owl", source)
        write_rdfxml(tmp_path / "tgt.owl", target)
        write_reference_xml(tmp_path / "reference.rdf", reference)
        _, report = run_pipeline(cfg)
        return (tmp_path / "alignment.xml").read_bytes(), report.metrics

    assert run(shuffled_source, shuffled_target, repeated) == run(source, target, reference)
