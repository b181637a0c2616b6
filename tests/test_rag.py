"""Prompt assembly, pairwise LLM alignment, and retrieve-then-generate."""

from __future__ import annotations

import itertools
import json
import logging
import math
import time

import pytest
from conftest import make_corpus, make_ontology

from ontomatch.encoding import EncodingView
from ontomatch.errors import ConfigError, PairCapExceeded, TemplateError
from ontomatch.fuzzy import fuzzy_ratio
from ontomatch.llm import Decision, LLMConfig, MockLLMClient
from ontomatch.parsing import ConceptRecord, Ontology
from ontomatch.rag import (
    DEFAULT_EXEMPLARS,
    Exemplar,
    PromptTemplate,
    RAGConfig,
    align_llm_pairwise,
    align_rag,
    build_prompt,
    load_exemplars,
)
from ontomatch.retrieval import RetrievalConfig

PREAMBLE = (
    "Classify if the two concepts refer to the same real-world entity. "
    "Answer with yes or no."
)


class RecordingClient:
    """Answers yes to everything and keeps the prompts it was asked."""

    def __init__(self, confidence: float = 1.0):
        self.items: list[tuple[str, tuple[str, str] | None]] = []
        self.confidence = confidence

    def decide_many(self, items):
        self.items.extend(items)
        label = "yes" if self.confidence >= 0.5 else "no"
        return [Decision(label=label, confidence=self.confidence) for _ in items]


class FlakyClient(MockLLMClient):
    """Raises on the n-th batch to simulate an interrupted run."""

    def __init__(self, fail_on_batch: int, **kwargs):
        super().__init__(**kwargs)
        self.fail_on_batch = fail_on_batch
        self.batches = 0

    def decide_many(self, items):
        self.batches += 1
        if self.batches == self.fail_on_batch:
            raise RuntimeError("simulated crash")
        return super().decide_many(items)


# -- prompts -------------------------------------------------------------------


def test_zero_shot_prompt_golden_string():
    prompt = build_prompt("alloy", "metal alloy")
    assert prompt == (
        PREAMBLE
        + "\n### First concept: alloy\n### Second concept: metal alloy\n### Answer: "
    )


def test_two_shot_prompt_golden_string():
    prompt = build_prompt("alloy", "metal alloy", shots=DEFAULT_EXEMPLARS)
    assert prompt == (
        PREAMBLE + "\n"
        "### First concept: car\n### Second concept: automobile\n### Answer: yes\n"
        "### First concept: car\n### Second concept: banana\n### Answer: no\n"
        "### First concept: alloy\n### Second concept: metal alloy\n### Answer: "
    )
    assert prompt.count("### Answer:") == 3


def test_custom_template_and_literal_braces():
    template = PromptTemplate(
        preamble="Same thing?",
        query_block="Q: {src} vs {tgt} {unused} -> ",
        shot_block="E: {src} vs {tgt} = {answer}\n",
    )
    prompt = build_prompt("a", "b", (Exemplar("x", "y", "no"),), template)
    assert prompt == "Same thing?\nE: x vs y = no\nQ: a vs b {unused} -> "


@pytest.mark.parametrize(
    "template",
    [
        PromptTemplate(query_block="only {src} here: "),
        PromptTemplate(query_block="{src} {tgt} {src} "),
        PromptTemplate(shot_block="{src} {tgt} no answer\n"),
    ],
)
def test_templates_require_each_placeholder_exactly_once(template):
    with pytest.raises(TemplateError):
        template.validate()
    with pytest.raises(TemplateError):
        build_prompt("a", "b", DEFAULT_EXEMPLARS[:1], template)


def test_exemplar_answers_are_checked():
    with pytest.raises(ConfigError):
        Exemplar("a", "b", "maybe").validate()
    with pytest.raises(ConfigError):
        RAGConfig(exemplars=(Exemplar("a", "b", "perhaps"),)).validate()


def test_load_exemplars_roundtrip_and_errors(tmp_path):
    good = tmp_path / "shots.json"
    good.write_text(
        json.dumps([{"source": "metal", "target": "metallic", "answer": "yes"}]),
        encoding="utf-8",
    )
    assert load_exemplars(good) == (Exemplar("metal", "metallic", "yes"),)

    for name, payload in [
        ("syntax.json", "[{"),
        ("object.json", '{"source": "x"}'),
        ("missing.json", '[{"source": "a"}]'),
        ("empty.json", "[]"),
        ("badanswer.json", '[{"source": "a", "target": "b", "answer": "maybe"}]'),
        ("latin1.json", '[{"source": "café", "target": "coffee", "answer": "yes"}]'),
    ]:
        path = tmp_path / name
        path.write_bytes(payload.encode("latin-1"))
        with pytest.raises(ConfigError):
            load_exemplars(path)


# -- exhaustive pairwise alignment ----------------------------------------------


def test_pairwise_keeps_exactly_the_yes_pairs():
    src = make_corpus(["alloy", "quartz"])
    tgt = make_corpus(["metal alloy", "mineral"], prefix="http://example.org/b#")
    canned = {
        build_prompt("alloy", "metal alloy"): "Yes, same concept.",
        build_prompt("alloy", "mineral"): "No.",
        build_prompt("quartz", "metal alloy"): "No.",
        build_prompt("quartz", "mineral"): "No, broader.",
    }
    client = MockLLMClient(canned=canned, default_completion="UNMATCHED")
    out = align_llm_pairwise(src, tgt, LLMConfig(), client=client)
    assert [(c.source, c.target, c.score) for c in out] == [
        (src.iris[0], tgt.iris[0], 1.0)
    ]
    assert out[0].provenance == "llm:pairwise"
    assert client.call_count == 4


def test_pairwise_drops_answers_that_say_neither_yes_nor_no():
    src = make_corpus(["alloy"])
    tgt = make_corpus(["metal alloy", "mineral"], prefix="http://example.org/b#")
    canned = {
        build_prompt("alloy", "metal alloy"): "Maybe.",
        build_prompt("alloy", "mineral"): "",
    }
    client = MockLLMClient(canned=canned, default_completion="yes")
    assert align_llm_pairwise(src, tgt, LLMConfig(), client=client) == []
    assert client.call_count == 2


def test_pairwise_refuses_oversized_products_before_any_request():
    src = make_corpus([f"s{i}" for i in range(3)])
    tgt = make_corpus([f"t{i}" for i in range(4)], prefix="http://example.org/b#")
    client = MockLLMClient()
    with pytest.raises(PairCapExceeded):
        align_llm_pairwise(src, tgt, LLMConfig(), pair_cap=11, client=client)
    assert client.call_count == 0


def test_pairwise_batches_cover_all_pairs():
    src = make_corpus([f"s{i}" for i in range(3)])
    tgt = make_corpus([f"t{i}" for i in range(5)], prefix="http://example.org/b#")
    client = MockLLMClient(default_completion="no")
    align_llm_pairwise(src, tgt, LLMConfig(batch_size=4), client=client)
    assert client.call_count == 15


# -- retrieve-then-generate ------------------------------------------------------


LABELS = ["alloy", "copper", "zinc", "quartz", "basalt"]


def rag_fixtures():
    source = make_ontology(LABELS, base="http://example.org/a#")
    target = make_ontology(LABELS, base="http://example.org/b#")
    return source, target


def test_distinct_labels_stay_below_the_default_threshold():
    # the identity scenario below relies on cross-pair label similarity
    # falling under T_l while self pairs sit at exactly 1.0
    for a, b in itertools.combinations(LABELS, 2):
        assert fuzzy_ratio(a, b) < 0.5


def test_rag_identity_alignment_with_similarity_mock():
    source, target = rag_fixtures()
    out = align_rag(source, target, RAGConfig())
    assert [(c.source, c.target) for c in out] == [
        (source.concepts[i].iri, target.concepts[i].iri) for i in range(len(LABELS))
    ]
    assert all(c.score == 1.0 and c.provenance == "rag" for c in out)


def test_rag_over_http_closes_the_connections_it_opened(keepalive_server):
    def app(path, payload):
        if path == "/v1/embeddings":
            vectors = [[1.0, float(len(text))] for text in payload["input"]]
            return 200, {"data": [{"index": i, "embedding": v} for i, v in enumerate(vectors)]}
        choice = {"text": "yes", "logprobs": {"top_logprobs": [{" yes": math.log(0.9)}]}}
        return 200, {"choices": [choice]}

    keepalive_server.app = app
    source, target = rag_fixtures()
    cfg = RAGConfig(
        retrieval=RetrievalConfig(
            backend="embedding", top_k=2, provider_endpoint=f"{keepalive_server.url}/v1/embeddings",
        ),
        llm=LLMConfig(endpoint=f"{keepalive_server.url}/v1/completions", batch_size=2),
    )
    out = align_rag(source, target, cfg)
    assert len(out) == 2 * len(LABELS)
    # one embedding connection plus at most batch_size completion ones
    assert 2 <= keepalive_server.connections <= 3
    deadline = time.monotonic() + 5.0
    while keepalive_server.open_connections and time.monotonic() < deadline:
        time.sleep(0.01)
    assert keepalive_server.open_connections == 0


def test_rag_output_is_a_subset_of_the_retrieval_shortlist():
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=5, threshold=0.4))
    client = MockLLMClient()
    out = align_rag(source, target, cfg, client=client)
    # distinct single-token labels share no TF-IDF terms, so only the five
    # identical pairs survive retrieval and only those reach the model
    assert client.call_count == 5
    assert len(out) == 5


def test_rag_threshold_boundary_and_validation():
    source, target = rag_fixtures()
    rules = {(label, label): 0.99 for label in LABELS}
    rules[("alloy", "alloy")] = 1.0
    cfg = RAGConfig(llm_threshold=1.0)
    out = align_rag(source, target, cfg, client=MockLLMClient(rules=rules))
    assert [(c.source, c.target) for c in out] == [
        (source.concepts[0].iri, target.concepts[0].iri)
    ]
    with pytest.raises(ConfigError):
        RAGConfig(llm_threshold=1.01).validate()


def test_rag_orders_by_source_then_confidence_then_target():
    source = make_ontology(["alpha"], base="http://example.org/a#")
    target = make_ontology(["beta", "gamma", "delta"], base="http://example.org/b#")
    rules = {
        ("alpha", "beta"): 0.8,
        ("alpha", "gamma"): 0.8,
        ("alpha", "delta"): 0.9,
    }
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=3, threshold=0.0))
    out = align_rag(source, target, cfg, client=MockLLMClient(rules=rules))
    assert [(c.target, c.score) for c in out] == [
        (target.concepts[2].iri, 0.9),
        (target.concepts[0].iri, 0.8),
        (target.concepts[1].iri, 0.8),
    ]


def test_fewshot_rag_same_pairs_different_provenance():
    source, target = rag_fixtures()
    zero = align_rag(source, target, RAGConfig())
    few = align_rag(source, target, RAGConfig(shots=2))
    assert [(c.source, c.target, c.score) for c in zero] == [
        (c.source, c.target, c.score) for c in few
    ]
    assert all(c.provenance == "rag:fewshot" for c in few)


def test_fewshot_prompts_carry_the_exemplars_in_order():
    source, target = rag_fixtures()
    client = RecordingClient()
    align_rag(source, target, RAGConfig(shots=2, retrieval=RetrievalConfig(top_k=1, threshold=0.9)), client=client)
    assert len(client.items) == 5
    prompt, meta = client.items[0]
    assert meta == ("alloy", "alloy")
    assert prompt == build_prompt("alloy", "alloy", DEFAULT_EXEMPLARS)


def test_shots_beyond_available_exemplars_rejected():
    source, target = rag_fixtures()
    with pytest.raises(ConfigError):
        align_rag(source, target, RAGConfig(shots=3), client=MockLLMClient())


def test_exemplars_file_overrides_the_builtin_examples(tmp_path):
    shots_file = tmp_path / "shots.json"
    shots_file.write_text(
        json.dumps([{"source": "metal", "target": "metallic", "answer": "yes"}]),
        encoding="utf-8",
    )
    source, target = rag_fixtures()
    client = RecordingClient()
    cfg = RAGConfig(
        shots=1,
        exemplars_path=str(shots_file),
        retrieval=RetrievalConfig(top_k=1, threshold=0.9),
    )
    align_rag(source, target, cfg, client=client)
    prompt, _ = client.items[0]
    assert "### First concept: metal\n### Second concept: metallic\n### Answer: yes\n" in prompt


def test_retrieval_sees_plain_labels_while_prompts_carry_hierarchy():
    concepts = (
        ConceptRecord(iri="http://example.org/a#C0", label="alloy",
                      children=("http://example.org/a#C1",)),
        ConceptRecord(iri="http://example.org/a#C1", label="steel",
                      parents=("http://example.org/a#C0",)),
    )
    source = Ontology(concepts=concepts, source_path="<memory>", format="rdf-xml")
    target_concepts = tuple(
        ConceptRecord(iri=c.iri.replace("/a#", "/b#"), label=c.label,
                      children=tuple(x.replace("/a#", "/b#") for x in c.children),
                      parents=tuple(x.replace("/a#", "/b#") for x in c.parents))
        for c in concepts
    )
    target = Ontology(concepts=target_concepts, source_path="<memory>", format="rdf-xml")
    client = RecordingClient()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9))
    out = align_rag(source, target, cfg, view=EncodingView.CC, client=client)
    # identical plain labels matched despite the view asking for children
    assert len(out) == 2
    prompts = [prompt for prompt, _ in client.items]
    assert any("alloy, children: steel" in prompt for prompt in prompts)
    assert all(meta in [("alloy", "alloy"), ("steel", "steel")] for _, meta in client.items)


def test_journal_resume_skips_already_decided_pairs(tmp_path):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    cfg = RAGConfig(
        llm=LLMConfig(batch_size=2),
        retrieval=RetrievalConfig(top_k=1, threshold=0.9),
        journal_path=str(journal),
    )
    flaky = FlakyClient(fail_on_batch=2)
    with pytest.raises(RuntimeError):
        align_rag(source, target, cfg, client=flaky)
    first_pass = journal.read_text(encoding="utf-8").strip().splitlines()
    assert len(first_pass) == 2  # one completed batch of two decisions

    resumed_client = MockLLMClient()
    resumed = align_rag(source, target, cfg, client=resumed_client)
    assert resumed_client.call_count == 3  # only the undecided pairs
    assert len(journal.read_text(encoding="utf-8").strip().splitlines()) == 5

    clean = align_rag(source, target, RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9)))
    assert resumed == clean


def test_journal_entries_are_sorted_json_objects(tmp_path):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), journal_path=str(journal))
    align_rag(source, target, cfg)
    for line in journal.read_text(encoding="utf-8").strip().splitlines():
        entry = json.loads(line)
        assert list(entry) == ["confidence", "fallback", "label", "source", "target"]


def test_corrupted_journal_lines_warn_and_are_skipped(tmp_path, caplog):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    valid = json.dumps({
        "source": source.concepts[0].iri,
        "target": target.concepts[0].iri,
        "confidence": 1.0,
        "label": "yes",
        "fallback": False,
    })
    journal.write_bytes(valid.encode("utf-8") + b"\nnot json at all\n\xff\xfe junk\n")
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), journal_path=str(journal))
    client = MockLLMClient()
    with caplog.at_level(logging.WARNING, logger="ontomatch.rag"):
        out = align_rag(source, target, cfg, client=client)
    assert "journal line 2" in caplog.text
    assert "journal line 3" in caplog.text  # not UTF-8
    assert client.call_count == 4  # the valid line is honored
    assert len(out) == 5


def test_journal_lines_with_unusable_confidences_are_asked_again(tmp_path, caplog):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    lines = [
        json.dumps({"source": source.concepts[i].iri, "target": target.concepts[i].iri,
                    "confidence": confidence, "label": "yes", "fallback": False})
        for i, confidence in ((0, math.nan), (1, 1.5))
    ]
    # a line written before decisions were journaled with their label
    lines.append(json.dumps({"source": source.concepts[2].iri, "target": target.concepts[2].iri,
                             "confidence": 1.0}))
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), journal_path=str(journal))
    client = MockLLMClient()
    with caplog.at_level(logging.WARNING, logger="ontomatch.rag"):
        out = align_rag(source, target, cfg, client=client)
    for line_no in (1, 2, 3):
        assert f"journal line {line_no}" in caplog.text
    assert client.call_count == 5  # all three pairs are asked again
    assert [c.score for c in out] == [1.0] * 5


def _text_only_server(server, answer):
    """Serve C-view embeddings and completions that carry no logprobs."""

    def app(path, payload):
        if path == "/v1/embeddings":
            vectors = [[1.0, float(len(text))] for text in payload["input"]]
            return 200, {"data": [{"index": i, "embedding": v} for i, v in enumerate(vectors)]}
        return 200, {"choices": [{"text": answer}]}

    server.app = app
    return RetrievalConfig(
        backend="embedding", top_k=2, provider_endpoint=f"{server.url}/v1/embeddings",
    ), LLMConfig(endpoint=f"{server.url}/v1/completions", batch_size=2)


@pytest.mark.parametrize("llm_threshold", [0.5, 0.9])
@pytest.mark.parametrize("answer,kept", [("No, they differ.", False), ("Yes.", True)])
def test_fallback_decisions_are_kept_by_their_label(http_server, answer, kept, llm_threshold):
    # Without logprobs every decision is a fallback at a flat 0.5: the
    # answer's label decides, whatever the threshold.
    retrieval_cfg, llm_cfg = _text_only_server(http_server, answer)
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=retrieval_cfg, llm=llm_cfg, llm_threshold=llm_threshold)
    out = align_rag(source, target, cfg)
    assert len(out) == (2 * len(LABELS) if kept else 0)
    assert all(c.score == 0.5 for c in out)


def test_journaled_fallbacks_resume_by_their_label(tmp_path, http_server):
    journal = tmp_path / "run.jsonl"
    retrieval_cfg, llm_cfg = _text_only_server(http_server, "No, they differ.")
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=retrieval_cfg, llm=llm_cfg, journal_path=str(journal))
    assert align_rag(source, target, cfg) == []
    entries = [json.loads(line) for line in journal.read_text(encoding="utf-8").splitlines()]
    assert len(entries) == 2 * len(LABELS)
    assert all(e["label"] == "no" and e["fallback"] is True and e["confidence"] == 0.5
               for e in entries)
    asked = len(http_server.requests)
    assert align_rag(source, target, cfg) == []  # every pair comes from the journal
    assert [r["path"] for r in http_server.requests[asked:]] == ["/v1/embeddings"] * 2
