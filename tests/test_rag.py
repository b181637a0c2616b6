"""Prompt assembly, pairwise LLM alignment, and retrieve-then-generate."""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import FlakyClient, RecordingClient, RuleClient, make_corpus, make_ontology

from ontomatch.encoding import EncodingView, encode
from ontomatch.errors import ConfigError, PairCapExceeded, TemplateError
from ontomatch.fuzzy import fuzzy_ratio
from ontomatch.llm import LLMConfig
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
    # A run validates its template once, up front, not on every prompt.
    with pytest.raises(TemplateError):
        template.validate()
    with pytest.raises(TemplateError):
        RAGConfig(template=template).validate()
    client = RuleClient()
    with pytest.raises(TemplateError):
        align_llm_pairwise(make_corpus(["a"]), make_corpus(["b"]), LLMConfig(), template=template, client=client)
    assert client.call_count == 0


# Literals and texts come from disjoint alphabets, so no text contains a
# literal; a text may hold the template's placeholders.
_LITERAL = st.text(alphabet="#:|>= \n", max_size=4)
_TEXT = st.lists(
    st.sampled_from(["a", "b", "x", "0", "9", ",", "(", ")", "-", "{", "}", "{src}", "{tgt}", "{answer}"]),
    max_size=6,
).map("".join)


@st.composite
def _prompted_texts(draw):
    """A template, two texts and shots, and the prompt they render to,
    assembled from the template's literals."""
    shots = tuple(draw(st.lists(st.builds(Exemplar, _TEXT, _TEXT, st.sampled_from(["yes", "no"])), max_size=3)))
    first, second = draw(st.permutations(["{src}", "{tgt}"]))
    shot_literals = [draw(_LITERAL) for _ in range(4)]
    # After shots, a literal must mark where the query block starts: the
    # block's opening or the shot block's closing (query_texts' documented limit).
    opening = draw(_LITERAL.filter(bool) if shots and not shot_literals[3] else _LITERAL)
    middle, closing, preamble = draw(_LITERAL.filter(bool)), draw(_LITERAL), draw(_LITERAL)
    template = PromptTemplate(
        preamble=preamble,
        query_block=opening + first + middle + second + closing,
        shot_block="{src}".join(shot_literals[:2]) + "{tgt}" + "{answer}".join(shot_literals[2:]),
    )
    source_text, target_text = draw(_TEXT), draw(_TEXT)
    texts = {"{src}": source_text, "{tgt}": target_text}
    prompt = preamble + "\n" + "".join(
        shot_literals[0] + shot.source + shot_literals[1] + shot.target + shot_literals[2] + shot.answer
        + shot_literals[3] for shot in shots
    ) + opening + texts[first] + middle + texts[second] + closing
    return template, source_text, target_text, shots, prompt


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_prompted_texts())
def test_query_texts_reads_back_the_texts_build_prompt_rendered(case):
    template, source_text, target_text, shots, prompt = case
    assert build_prompt(source_text, target_text, shots, template) == prompt  # every text verbatim
    assert template.query_texts(prompt) == (source_text, target_text)


def test_a_text_holding_a_placeholder_is_not_filled_again():
    prompt = build_prompt("set {tgt}", "alloy", (Exemplar("{answer}", "{src}", "no"),))
    assert prompt.endswith("### First concept: set {tgt}\n### Second concept: alloy\n### Answer: ")
    assert "### First concept: {answer}\n### Second concept: {src}\n### Answer: no\n" in prompt
    assert PromptTemplate().query_texts(prompt) == ("set {tgt}", "alloy")


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
        ("nullsource.json", '[{"source": null, "target": "b", "answer": "yes"}]'),
        ("numbertarget.json", '[{"source": "a", "target": 3, "answer": "yes"}]'),
    ]:
        path = tmp_path / name
        path.write_bytes(payload.encode("latin-1"))
        with pytest.raises(ConfigError):
            load_exemplars(path)


# -- exhaustive pairwise alignment ----------------------------------------------


def canned_server(server, canned, default):
    """Answer each prompt with its text in ``canned``, else ``default``, without logprobs."""
    server.app = lambda path, payload: (200, {"choices": [{"text": canned.get(payload["prompt"], default)}]})
    return LLMConfig(endpoint=f"{server.url}/v1/completions")


def test_pairwise_keeps_exactly_the_yes_pairs(http_server):
    src = make_corpus(["alloy", "quartz"])
    tgt = make_corpus(["metal alloy", "mineral"], prefix="http://example.org/b#")
    canned = {
        build_prompt("alloy", "metal alloy"): "Yes, same concept.",
        build_prompt("alloy", "mineral"): "No.",
        build_prompt("quartz", "metal alloy"): "No.",
        build_prompt("quartz", "mineral"): "No, broader.",
    }
    out = align_llm_pairwise(src, tgt, canned_server(http_server, canned, "UNMATCHED"))
    assert [(c.source, c.target, c.score) for c in out] == [
        (src.iris[0], tgt.iris[0], 1.0)
    ]
    assert out[0].provenance == "llm:pairwise"
    assert len(http_server.requests) == 4


def test_pairwise_drops_answers_that_say_neither_yes_nor_no(http_server):
    src = make_corpus(["alloy"])
    tgt = make_corpus(["metal alloy", "mineral"], prefix="http://example.org/b#")
    canned = {
        build_prompt("alloy", "metal alloy"): "Maybe.",
        build_prompt("alloy", "mineral"): "",
    }
    assert align_llm_pairwise(src, tgt, canned_server(http_server, canned, "yes")) == []
    assert len(http_server.requests) == 2


def test_pairwise_refuses_oversized_products_before_any_request():
    src = make_corpus([f"s{i}" for i in range(3)])
    tgt = make_corpus([f"t{i}" for i in range(4)], prefix="http://example.org/b#")
    client = RuleClient()
    with pytest.raises(PairCapExceeded):
        align_llm_pairwise(src, tgt, LLMConfig(), pair_cap=11, client=client)
    assert client.call_count == 0


def test_pairwise_batches_cover_all_pairs():
    src = make_corpus([f"s{i}" for i in range(3)])
    tgt = make_corpus([f"t{i}" for i in range(5)], prefix="http://example.org/b#")
    client = RuleClient(rules={})
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
    out = align_rag(source, target, RAGConfig(llm=LLMConfig(endpoint="mock:")))
    assert [(c.source, c.target) for c in out] == [
        (source.concepts[i].iri, target.concepts[i].iri) for i in range(len(LABELS))
    ]
    assert all(c.score == 1.0 and c.provenance == "rag" for c in out)


def test_a_rag_run_needs_an_endpoint_even_with_nothing_to_ask():
    source = make_ontology(["alloy"], base="http://example.org/a#")
    target = make_ontology(["quartz"], base="http://example.org/b#")
    assert align_rag(source, target, RAGConfig(llm=LLMConfig(endpoint="mock:"))) == []
    with pytest.raises(ConfigError, match="--endpoint"):
        align_rag(source, target, RAGConfig())


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
    client = RuleClient()
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
    out = align_rag(source, target, cfg, client=RuleClient(rules=rules))
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
    out = align_rag(source, target, cfg, client=RuleClient(rules=rules))
    assert [(c.target, c.score) for c in out] == [
        (target.concepts[2].iri, 0.9),
        (target.concepts[0].iri, 0.8),
        (target.concepts[1].iri, 0.8),
    ]


def test_fewshot_rag_same_pairs_different_provenance():
    source, target = rag_fixtures()
    zero = align_rag(source, target, RAGConfig(llm=LLMConfig(endpoint="mock:")))
    few = align_rag(source, target, RAGConfig(shots=2, llm=LLMConfig(endpoint="mock:")))
    assert [(c.source, c.target, c.score) for c in zero] == [
        (c.source, c.target, c.score) for c in few
    ]
    assert all(c.provenance == "rag:fewshot" for c in few)


def test_fewshot_prompts_carry_the_exemplars_in_order():
    source, target = rag_fixtures()
    client = RecordingClient()
    align_rag(source, target, RAGConfig(shots=2, retrieval=RetrievalConfig(top_k=1, threshold=0.9)), client=client)
    assert len(client.prompts) == 5
    assert client.prompts[0] == build_prompt("alloy", "alloy", DEFAULT_EXEMPLARS)


def test_shots_beyond_available_exemplars_rejected():
    source, target = rag_fixtures()
    with pytest.raises(ConfigError):
        align_rag(source, target, RAGConfig(shots=3), client=RuleClient())


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
    prompt = client.prompts[0]
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
    assert sorted(PromptTemplate().query_texts(prompt) for prompt in client.prompts) == [
        ("alloy, children: steel", "alloy, children: steel"), ("steel", "steel"),
    ]


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

    resumed_client = RuleClient()
    resumed = align_rag(source, target, cfg, client=resumed_client)
    assert resumed_client.call_count == 3  # only the undecided pairs
    assert len(journal.read_text(encoding="utf-8").strip().splitlines()) == 5

    clean_cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), llm=LLMConfig(endpoint="mock:"))
    clean = align_rag(source, target, clean_cfg)
    assert resumed == clean


def test_a_torn_last_journal_line_is_asked_again_once(tmp_path, caplog):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), llm=LLMConfig(endpoint="mock:"), journal_path=str(journal))
    align_rag(source, target, cfg)
    data = journal.read_bytes()
    journal.write_bytes(data[:data.rindex(b"\n", 0, -1) + 20])  # cut mid-way through the last line

    first = RuleClient()
    with caplog.at_level(logging.WARNING, logger="ontomatch.rag"):
        align_rag(source, target, cfg, client=first)
    assert first.call_count == 1  # only the torn pair
    second = RuleClient()
    align_rag(source, target, cfg, client=second)
    assert second.call_count == 0
    assert "journal line 5" in caplog.text


def test_journal_entries_are_sorted_json_objects(tmp_path):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), llm=LLMConfig(endpoint="mock:"), journal_path=str(journal))
    align_rag(source, target, cfg)
    for line in journal.read_text(encoding="utf-8").strip().splitlines():
        entry = json.loads(line)
        assert list(entry) == ["confidence", "fallback", "key", "label"]


def _journal_keys(tmp_path, source, target, cfg):
    """The request keys a run of ``cfg`` journals, one per pair in pair order."""
    scratch = tmp_path / "keys.jsonl"
    align_rag(source, target, replace(cfg, journal_path=str(scratch)), client=RuleClient())
    return [json.loads(line)["key"] for line in scratch.read_text(encoding="utf-8").splitlines()]


def test_corrupted_journal_lines_warn_and_are_skipped(tmp_path, caplog):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), journal_path=str(journal))
    valid = json.dumps({
        "key": _journal_keys(tmp_path, source, target, cfg)[0],
        "confidence": 1.0,
        "label": "yes",
        "fallback": False,
    })
    journal.write_bytes(valid.encode("utf-8") + b"\nnot json at all\n\xff\xfe junk\n")
    client = RuleClient()
    with caplog.at_level(logging.WARNING, logger="ontomatch.rag"):
        out = align_rag(source, target, cfg, client=client)
    assert "journal line 2" in caplog.text
    assert "journal line 3" in caplog.text  # not UTF-8
    assert client.call_count == 4  # the valid line is honored
    assert len(out) == 5


def test_journal_lines_with_unusable_confidences_are_asked_again(tmp_path, caplog):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), journal_path=str(journal))
    keys = _journal_keys(tmp_path, source, target, cfg)
    lines = [
        json.dumps({"key": keys[i], "confidence": confidence, "label": "yes", "fallback": False})
        for i, confidence in ((0, math.nan), (1, 1.5))
    ]
    # a line written before decisions were journaled with their label
    lines.append(json.dumps({"key": keys[2], "confidence": 1.0}))
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    client = RuleClient()
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


# -- a journal keyed by the request ------------------------------------------------


def _ring(base):
    """LABELS as concepts whose parent is the next concept, round a ring, so
    every CP prompt differs from the C prompt for the same pair."""
    concepts = tuple(
        ConceptRecord(iri=f"{base}C{i}", label=label, parents=(f"{base}C{(i + 1) % len(LABELS)}",))
        for i, label in enumerate(LABELS)
    )
    return Ontology(concepts=concepts, source_path="<memory>", format="rdf-xml")


_LLM = LLMConfig(endpoint="mock:", batch_size=2)


@pytest.mark.parametrize("change,view", [
    ({"llm": replace(_LLM, endpoint="http://127.0.0.1:9/v1/completions")}, EncodingView.C),
    ({"llm": replace(_LLM, model_id="other")}, EncodingView.C),
    ({"llm": replace(_LLM, temperature=0.7)}, EncodingView.C),
    ({"llm": replace(_LLM, max_new_tokens=1)}, EncodingView.C),
    ({"template": PromptTemplate(preamble="Same thing?")}, EncodingView.C),
    ({"shots": 2}, EncodingView.C),
    ({"exemplars": (Exemplar("metal", "metallic", "yes"),)}, EncodingView.C),
    ({}, EncodingView.CP),
], ids=["endpoint", "model_id", "temperature", "max_new_tokens", "template", "shots", "exemplars", "view"])
def test_a_rerun_with_a_changed_request_asks_every_pair_again(tmp_path, change, view):
    source, target = _ring("http://example.org/a#"), _ring("http://example.org/b#")
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), llm=_LLM, shots=1,
                    journal_path=str(tmp_path / "run.jsonl"))
    first, rerun = RecordingClient(), RecordingClient()
    align_rag(source, target, cfg, client=first)
    align_rag(source, target, replace(cfg, **change), view=view, client=rerun)
    assert len(first.prompts) == len(rerun.prompts) == len(LABELS)


@pytest.mark.parametrize("change", [
    {"llm_threshold": 0.9},
    {"llm": replace(_LLM, batch_size=3)},
    {"llm": replace(_LLM, request_timeout=5.0)},
], ids=["llm_threshold", "batch_size", "request_timeout"])
def test_a_rerun_with_the_same_requests_asks_nothing(tmp_path, change):
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), llm=_LLM,
                    journal_path=str(tmp_path / "run.jsonl"))
    first, rerun = RecordingClient(), RecordingClient()
    assert align_rag(source, target, cfg, client=first) == align_rag(
        source, target, replace(cfg, **change), client=rerun)
    assert (len(first.prompts), len(rerun.prompts)) == (len(LABELS), 0)


def test_an_interrupted_llm_run_resumes_to_the_bytes_of_an_uninterrupted_one(tmp_path):
    src = make_corpus(LABELS)
    tgt = make_corpus(LABELS, prefix="http://example.org/b#")
    cfg = LLMConfig(batch_size=4)
    clean_journal, journal = tmp_path / "clean.jsonl", tmp_path / "run.jsonl"
    clean = align_llm_pairwise(src, tgt, cfg, journal_path=str(clean_journal), client=RuleClient())
    with pytest.raises(RuntimeError):
        align_llm_pairwise(src, tgt, cfg, journal_path=str(journal), client=FlakyClient(fail_on_batch=3))
    assert len(journal.read_text(encoding="utf-8").splitlines()) == 8  # two completed chunks of four

    resumed_client = RuleClient()
    resumed = align_llm_pairwise(src, tgt, cfg, journal_path=str(journal), client=resumed_client)
    assert resumed_client.call_count == len(LABELS) ** 2 - 8
    assert resumed == clean and len(clean) == len(LABELS)
    assert journal.read_bytes() == clean_journal.read_bytes()


def test_llm_and_rag_sharing_a_journal_reuse_only_their_own_lines(tmp_path):
    # Both methods send the same C-view prompt for a pair, but one reads the
    # text and the other the logprobs: different decisions, different keys.
    journal = str(tmp_path / "run.jsonl")
    source, target = rag_fixtures()
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), journal_path=journal)
    corpora = encode(source, EncodingView.C), encode(target, EncodingView.C)
    asked = []
    for _ in range(2):
        rag_client, llm_client = RuleClient(), RuleClient()
        align_rag(source, target, cfg, client=rag_client)
        align_llm_pairwise(*corpora, cfg.llm, journal_path=journal, client=llm_client)
        asked += [rag_client.call_count, llm_client.call_count]
    assert asked == [len(LABELS), len(LABELS) ** 2, 0, 0]


def test_a_journal_line_without_a_key_is_asked_again(tmp_path, caplog):
    journal = tmp_path / "run.jsonl"
    source, target = rag_fixtures()
    keyless = {"source": source.concepts[0].iri, "target": target.concepts[0].iri,
               "confidence": 1.0, "label": "yes", "fallback": False}
    journal.write_text(json.dumps(keyless, sort_keys=True) + "\n", encoding="utf-8")
    cfg = RAGConfig(retrieval=RetrievalConfig(top_k=1, threshold=0.9), journal_path=str(journal))
    client = RuleClient()
    with caplog.at_level(logging.WARNING, logger="ontomatch.rag"):
        align_rag(source, target, cfg, client=client)
    assert client.call_count == len(LABELS)
    assert "journal line 1" in caplog.text
