"""Concept-text encoding under the C, CC, and CP views."""

from __future__ import annotations

import pytest
from conftest import ontology_from_labels, write_rdfxml
from hypothesis import given
from hypothesis import strategies as st

from ontomatch.encoding import (
    RELATED_LABEL_CAP,
    EncodingView,
    encode,
    normalize,
    render_concept,
    tokenize,
)
from ontomatch.errors import ConfigError, EmptyOntology
from ontomatch.parsing import parse_ontology

BASE = "http://example.org/onto#"


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("HeatTreatment", "heat treatment"),
        ("melting_point", "melting point"),
        ("Alloy-Steel", "alloy steel"),
        ("  Melting\u2014Point ", "melting point"),
        ("HTTPServer", "http server"),
        ("plain words", "plain words"),
        ("", ""),
    ],
)
def test_normalize(raw, expected):
    assert normalize(raw) == expected


@given(st.text(max_size=40))
def test_normalize_is_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


def test_tokenize_drops_punctuation_and_underscores():
    assert tokenize("Alloy, steel!") == ["alloy", "steel"]
    assert tokenize("a_b") == ["a", "b"]
    assert tokenize("") == []


def test_render_concept_templates():
    assert render_concept("alloy", ("steel", "bronze"), EncodingView.CC) == (
        "alloy, children: steel, bronze"
    )
    assert render_concept("steel", ("alloy",), EncodingView.CP) == "steel, parents: alloy"
    assert render_concept("steel", (), EncodingView.CP) == "steel"
    assert render_concept("alloy", ("steel",), EncodingView.C) == "alloy"


def test_view_parse():
    assert EncodingView.parse("cc") is EncodingView.CC
    assert EncodingView.parse(EncodingView.CP) is EncodingView.CP
    with pytest.raises(ConfigError):
        EncodingView.parse("CX")


@pytest.fixture
def family(tmp_path):
    """Alloy with children Steel and Bronze."""
    path = write_rdfxml(
        tmp_path / "family.owl",
        [
            {"iri": BASE + "Alloy", "labels": ["Alloy"]},
            {"iri": BASE + "Bronze", "labels": ["Bronze"], "parents": [BASE + "Alloy"]},
            {"iri": BASE + "Steel", "labels": ["Steel"], "parents": [BASE + "Alloy"]},
        ],
    )
    return parse_ontology(path)


def test_encode_children_view(family):
    corpus = encode(family, "CC")
    assert corpus.iris == family.iris()
    by_iri = dict(zip(corpus.iris, corpus.texts))
    assert by_iri[BASE + "Alloy"] == "alloy, children: bronze, steel"
    assert by_iri[BASE + "Steel"] == "steel"


def test_encode_parents_view(family):
    corpus = encode(family, EncodingView.CP)
    by_iri = dict(zip(corpus.iris, corpus.texts))
    assert by_iri[BASE + "Steel"] == "steel, parents: alloy"
    assert by_iri[BASE + "Alloy"] == "alloy"


def test_encode_plain_view_ignores_hierarchy(family):
    corpus = encode(family, "C")
    assert corpus.texts == ("alloy", "bronze", "steel")
    assert corpus.prompts == ("alloy", "bronze", "steel")


def test_texts_are_normalized_and_nonempty(tmp_path):
    path = write_rdfxml(
        tmp_path / "messy.owl",
        [
            {"iri": BASE + "HeatTreatment"},
            {"iri": BASE + "X", "labels": ["  Melting_Point  "]},
        ],
    )
    corpus = encode(parse_ontology(path), "C")
    assert corpus.texts == ("heat treatment", "melting point")
    assert all(text == text.lower() and text for text in corpus.texts)


def test_related_labels_capped(tmp_path):
    concepts = [{"iri": f"{BASE}Root", "labels": ["root"]}]
    concepts += [
        {"iri": f"{BASE}c{i:02d}", "labels": [f"kid {i}"], "parents": [BASE + "Root"]}
        for i in range(RELATED_LABEL_CAP + 2)
    ]
    onto = parse_ontology(write_rdfxml(tmp_path / "wide.owl", concepts))
    corpus = encode(onto, "CC")
    root = corpus.prompts[list(corpus.iris).index(BASE + "Root")]
    assert root == "root, children: " + ", ".join(f"kid {i}" for i in range(RELATED_LABEL_CAP))


def test_synonyms_included_for_lightweight_but_not_llm(tmp_path):
    path = write_rdfxml(
        tmp_path / "syn.owl",
        [{"iri": BASE + "Alloy", "labels": ["Alloy"], "synonyms": ["MetalAlloy", "alloy"]}],
    )
    onto = parse_ontology(path)
    light = encode(onto, "C")
    # synonyms are normalized, deduplicated against the label, and appended
    assert light.texts == ("alloy (metal alloy)",)
    assert light.prompts == ("alloy",)


def test_encode_rejects_bad_inputs(family):
    with pytest.raises(ConfigError):
        encode(family, "CZ")


def test_encode_empty_ontology_rejected(tmp_path):
    onto = parse_ontology(write_rdfxml(tmp_path / "empty.owl", []))
    with pytest.raises(EmptyOntology):
        encode(onto, "C")


def test_unlabelled_iri_still_produces_text(tmp_path):
    onto = parse_ontology(ontology_from_labels(tmp_path / "o.owl", ["melting point"]))
    corpus = encode(onto, "C")
    assert corpus.texts == ("melting point",)
