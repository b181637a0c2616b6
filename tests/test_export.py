"""Alignment serialization: cell XML, JSON, and atomic file writes."""

from __future__ import annotations

import os

import pytest
from oracles import alignment_xml

from ontomatch.errors import ConfigError, InvalidScore, MalformedDocument
from ontomatch.export import (
    AlignmentDocument,
    atomic_write,
    export_json,
    export_xml,
    format_measure,
    write_alignment,
)
from ontomatch.mapping import Correspondence
from ontomatch.parsing import load_json_alignment, parse_reference_alignment

GOLDEN_XML = """\
<?xml version="1.0" encoding="utf-8"?>
<rdf:RDF xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"
         xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:xsd="http://www.w3.org/2001/XMLSchema#">
  <Alignment>
    <xml>yes</xml>
    <level>0</level>
    <type>??</type>
    <onto1>http://a</onto1>
    <onto2>http://b</onto2>
    <map>
      <Cell>
        <entity1 rdf:resource="http://a#Alloy"/>
        <entity2 rdf:resource="http://b#MetalAlloy"/>
        <relation>=</relation>
        <measure rdf:datatype="http://www.w3.org/2001/XMLSchema#float">0.92</measure>
      </Cell>
    </map>
  </Alignment>
</rdf:RDF>
"""


def single_cell_document() -> AlignmentDocument:
    cell = Correspondence("http://a#Alloy", "http://b#MetalAlloy", "=", 0.92, "fuzzy:simple")
    return AlignmentDocument.from_correspondences([cell], onto1="http://a", onto2="http://b")


# -- measures -------------------------------------------------------------------


@pytest.mark.parametrize(
    "score,text",
    [
        (1.0, "1.0"),
        (0.0, "0.0"),
        (0.92, "0.92"),
        (0.5, "0.5"),
        (0.123456789, "0.123457"),
        (1e-07, "0.0"),
        (0.9999994, "0.999999"),
    ],
)
def test_measures_print_as_plain_decimals(score, text):
    assert format_measure(score) == text
    assert "e" not in format_measure(score).lower()


# -- XML ------------------------------------------------------------------------


def test_single_cell_xml_matches_golden_output():
    assert export_xml(single_cell_document()) == GOLDEN_XML


def test_xml_roundtrips_byte_stably(tmp_path):
    path = tmp_path / "alignment.xml"
    first = export_xml(single_cell_document())
    path.write_text(first, encoding="utf-8")
    parsed = parse_reference_alignment(path)
    assert parsed.onto1 == "http://a" and parsed.onto2 == "http://b"
    rebuilt = AlignmentDocument.from_correspondences(
        [Correspondence(c.source, c.target, c.relation, c.score) for c in parsed.cells],
        onto1=parsed.onto1,
        onto2=parsed.onto2,
    )
    assert export_xml(rebuilt) == first


def test_xml_escapes_markup_in_values(tmp_path):
    cell = Correspondence('http://a#q="1"&r=<2>', "http://b#T", "<", 0.5, "x")
    document = AlignmentDocument.from_correspondences([cell])
    text = export_xml(document)
    path = tmp_path / "escaped.xml"
    path.write_text(text, encoding="utf-8")
    parsed = parse_reference_alignment(path)
    assert parsed.cells[0].source == 'http://a#q="1"&r=<2>'
    assert parsed.cells[0].relation == "<"


def test_multi_cell_xml_matches_line_by_line_oracle():
    cells = [
        ("http://a#Alloy", "http://b#MetalAlloy", "=", 0.92),
        ("http://a#Alloy", 'http://b#q="1"&r=<2>', "<", 0.5),
        ('http://a#q="1"&r=<2>', "http://b#MetalAlloy", "=", 1.0),
        ("http://a#it's", 'http://b#both"\'', "&>", 0.123456789),
        ("http://a#Alloy", "http://b#MetalAlloy", "=", 0.0),
        ('http://a#q="1"&r=<2>', 'http://b#q="1"&r=<2>', "<", 1e-07),
    ]
    document = AlignmentDocument.from_correspondences(
        [Correspondence(*cell, "x") for cell in cells], onto1="http://a&b", onto2="<b>",
    )
    assert export_xml(document) == alignment_xml(cells, onto1="http://a&b", onto2="<b>")


def test_empty_alignment_has_header_but_no_cells():
    text = export_xml(AlignmentDocument(cells=()))
    assert "<Alignment>" in text and "<Cell>" not in text
    assert text.endswith("</rdf:RDF>\n")


# -- JSON -----------------------------------------------------------------------


def test_json_roundtrip_preserves_cells_and_provenance(tmp_path):
    cells = [
        Correspondence("http://a#1", "http://b#1", "=", 1.0, "retrieval:tfidf"),
        Correspondence("http://a#2", "http://b#2", "<", 0.25, "rag"),
    ]
    path = tmp_path / "alignment.json"
    write_alignment(AlignmentDocument.from_correspondences(cells), path, "json")
    assert load_json_alignment(path) == cells


def test_json_output_shape():
    text = export_json(single_cell_document())
    assert text.endswith("\n")
    import json

    payload = json.loads(text)
    assert payload == [
        {
            "source": "http://a#Alloy",
            "target": "http://b#MetalAlloy",
            "relation": "=",
            "score": 0.92,
            "provenance": "fuzzy:simple",
        }
    ]


def test_json_loader_fills_optional_fields(tmp_path):
    path = tmp_path / "sparse.json"
    path.write_text('[{"source": "http://a#1", "target": "http://b#1"}]', encoding="utf-8")
    cells = load_json_alignment(path)
    assert cells == [Correspondence("http://a#1", "http://b#1", "=", 1.0, "")]


def test_json_loader_rejects_bad_documents(tmp_path):
    bad_syntax = tmp_path / "bad.json"
    bad_syntax.write_text("[{", encoding="utf-8")
    with pytest.raises(MalformedDocument):
        load_json_alignment(bad_syntax)
    not_array = tmp_path / "object.json"
    not_array.write_text('{"source": "x"}', encoding="utf-8")
    with pytest.raises(MalformedDocument):
        load_json_alignment(not_array)
    no_target = tmp_path / "cell.json"
    no_target.write_text('[{"source": "http://a#1"}]', encoding="utf-8")
    with pytest.raises(MalformedDocument):
        load_json_alignment(no_target)
    for payload, message in [
        ('["http://a#1"]', "cell 0 is not an object"),
        ('[{"source": "http://a#1"}]', "cell 0 lacks source/target"),
        ('[{"source": "a", "target": "b", "score": "high"}]', "cell 0 has a non-numeric score 'high'"),
    ]:
        bad_cell = tmp_path / "bad_cell.json"
        bad_cell.write_text(payload, encoding="utf-8")
        with pytest.raises(MalformedDocument, match=message):
            load_json_alignment(bad_cell)


# -- validation ------------------------------------------------------------------


@pytest.mark.parametrize("exporter", [export_xml, export_json])
def test_invalid_cells_are_rejected(exporter):
    too_high = AlignmentDocument(cells=(Correspondence("http://a#1", "http://b#1", "=", 1.5, ""),))
    with pytest.raises(InvalidScore):
        exporter(too_high)
    negative = AlignmentDocument(cells=(Correspondence("http://a#1", "http://b#1", "=", -0.1, ""),))
    with pytest.raises(InvalidScore):
        exporter(negative)
    empty_iri = AlignmentDocument(cells=(Correspondence("", "http://b#1", "=", 0.5, ""),))
    with pytest.raises(InvalidScore):
        exporter(empty_iri)


# -- file writing -----------------------------------------------------------------


def test_atomic_write_leaves_only_the_target(tmp_path):
    path = tmp_path / "out.xml"
    atomic_write(path, "payload")
    assert path.read_text(encoding="utf-8") == "payload"
    assert os.listdir(tmp_path) == ["out.xml"]


def test_atomic_write_cleans_up_when_rename_fails(tmp_path, monkeypatch):
    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("ontomatch.export.os.replace", boom)
    with pytest.raises(OSError):
        atomic_write(tmp_path / "out.xml", "payload")
    assert os.listdir(tmp_path) == []


def test_write_alignment_rejects_unknown_formats(tmp_path):
    with pytest.raises(ConfigError):
        write_alignment(single_cell_document(), tmp_path / "out.yaml", "yaml")
    assert os.listdir(tmp_path) == []
