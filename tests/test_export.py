"""Alignment serialization: cell XML, JSON, and atomic file writes."""

from __future__ import annotations

import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import alignment_json, alignment_xml

from ontomatch import export
from ontomatch.cli import main
from ontomatch.errors import InvalidScore, MalformedDocument
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
    write_alignment(AlignmentDocument.from_correspondences(cells), path)
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


_cell_text = st.text(min_size=1, max_size=12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(_cell_text, _cell_text, st.text(max_size=3),
              st.floats(min_value=0.0, max_value=1.0), st.text(max_size=8)),
    max_size=4,
))
def test_json_matches_a_one_shot_json_dump(cells):
    document = AlignmentDocument(cells=tuple(Correspondence(*cell) for cell in cells))
    assert export_json(document) == alignment_json(cells)


# Any XML 1.0 character: markup, quotes, whitespace, non-ASCII and astral.
_xml_char = st.one_of(
    st.sampled_from("&<>\"'\t\n\r ;#"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
)
_iri = st.text(_xml_char, min_size=1, max_size=8)
# Scores on, just off and halfway between six-decimal grid points.
_score = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(lambda n, off: min(1.0, max(0.0, n / 1e6 + off)),
              st.integers(0, 10**6), st.sampled_from([0.0, 5e-7, -5e-7, 1e-12, -1e-12])),
)
_documents = st.builds(
    AlignmentDocument,
    cells=st.lists(
        st.builds(Correspondence, _iri, _iri, st.sampled_from(["=", "<", ">", "&", "%", "a\rb"]), _score,
                  st.text(_xml_char, max_size=4)),
        max_size=5, unique_by=Correspondence.key,
    ).map(tuple),
    onto1=st.text(_xml_char, max_size=6),
    onto2=st.text(_xml_char, max_size=6),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_documents)
def test_written_alignments_read_back_by_their_suffix(tmp_path_factory, document):
    folder = tmp_path_factory.mktemp("roundtrip")
    cells = [(c.source, c.target, c.relation, c.score, c.provenance) for c in document.cells]
    for name in ("a.json", "a.JSON"):
        write_alignment(document, folder / name)
        back = parse_reference_alignment(folder / name)
        assert [(c.source, c.target, c.relation, c.score, c.provenance) for c in back.cells] == cells
    write_alignment(document, folder / "a.xml")
    back = parse_reference_alignment(folder / "a.xml")
    assert [(c.source, c.target, c.relation, c.score) for c in back.cells] == [
        (source, target, relation, float(format_measure(score))) for source, target, relation, score, _ in cells
    ]
    assert (back.onto1, back.onto2) == (document.onto1.strip(), document.onto2.strip())

    headless = folder / "headless.xml"
    write_alignment(AlignmentDocument(cells=document.cells), headless)
    assert main(["convert", "--in", str(headless), "--out", str(folder / "b.json")]) == 0
    assert len(load_json_alignment(folder / "b.json")) == len(cells)
    assert main(["convert", "--in", str(folder / "b.json"), "--out", str(folder / "c.xml")]) == 0
    assert (folder / "c.xml").read_bytes() == headless.read_bytes()


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


def _cells(n: int, fan_out: int = 3, targets: int = 7) -> list[Correspondence]:
    """``fan_out`` cells per source IRI, spread over ``targets`` target IRIs."""
    return [
        Correspondence(f"http://example.org/source#Concept{i // fan_out}",
                       f"http://example.org/target#Concept{i * 7919 % targets}",
                       "=", (i % 11) / 10, "retrieval:tfidf")
        for i in range(n)
    ]


_DOCUMENTS = {
    "empty": AlignmentDocument(cells=()),
    "escaped and non-ASCII": AlignmentDocument.from_correspondences(
        [
            Correspondence('http://a#q="1"&r=<2>', "http://b#Müller–日本", "<", 0.5, 'p"\\\t'),
            Correspondence("http://a#it's", "http://b#\u2028é", "&>", 1e-07, "ßς😀"),
        ],
        onto1="http://a&b", onto2="<b>",
    ),
    "several chunks": AlignmentDocument.from_correspondences(_cells(2 * export._CHUNK_CELLS + 3)),
    "carriage returns": AlignmentDocument.from_correspondences(
        [Correspondence("http://a#x\ry", "http://b#y", "a\rb", 0.5, "p\r")], onto1="a\r\nb", onto2="\r",
    ),
}


@pytest.mark.parametrize("name", list(_DOCUMENTS))
@pytest.mark.parametrize("suffix,exporter", [("xml", export_xml), ("json", export_json)])
def test_written_bytes_equal_the_exported_text(tmp_path, name, suffix, exporter):
    document = _DOCUMENTS[name]
    path = tmp_path / f"out.{suffix}"
    write_alignment(document, path)
    assert path.read_bytes() == exporter(document).encode("utf-8")
    cells = [(c.source, c.target, c.relation, c.score, c.provenance) for c in document.cells]
    if suffix == "xml":
        oracle = alignment_xml([cell[:4] for cell in cells], document.onto1, document.onto2)
    else:
        oracle = alignment_json(cells)
    assert exporter(document) == oracle


@pytest.mark.parametrize("suffix", ["xml", "json"])
def test_invalid_cell_past_the_first_chunk_leaves_the_target_untouched(tmp_path, suffix):
    path = tmp_path / f"out.{suffix}"
    path.write_text("previous run", encoding="utf-8")
    bad = Correspondence("http://a#x", "http://b#y", "=", 1.5, "x")
    document = AlignmentDocument(cells=(*_cells(export._CHUNK_CELLS + 10), bad))
    with pytest.raises(InvalidScore, match=f"cell {export._CHUNK_CELLS + 10}:"):
        write_alignment(document, path)
    assert os.listdir(tmp_path) == [path.name]
    assert path.read_text(encoding="utf-8") == "previous run"


@pytest.mark.parametrize("suffix", ["xml", "json"])
def test_write_alignment_memory_does_not_grow_with_the_file(tmp_path, suffix):
    # 20k cells over 2000 source and 2000 target IRIs, as a top-10 retrieval
    # run writes them; rendering the whole text at once peaks at 2-7x the file.
    document = AlignmentDocument.from_correspondences(_cells(20_000, fan_out=10, targets=2000))
    path = tmp_path / f"out.{suffix}"
    tracemalloc.start()
    try:
        write_alignment(document, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 3


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
