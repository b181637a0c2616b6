"""Ontology and alignment-file parsing."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import to_latin1, write_rdfxml, write_reference_xml

from ontomatch.errors import MalformedDocument, MissingEntity, UnsupportedFormat
from ontomatch.parsing import (
    derive_label,
    detect_format,
    parse_ontology,
    parse_reference_alignment,
    split_camel_case,
)

BASE = "http://example.org/onto#"


def test_parse_collects_labels_synonyms_comments(tmp_path):
    path = write_rdfxml(
        tmp_path / "onto.owl",
        [
            {
                "iri": BASE + "Alloy",
                "labels": ["Alloy"],
                "synonyms": ["metal alloy", "alloyed metal"],
                "comment": "A mixture of metals.",
            },
            {"iri": BASE + "Steel", "labels": ["Steel"], "parents": [BASE + "Alloy"]},
        ],
    )
    onto = parse_ontology(path)
    assert onto.format == "rdf-xml"
    assert onto.iris() == (BASE + "Alloy", BASE + "Steel")
    alloy, steel = onto.concepts
    assert alloy.label == "Alloy"
    assert alloy.synonyms == ("metal alloy", "alloyed metal")
    assert alloy.comment == "A mixture of metals."
    assert alloy.children == (BASE + "Steel",)
    assert steel.parents == (BASE + "Alloy",)
    assert steel.synonyms == ()
    assert steel.comment is None


def test_concept_count_is_distinct_named_classes(tmp_path):
    path = write_rdfxml(
        tmp_path / "onto.owl",
        [
            {"iri": BASE + "A", "labels": ["a"]},
            {"iri": BASE + "A", "labels": []},  # second element, same IRI
            {"iri": BASE + "B"},
        ],
    )
    onto = parse_ontology(path)
    assert len(onto) == 2


def test_concepts_sorted_by_iri(tmp_path):
    path = write_rdfxml(
        tmp_path / "onto.owl",
        [{"iri": BASE + name} for name in ("Zinc", "Alloy", "Iron")],
    )
    onto = parse_ontology(path)
    assert onto.iris() == (BASE + "Alloy", BASE + "Iron", BASE + "Zinc")


def test_first_label_wins_extras_become_synonyms(tmp_path):
    text = f"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:skos="http://www.w3.org/2004/02/skos/core#">
  <owl:Class rdf:about="{BASE}Alloy">
    <rdfs:label>Alloy</rdfs:label>
    <rdfs:label>Metallic Alloy</rdfs:label>
    <skos:prefLabel>Alloy Material</skos:prefLabel>
  </owl:Class>
</rdf:RDF>
"""
    path = tmp_path / "multi.owl"
    path.write_text(text, encoding="utf-8")
    concept = parse_ontology(path).concepts[0]
    assert concept.label == "Alloy"
    assert concept.synonyms == ("Metallic Alloy", "Alloy Material")


def test_pref_label_used_when_no_rdfs_label(tmp_path):
    text = f"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:skos="http://www.w3.org/2004/02/skos/core#">
  <owl:Class rdf:about="{BASE}HeatTreatment">
    <skos:prefLabel>Heat Treatment</skos:prefLabel>
  </owl:Class>
</rdf:RDF>
"""
    path = tmp_path / "pref.owl"
    path.write_text(text, encoding="utf-8")
    assert parse_ontology(path).concepts[0].label == "Heat Treatment"


def test_label_derived_from_iri_when_absent(tmp_path):
    path = write_rdfxml(tmp_path / "onto.owl", [{"iri": BASE + "MeltingPoint"}])
    assert parse_ontology(path).concepts[0].label == "Melting Point"


def test_obo_exact_synonyms_collected(tmp_path):
    text = f"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:obo="http://www.geneontology.org/formats/oboInOwl#">
  <owl:Class rdf:about="{BASE}Quartz">
    <rdfs:label>Quartz</rdfs:label>
    <obo:hasExactSynonym>silicon dioxide</obo:hasExactSynonym>
    <obo:hasExactSynonym>Quartz</obo:hasExactSynonym>
  </owl:Class>
</rdf:RDF>
"""
    path = tmp_path / "obo.owl"
    path.write_text(text, encoding="utf-8")
    concept = parse_ontology(path).concepts[0]
    # the synonym equal to the label is dropped
    assert concept.synonyms == ("silicon dioxide",)


@pytest.mark.parametrize(
    ("iri", "expected"),
    [
        ("http://x.org/onto#MeltingPoint", "Melting Point"),
        ("http://x.org/onto/alloy-steel", "alloy steel"),
        ("http://x.org/onto#heat_treatment", "heat treatment"),
        ("http://x.org/onto#HTTPServer", "HTTP Server"),
        ("http://x.org/onto#already plain", "already plain"),
        ("http://x.org/#", "http://x.org/#"),
    ],
)
def test_derive_label(iri, expected):
    assert derive_label(iri) == expected


def test_split_camel_case_keeps_acronyms_together():
    assert split_camel_case("XMLSchemaPart2") == "XML Schema Part2"


def test_builtin_superclasses_are_excluded(tmp_path):
    path = write_rdfxml(
        tmp_path / "onto.owl",
        [{"iri": BASE + "Alloy", "parents": ["http://www.w3.org/2002/07/owl#Thing"]}],
    )
    onto = parse_ontology(path)
    assert onto.iris() == (BASE + "Alloy",)
    assert onto.concepts[0].parents == ()


def test_self_subclass_loop_dropped(tmp_path):
    path = write_rdfxml(tmp_path / "onto.owl", [{"iri": BASE + "A", "parents": [BASE + "A"]}])
    concept = parse_ontology(path).concepts[0]
    assert concept.parents == ()
    assert concept.children == ()


def test_subclass_endpoint_without_type_becomes_concept(tmp_path):
    # B is only ever mentioned as a superclass, never typed as a class.
    path = write_rdfxml(tmp_path / "onto.owl", [{"iri": BASE + "A", "parents": [BASE + "B"]}])
    onto = parse_ontology(path)
    assert onto.iris() == (BASE + "A", BASE + "B")
    assert onto.concepts[1].children == (BASE + "A",)


def test_anonymous_restriction_is_skipped(tmp_path):
    text = f"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="{BASE}Alloy">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="{BASE}hasPart"/>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
</rdf:RDF>
"""
    path = tmp_path / "restriction.owl"
    path.write_text(text, encoding="utf-8")
    onto = parse_ontology(path)
    assert onto.iris() == (BASE + "Alloy",)
    assert onto.concepts[0].parents == ()


def test_nested_named_superclass_node(tmp_path):
    text = f"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="{BASE}Steel">
    <rdfs:subClassOf>
      <owl:Class rdf:about="{BASE}Alloy">
        <rdfs:label>Alloy</rdfs:label>
      </owl:Class>
    </rdfs:subClassOf>
  </owl:Class>
</rdf:RDF>
"""
    path = tmp_path / "nested.owl"
    path.write_text(text, encoding="utf-8")
    onto = parse_ontology(path)
    assert onto.iris() == (BASE + "Alloy", BASE + "Steel")
    assert onto.concepts[0].label == "Alloy"
    assert onto.concepts[1].parents == (BASE + "Alloy",)


def test_rdf_id_resolves_against_xml_base(tmp_path):
    text = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xml:base="http://example.org/onto">
  <owl:Class rdf:ID="Alloy"/>
</rdf:RDF>
"""
    path = tmp_path / "base.owl"
    path.write_text(text, encoding="utf-8")
    assert parse_ontology(path).iris() == ("http://example.org/onto#Alloy",)


def test_property_attribute_shorthand(tmp_path):
    text = f"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="{BASE}Steel" rdfs:label="Steel"/>
</rdf:RDF>
"""
    path = tmp_path / "attrs.owl"
    path.write_text(text, encoding="utf-8")
    assert parse_ontology(path).concepts[0].label == "Steel"


def test_parse_is_deterministic(tmp_path):
    path = write_rdfxml(
        tmp_path / "onto.owl",
        [
            {"iri": BASE + "A", "labels": ["a"], "parents": [BASE + "B"]},
            {"iri": BASE + "B", "labels": ["b"], "synonyms": ["bee"]},
        ],
    )
    assert parse_ontology(path) == parse_ontology(path)


def test_empty_document_yields_empty_ontology(tmp_path):
    path = write_rdfxml(tmp_path / "empty.owl", [])
    assert len(parse_ontology(path)) == 0


# -- format detection -------------------------------------------------------


def test_detect_format_from_suffix():
    assert detect_format("x.owl") == "rdf-xml"
    assert detect_format("x.rdf") == "rdf-xml"
    assert detect_format("x.ttl") == "turtle"


def test_unknown_suffix_and_hint_rejected():
    with pytest.raises(UnsupportedFormat):
        detect_format("x.txt")


def test_missing_file_raises_file_not_found():
    with pytest.raises(FileNotFoundError):
        parse_ontology("/nonexistent/onto.owl")


def test_malformed_xml_reports_position(tmp_path):
    path = tmp_path / "broken.owl"
    path.write_text("<rdf:RDF>\n  <unclosed\n", encoding="utf-8")
    with pytest.raises(MalformedDocument) as excinfo:
        parse_ontology(path)
    assert excinfo.value.line is not None


# -- Turtle ------------------------------------------------------------------

TTL = """@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix : <http://example.org/onto#> .

# a comment line
:Alloy a owl:Class ;
    rdfs:label "Alloy"@en ;
    skos:altLabel "metal alloy", "alloyed\\u0020metal" ;
    rdfs:comment "A mixture of metals."^^<http://www.w3.org/2001/XMLSchema#string> .

:Steel a owl:Class ;
    rdfs:subClassOf :Alloy ;
    rdfs:subClassOf [ a owl:Restriction ; owl:onProperty :hasPart ] ;
    rdfs:label "Steel" .
"""


def test_parse_turtle_matches_rdfxml(tmp_path):
    ttl_path = tmp_path / "onto.ttl"
    ttl_path.write_text(TTL, encoding="utf-8")
    xml_path = write_rdfxml(
        tmp_path / "onto.owl",
        [
            {
                "iri": BASE + "Alloy",
                "labels": ["Alloy"],
                "synonyms": ["metal alloy", "alloyed metal"],
                "comment": "A mixture of metals.",
            },
            {"iri": BASE + "Steel", "labels": ["Steel"], "parents": [BASE + "Alloy"]},
        ],
    )
    from_ttl = parse_ontology(ttl_path)
    from_xml = parse_ontology(xml_path)
    assert from_ttl.format == "turtle"
    assert from_ttl.concepts == from_xml.concepts


def test_turtle_sparql_style_prefix_and_base(tmp_path):
    text = """PREFIX owl: <http://www.w3.org/2002/07/owl#>
BASE <http://example.org/>
<onto#Iron> a owl:Class .
"""
    path = tmp_path / "sparql.ttl"
    path.write_text(text, encoding="utf-8")
    assert parse_ontology(path).iris() == ("http://example.org/onto#Iron",)


def test_turtle_numbers_booleans_and_collections(tmp_path):
    text = """@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <http://example.org/onto#> .
ex:A a owl:Class ; ex:rank 3.5 ; ex:deprecated true ; ex:members ( ex:B ex:C ) .
"""
    path = tmp_path / "misc.ttl"
    path.write_text(text, encoding="utf-8")
    assert parse_ontology(path).iris() == ("http://example.org/onto#A",)


def test_turtle_undeclared_prefix_rejected(tmp_path):
    path = tmp_path / "bad.ttl"
    path.write_text("ex:A a ex:B .\n", encoding="utf-8")
    with pytest.raises(MalformedDocument):
        parse_ontology(path)


def test_turtle_truncated_statement_rejected(tmp_path):
    path = tmp_path / "bad.ttl"
    path.write_text('@prefix ex: <http://x.org/> .\nex:A ex:p "v"\n', encoding="utf-8")
    with pytest.raises(MalformedDocument):
        parse_ontology(path)


def test_turtle_literals_that_spell_punctuation_are_values(tmp_path):
    path = tmp_path / "punct.ttl"
    path.write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix ex: <http://example.org/onto#> .\n"
        'ex:A a owl:Class ; rdfs:label ")" ; ex:p ( ")" "a" "^^" "." ";" "," "]" ) .\n',
        encoding="utf-8",
    )
    [concept] = parse_ontology(path).concepts
    assert (concept.iri, concept.label) == ("http://example.org/onto#A", ")")


@pytest.mark.parametrize("statement", [
    'ex:A ex:label "x" "."',
    'ex:A ex:p [ ex:q "x" "]" .',
    '"(" ex:p ex:B ")" .',
    'ex:A "a" ex:B .',
])
def test_turtle_literals_never_stand_for_punctuation(tmp_path, statement):
    path = tmp_path / "bad.ttl"
    path.write_text(f"@prefix ex: <http://x.org/> .\n{statement}\n", encoding="utf-8")
    with pytest.raises(MalformedDocument):
        parse_ontology(path)


def test_turtle_non_utf8_line_is_counted_over_the_whole_file(tmp_path):
    path = tmp_path / "latin1.ttl"
    path.write_bytes(b'@prefix ex: <http://x.org/> .\r\n' + b"# filler\n" * 20000 + b'ex:A ex:label "caf\xe9" .\n')
    with pytest.raises(MalformedDocument, match="not valid UTF-8") as excinfo:
        parse_ontology(path)
    assert excinfo.value.line == 20002


def test_rdfxml_honours_a_declared_latin1_encoding(tmp_path):
    path = to_latin1(write_rdfxml(tmp_path / "onto.owl", [{"iri": BASE + "Cafe", "labels": ["café"]}]))
    assert b"caf\xe9" in path.read_bytes()
    assert parse_ontology(path).concepts[0].label == "café"


def test_reference_xml_honours_a_declared_latin1_encoding(tmp_path):
    path = to_latin1(write_reference_xml(tmp_path / "ref.rdf", [(BASE + "café", BASE + "thé")]))
    assert [(c.source, c.target) for c in parse_reference_alignment(path).cells] == [
        (BASE + "café", BASE + "thé"),
    ]


def test_turtle_and_json_that_are_not_utf8_are_malformed(tmp_path):
    ttl = tmp_path / "latin1.ttl"
    ttl.write_bytes(b'@prefix ex: <http://x.org/> .\nex:A ex:label "caf\xe9" .\n')
    with pytest.raises(MalformedDocument, match="not valid UTF-8") as excinfo:
        parse_ontology(ttl)
    assert excinfo.value.line == 2
    alignment = tmp_path / "latin1.json"
    alignment.write_bytes(b'[{"source": "http://a#caf\xe9", "target": "http://b#x"}]')
    with pytest.raises(MalformedDocument, match="not valid UTF-8"):
        parse_reference_alignment(alignment)


@pytest.mark.parametrize("literal", [r'"x\uZZZZy"', r'"x\U00110000y"', r'"x\u12"', r'"\uD800"', r'"a\qb"'])
def test_turtle_bad_unicode_escape_is_malformed_with_its_line(tmp_path, literal):
    path = tmp_path / "escape.ttl"
    path.write_text(f"@prefix ex: <http://x.org/> .\n\nex:A ex:label {literal} .\n", encoding="utf-8")
    with pytest.raises(MalformedDocument, match="invalid Turtle escape") as excinfo:
        parse_ontology(path)
    assert excinfo.value.line == 3


def test_turtle_unicode_escapes_decode(tmp_path):
    path = tmp_path / "escape.ttl"
    path.write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        '<http://x.org/A> a owl:Class ; rdfs:label "caf\\u00E9 \\U0001F600" .\n',
        encoding="utf-8",
    )
    assert parse_ontology(path).concepts[0].label == "café \U0001F600"


_ECHAR = {"\t": r"\t", "\n": r"\n", "\r": r"\r", "\b": r"\b", "\f": r"\f", '"': r'\"', "'": r"\'", "\\": r"\\"}


@st.composite
def _escaped_text(draw):
    """A text and one way of writing it inside a ``"..."`` Turtle literal."""
    text = draw(st.text(min_size=1, max_size=20).filter(str.strip))
    written = []
    for ch in text:
        ways = [f"\\U{ord(ch):08X}"]
        if ord(ch) <= 0xFFFF:
            ways.append(f"\\u{ord(ch):04x}")
        if ch in _ECHAR:
            ways.append(_ECHAR[ch])
        if ch not in '"\\\n\r':
            ways.append(ch)
        written.append(draw(st.sampled_from(ways)))
    return text, "".join(written)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_escaped_text())
def test_turtle_escaped_literals_read_back_as_written(tmp_path, case):
    text, written = case
    path = tmp_path / "escaped.ttl"
    path.write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        f'<http://x.org/A> a owl:Class ; rdfs:label "{written}" .\n',
        encoding="utf-8",
    )
    assert parse_ontology(path).concepts[0].label == text.strip()


def test_repeated_subclass_statement_lists_parent_and_child_once(tmp_path):
    path = tmp_path / "repeated.ttl"
    path.write_text(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix ex: <http://x.org/> .\n"
        "ex:B rdfs:subClassOf ex:A .\n"
        "ex:B rdfs:subClassOf ex:A , ex:A .\n",
        encoding="utf-8",
    )
    a, b = parse_ontology(path).concepts
    assert a.children == ("http://x.org/B",)
    assert b.parents == ("http://x.org/A",)


# -- reference alignments ----------------------------------------------------


def test_reference_two_cells_in_document_order(tmp_path):
    path = write_reference_xml(
        tmp_path / "ref.xml",
        [(BASE + "a1", BASE + "b1"), (BASE + "a2", BASE + "b2")],
    )
    ref = parse_reference_alignment(path)
    assert len(ref) == 2
    assert ref.cells[0].source == BASE + "a1"
    assert ref.cells[1].target == BASE + "b2"
    assert all(cell.relation == "=" and cell.score == 1.0 for cell in ref.cells)


def test_reference_defaults_and_onto_headers(tmp_path):
    text = """<?xml version="1.0"?>
<rdf:RDF xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"
         xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <Alignment>
    <onto1>http://example.org/src.owl</onto1>
    <onto2>http://example.org/tgt.owl</onto2>
    <map><Cell>
      <entity1 rdf:resource="http://example.org/a"/>
      <entity2 rdf:resource="http://example.org/b"/>
    </Cell></map>
    <map><Cell>
      <entity1 rdf:resource="http://example.org/c"/>
      <entity2 rdf:resource="http://example.org/d"/>
      <relation>&lt;</relation>
      <measure>0.25</measure>
    </Cell></map>
  </Alignment>
</rdf:RDF>
"""
    path = tmp_path / "ref.xml"
    path.write_text(text, encoding="utf-8")
    ref = parse_reference_alignment(path)
    assert ref.onto1 == "http://example.org/src.owl"
    assert ref.onto2 == "http://example.org/tgt.owl"
    assert ref.cells[0].relation == "=" and ref.cells[0].score == 1.0
    assert ref.cells[1].relation == "<" and ref.cells[1].score == 0.25


def test_reference_duplicates_collapse_to_first(tmp_path):
    path = write_reference_xml(
        tmp_path / "ref.xml",
        [(BASE + "a", BASE + "b"), (BASE + "a", BASE + "b")],
    )
    assert len(parse_reference_alignment(path)) == 1


def test_reference_missing_entity_rejected(tmp_path):
    text = """<?xml version="1.0"?>
<rdf:RDF xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"
         xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <Alignment><map><Cell>
    <entity1 rdf:resource="http://example.org/a"/>
  </Cell></map></Alignment>
</rdf:RDF>
"""
    path = tmp_path / "ref.xml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MissingEntity):
        parse_reference_alignment(path)


def test_reference_bad_measure_rejected(tmp_path):
    text = """<?xml version="1.0"?>
<rdf:RDF xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"
         xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <Alignment><map><Cell>
    <entity1 rdf:resource="http://example.org/a"/>
    <entity2 rdf:resource="http://example.org/b"/>
    <measure>high</measure>
  </Cell></map></Alignment>
</rdf:RDF>
"""
    path = tmp_path / "ref.xml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedDocument):
        parse_reference_alignment(path)
