"""Ontology and alignment parsing.

Two input families are handled:

* OWL/RDF ontologies, serialized as RDF/XML (``.owl``, ``.rdf``, ``.xml``)
  or Turtle (``.ttl``).  Both serializations are reduced to a stream of
  triples in document order, from which named classes, labels, synonyms,
  comments, and subclass links are collected.
* Alignments, as OAEI alignment-cell XML or the JSON that ``export``
  writes, both read into an ``AlignmentDocument`` of ``Correspondence`` cells.

A file's suffix names its format: :func:`detect_format` for ontologies,
:func:`is_json_alignment` for alignments, read here or written by ``export``.

Only named classes survive: blank nodes (anonymous restrictions and the
like) are dropped, as are classes from the RDF/RDFS/OWL/XSD builtin
namespaces such as ``owl:Thing``.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urljoin

from .errors import MalformedDocument, MissingEntity, UnsupportedFormat
from .mapping import AlignmentDocument, Correspondence

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SKOS_NS = "http://www.w3.org/2004/02/skos/core#"
OBO_NS = "http://www.geneontology.org/formats/oboInOwl#"
XML_BASE = "{http://www.w3.org/XML/1998/namespace}base"

ALIGNMENT_NS = "http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"

_RDF_TYPE = RDF_NS + "type"
_SUBCLASS = RDFS_NS + "subClassOf"
_LABEL = RDFS_NS + "label"
_COMMENT = RDFS_NS + "comment"
_PREF_LABEL = SKOS_NS + "prefLabel"
_ALT_LABEL = SKOS_NS + "altLabel"
_EXACT_SYNONYM = OBO_NS + "hasExactSynonym"
_CLASS_TYPES = frozenset({OWL_NS + "Class", RDFS_NS + "Class"})

# Concepts from these namespaces are vocabulary machinery, not domain classes.
_BUILTIN_NS = (RDF_NS, RDFS_NS, OWL_NS, XSD_NS)

_XML_EXTENSIONS = {".owl", ".rdf", ".xml", ".rdfxml"}
_TTL_EXTENSIONS = {".ttl", ".turtle"}


@dataclass(frozen=True)
class ConceptRecord:
    """One named class with the metadata the aligners consume."""

    iri: str
    label: str
    synonyms: tuple[str, ...] = ()
    comment: str | None = None
    parents: tuple[str, ...] = ()
    children: tuple[str, ...] = ()


@dataclass(frozen=True)
class Ontology:
    """An immutable bag of concepts, sorted by IRI."""

    concepts: tuple[ConceptRecord, ...]
    source_path: str
    format: str

    def __len__(self) -> int:
        return len(self.concepts)

    def iris(self) -> tuple[str, ...]:
        return tuple(c.iri for c in self.concepts)


_CAMEL_SPLIT = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def split_camel_case(text: str) -> str:
    """Insert spaces at lower-to-upper and acronym-to-word boundaries."""
    return _CAMEL_SPLIT.sub(" ", text)


def derive_label(iri: str) -> str:
    """Fall back to a human-readable label taken from the IRI itself.

    The fragment after ``#`` (or the last path segment) is split on
    camelCase, underscores, and hyphens.  When nothing usable remains the
    full IRI is returned unchanged.
    """
    if "#" in iri:
        raw = iri.rsplit("#", 1)[1]
    else:
        raw = iri.rstrip("/").rsplit("/", 1)[-1]
    raw = raw.replace("_", " ").replace("-", " ")
    label = " ".join(split_camel_case(raw).split())
    return label if label else iri


def detect_format(path: str | Path) -> str:
    """Resolve an ontology's serialization from its file suffix."""
    suffix = Path(path).suffix.lower()
    if suffix in _XML_EXTENSIONS:
        return "rdf-xml"
    if suffix in _TTL_EXTENSIONS:
        return "turtle"
    raise UnsupportedFormat(f"cannot infer ontology format from suffix {suffix!r}")


def parse_ontology(path: str | Path) -> Ontology:
    """Parse an ontology file into an :class:`Ontology`; its suffix names its format.

    Raises:
        FileNotFoundError: the path does not exist.
        UnsupportedFormat: unknown suffix.
        MalformedDocument: the file cannot be parsed.
    """
    fmt = detect_format(path)
    if fmt == "rdf-xml":
        triples = _triples_from_rdfxml(_xml_root(path, "RDF/XML"))
    else:
        triples = _triples_from_turtle(_read_utf8(path, "Turtle document"))
    concepts = _build_concepts(triples)
    return Ontology(concepts=concepts, source_path=str(path), format=fmt)


def _read_utf8(path: str | Path, what: str) -> str:
    """The file as UTF-8 text; bytes that are not UTF-8 raise with their line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{what} is not valid UTF-8", exc.object.count(b"\n", 0, exc.start) + 1) from None


# --------------------------------------------------------------------------
# Triple stream -> concepts
# --------------------------------------------------------------------------

# A triple is (subject, predicate, object, object_is_literal).  Subjects are
# always IRIs; blank-node subjects are dropped by the serializer walkers.
Triple = tuple[str, str, str, bool]


def _is_builtin(iri: str) -> bool:
    return iri.startswith(_BUILTIN_NS)


def _build_concepts(triples: list[Triple]) -> tuple[ConceptRecord, ...]:
    typed: set[str] = set()
    edges: set[tuple[str, str]] = set()
    labels: dict[str, list[str]] = {}
    pref_labels: dict[str, list[str]] = {}
    synonyms: dict[str, list[str]] = {}
    comments: dict[str, list[str]] = {}

    def push(store: dict[str, list[str]], key: str, value: str) -> None:
        value = value.strip()
        if value:
            store.setdefault(key, []).append(value)

    for subject, predicate, obj, is_literal in triples:
        if predicate == _RDF_TYPE and not is_literal and obj in _CLASS_TYPES:
            typed.add(subject)
        elif predicate == _SUBCLASS and not is_literal:
            edges.add((subject, obj))
        elif predicate == _LABEL and is_literal:
            push(labels, subject, obj)
        elif predicate == _PREF_LABEL and is_literal:
            push(pref_labels, subject, obj)
        elif predicate in (_ALT_LABEL, _EXACT_SYNONYM) and is_literal:
            push(synonyms, subject, obj)
        elif predicate == _COMMENT and is_literal:
            push(comments, subject, obj)

    iris = typed | {s for s, _ in edges} | {o for _, o in edges}
    iris = {iri for iri in iris if not _is_builtin(iri)}

    parents: dict[str, list[str]] = {iri: [] for iri in iris}
    children: dict[str, list[str]] = {iri: [] for iri in iris}
    for child, parent in edges:
        if child == parent or child not in iris or parent not in iris:
            continue
        parents[child].append(parent)
        children[parent].append(child)

    records = []
    for iri in sorted(iris):
        primary = labels.get(iri, [])
        preferred = pref_labels.get(iri, [])
        if primary:
            label = primary[0]
            extra = primary[1:] + preferred
        elif preferred:
            label = preferred[0]
            extra = preferred[1:]
        else:
            label = derive_label(iri)
            extra = []
        seen = {label}
        syns = []
        for value in extra + synonyms.get(iri, []):
            if value not in seen:
                seen.add(value)
                syns.append(value)
        comment = comments.get(iri, [None])[0]
        records.append(
            ConceptRecord(
                iri=iri,
                label=label,
                synonyms=tuple(syns),
                comment=comment,
                parents=tuple(sorted(parents[iri])),
                children=tuple(sorted(children[iri])),
            )
        )
    return tuple(records)


# --------------------------------------------------------------------------
# RDF/XML
# --------------------------------------------------------------------------


def _xml_root(path: str | Path, what: str) -> ET.Element:
    """Parse an XML file from its bytes, so that expat honours the declared encoding."""
    try:
        return ET.fromstring(Path(path).read_bytes())
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise MalformedDocument(f"invalid {what}: {exc.msg.split(':')[0]}", line, column) from exc


def _triples_from_rdfxml(root: ET.Element) -> list[Triple]:
    base = root.get(XML_BASE, "")
    triples: list[Triple] = []
    if _tag_iri(root.tag) == RDF_NS + "RDF":
        nodes = list(root)
    else:
        nodes = [root]
    for node in nodes:
        _walk_node(node, base, triples)
    return triples


def _resolve(base: str, ref: str) -> str:
    if not base:
        return ref
    return urljoin(base, ref)


def _element_iri(elem: ET.Element, base: str) -> str | None:
    about = elem.get("{%s}about" % RDF_NS)
    if about is not None:
        return _resolve(base, about)
    node_id = elem.get("{%s}ID" % RDF_NS)
    if node_id is not None:
        return _resolve(base, "#" + node_id)
    return None


def _tag_iri(tag: str) -> str:
    if tag.startswith("{"):
        ns, local = tag[1:].split("}", 1)
        return ns + local
    return tag


def _walk_node(elem: ET.Element, base: str, triples: list[Triple]) -> None:
    """Record triples for one node element, recursing into nested nodes."""
    base = elem.get(XML_BASE, base)
    iri = _element_iri(elem, base)
    tag = _tag_iri(elem.tag)
    if iri is not None and tag != RDF_NS + "Description":
        triples.append((iri, _RDF_TYPE, tag, False))
    if iri is not None:
        # Property-attribute shorthand, e.g. <owl:Class rdf:about=".." rdfs:label="..">.
        for attr, value in elem.attrib.items():
            attr_iri = _tag_iri(attr)
            if attr_iri.startswith((RDF_NS, "http://www.w3.org/XML/1998/namespace")):
                continue
            triples.append((iri, attr_iri, value, True))
    for prop in elem:
        _walk_property(iri, prop, base, triples)


def _walk_property(subject: str | None, prop: ET.Element, base: str, triples: list[Triple]) -> None:
    base = prop.get(XML_BASE, base)
    predicate = _tag_iri(prop.tag)
    resource = prop.get("{%s}resource" % RDF_NS)
    if resource is not None and subject is not None:
        triples.append((subject, predicate, _resolve(base, resource), False))
    nested = list(prop)
    if nested:
        for child in nested:
            child_iri = _element_iri(child, base)
            if subject is not None and child_iri is not None:
                triples.append((subject, predicate, child_iri, False))
            _walk_node(child, base, triples)
    elif resource is None:
        text = (prop.text or "").strip()
        if subject is not None and text:
            triples.append((subject, predicate, text, True))


# --------------------------------------------------------------------------
# Turtle (pragmatic subset: prefixes, IRIs, literals, blank-node skipping)
# --------------------------------------------------------------------------

_TTL_TOKEN = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iri><[^<>"{}|^`\\\s]*>)
  | (?P<literal>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*'''|\"(?:[^"\\\n]|\\.)*\"|'(?:[^'\\\n]|\\.)*')
  | (?P<langtag>@[A-Za-z][A-Za-z0-9-]*)
  | (?P<dtype>\^\^)
  | (?P<punct>[;,.\[\]()])
  | (?P<pname>[A-Za-z_][\w.-]*?:[\w.%-]*|:[\w.%-]*|[A-Za-z_][\w-]*)
  | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    """,
    re.VERBOSE,
)

_TTL_ESCAPE = re.compile(r"""\\(?:([tnrbf"'\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|.)""")
_TTL_ECHAR = {"t": "\t", "n": "\n", "r": "\r", "b": "\b", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _unescape_turtle(raw: str) -> str:
    """Resolve the backslash escapes of a literal's body.

    Only ECHAR (``\\t \\n \\r \\b \\f \\" \\' \\\\``) and ``\\u``/``\\U`` with exactly
    4/8 hex digits naming a Unicode scalar value are escapes; anything else
    raises ``ValueError(message, offset of the escape)``.
    """
    if "\\" not in raw:
        return raw

    def resolve(match: re.Match) -> str:
        echar, short, long = match.group(1, 2, 3)
        if echar:
            return _TTL_ECHAR[echar]
        if short or long:
            code = int(short or long, 16)
            if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
                return chr(code)
        raise ValueError(f"invalid Turtle escape near {raw[match.start():match.start() + 10]!r}", match.start())

    return _TTL_ESCAPE.sub(resolve, raw)


def _literal_value(text: str, match: re.Match) -> str:
    """The unescaped value of a literal token; bad escapes raise with their line."""
    token = match.group()
    quote = 3 if token.startswith(('"""', "'''")) else 1
    try:
        return _unescape_turtle(token[quote:-quote])
    except ValueError as exc:
        message, offset = exc.args
        raise MalformedDocument(message, text.count("\n", 0, match.start() + quote + offset) + 1) from None


class _TurtleReader:
    """Reader for the Turtle subset common in exported ontologies.

    Supports prefix/base declarations, predicate and object lists, the
    ``a`` keyword, literals with language tags or datatypes, and skips
    blank-node property lists and collections while keeping the stream in
    sync.  Anything else raises :class:`MalformedDocument`.
    """

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.base = ""
        self.triples: list[Triple] = []
        self.blank_counter = 0

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, str]]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TTL_TOKEN.match(text, pos)
            if match is None:
                line = text.count("\n", 0, pos) + 1
                raise MalformedDocument(f"invalid Turtle near {text[pos:pos + 20]!r}", line)
            pos = match.end()
            kind = match.lastgroup
            if kind == "literal":
                tokens.append((kind, _literal_value(text, match)))
            elif kind != "ws":
                tokens.append((kind, match.group()))
        return tokens

    def _peek(self) -> tuple[str, str]:
        if self.pos >= len(self.tokens):
            return ("eof", "")
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        self.pos += 1
        return token

    def _at(self, *punct: str) -> bool:
        """Whether the next token is one of these punctuation marks (never a literal)."""
        kind, tok = self._peek()
        return kind == "punct" and tok in punct

    def _expect(self, value: str) -> None:
        kind, tok = self._next()
        if kind != "punct" or tok != value:
            raise MalformedDocument(f"expected {value!r} in Turtle document, found {tok!r}")

    def read(self) -> list[Triple]:
        while self._peek()[0] != "eof":
            self._statement()
        return self.triples

    def _statement(self) -> None:
        kind, tok = self._peek()
        directive = (kind == "langtag" and tok in ("@prefix", "@base")) or (
            kind == "pname" and tok.upper() in ("PREFIX", "BASE")
        )
        if directive:
            self._directive()
            return
        subject = self._term()
        # A blank-node property list may stand alone as a whole statement.
        if not (subject is None and self._at(".")):
            self._predicate_object_list(subject)
        self._expect(".")

    def _directive(self) -> None:
        _, keyword = self._next()
        upper = keyword.lstrip("@").upper()
        if upper == "PREFIX":
            kind, name = self._next()
            if kind != "pname" or not name.endswith(":"):
                raise MalformedDocument(f"bad prefix name {name!r} in Turtle document")
            kind, iri = self._next()
            if kind != "iri":
                raise MalformedDocument("prefix declaration needs an IRI")
            self.prefixes[name[:-1]] = self._resolve_iri(iri)
        elif upper == "BASE":
            kind, iri = self._next()
            if kind != "iri":
                raise MalformedDocument("base declaration needs an IRI")
            self.base = self._resolve_iri(iri)
        else:
            raise MalformedDocument(f"unknown Turtle directive {keyword!r}")
        if keyword.startswith("@"):
            self._expect(".")

    def _resolve_iri(self, token: str) -> str:
        ref = token[1:-1]
        return urljoin(self.base, ref) if self.base else ref

    def _expand_pname(self, token: str) -> str:
        prefix, _, local = token.partition(":")
        if prefix not in self.prefixes:
            raise MalformedDocument(f"undeclared Turtle prefix {prefix!r}")
        return self.prefixes[prefix] + local

    def _term(self) -> str | None:
        """Return the term's IRI, or None for blank nodes."""
        kind, tok = self._next()
        if kind == "iri":
            return self._resolve_iri(tok)
        if kind == "pname" and tok.startswith("_:"):
            return None
        if kind == "pname" and ":" in tok:
            return self._expand_pname(tok)
        if kind == "punct" and tok == "[":
            self._skip_blank()
            return None
        if kind == "punct" and tok == "(":
            self._skip_collection()
            return None
        raise MalformedDocument(f"unexpected Turtle token {tok!r}")

    def _skip_blank(self) -> None:
        if self._at("]"):
            self._next()
            return
        self._predicate_object_list(None)
        self._expect("]")

    def _skip_collection(self) -> None:
        while not self._at(")"):
            if self._peek()[0] == "eof":
                raise MalformedDocument("unterminated Turtle collection")
            self._object(None, "")
        self._next()

    def _predicate_object_list(self, subject: str | None) -> None:
        while True:
            kind, tok = self._peek()
            if kind == "pname" and tok == "a":
                self._next()
                predicate = _RDF_TYPE
            else:
                predicate = self._term()
                if predicate is None:
                    raise MalformedDocument("blank node used as a predicate")
            self._object_list(subject, predicate)
            if self._at(";"):
                self._next()
                # A trailing ';' may be followed directly by '.' or ']'.
                if self._at(".", "]"):
                    return
                continue
            return

    def _object_list(self, subject: str | None, predicate: str) -> None:
        while True:
            self._object(subject, predicate)
            if self._at(","):
                self._next()
                continue
            return

    def _object(self, subject: str | None, predicate: str) -> None:
        kind, tok = self._peek()
        if kind == "literal":
            self._next()
            value = tok
            if self._peek()[0] == "dtype":
                self._next()
                self._term()
            elif self._peek()[0] == "langtag":
                self._next()
            if subject is not None:
                self.triples.append((subject, predicate, value, True))
            return
        if kind == "number" or (kind == "pname" and tok in ("true", "false")):
            self._next()
            if subject is not None:
                self.triples.append((subject, predicate, tok, True))
            return
        obj = self._term()
        if subject is not None and obj is not None:
            self.triples.append((subject, predicate, obj, False))


def _triples_from_turtle(text: str) -> list[Triple]:
    return _TurtleReader(text).read()


# --------------------------------------------------------------------------
# Alignments (OAEI alignment-cell XML or JSON)
# --------------------------------------------------------------------------


# Leaf header elements kept as the AlignmentDocument fields of the same name.
_ALIGNMENT_HEADERS = ("onto1", "onto2", "level", "type")


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1] if "}" in tag else tag


def _cell_entity(cell: ET.Element, name: str, index: int) -> str:
    for child in cell:
        if _local_name(child.tag) != name:
            continue
        for attr, value in child.attrib.items():
            if _local_name(attr) == "resource" and value:
                return value
        raise MissingEntity(f"cell {index}: <{name}> has no resource reference")
    raise MissingEntity(f"cell {index}: missing <{name}>")


def is_json_alignment(path: str | Path) -> bool:
    """An alignment file holds JSON when its suffix is ``.json`` (any case), else XML."""
    return Path(path).suffix.lower() == ".json"


def load_json_alignment(path: str | Path) -> list[Correspondence]:
    """Read a JSON alignment back into correspondences."""
    try:
        raw = json.loads(_read_utf8(path, "alignment JSON"))
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid alignment JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(raw, list):
        raise MalformedDocument("alignment JSON must be an array of cells")
    cells = []
    for index, item in enumerate(raw):
        if not isinstance(item, dict):
            raise MalformedDocument(f"alignment JSON cell {index} is not an object")
        if "source" not in item or "target" not in item:
            raise MalformedDocument(f"alignment JSON cell {index} lacks source/target")
        score = item.get("score", 1.0)
        try:
            score = float(score)
        except (TypeError, ValueError):
            raise MalformedDocument(f"alignment JSON cell {index} has a non-numeric score {score!r}") from None
        cells.append(Correspondence(
            source=str(item["source"]),
            target=str(item["target"]),
            relation=str(item.get("relation", "=")),
            score=score,
            provenance=str(item.get("provenance", "")),
        ))
    return cells


def parse_reference_alignment(path: str | Path) -> AlignmentDocument:
    """Read an alignment file, JSON or XML as :func:`is_json_alignment` says.

    JSON cells are kept as written, duplicates included.  XML gives one
    cell per ``Cell`` element, in document order, duplicate (source,
    target, relation) triples collapsed to the first occurrence; missing
    relations default to "=", missing measures to 1.0.  The leaf
    ``onto1``, ``onto2``, ``level`` and ``type`` headers are kept.

    Raises:
        FileNotFoundError: the path does not exist.
        MalformedDocument: XML or JSON errors, or non-numeric measures.
        MissingEntity: an XML cell lacks entity1 or entity2.
    """
    if is_json_alignment(path):
        return AlignmentDocument.from_correspondences(load_json_alignment(path))
    root = _xml_root(path, "alignment XML")
    headers = {}
    for elem in root.iter():
        name = _local_name(elem.tag)
        if name in _ALIGNMENT_HEADERS and not list(elem):
            headers[name] = (elem.text or "").strip()

    cells: list[Correspondence] = []
    seen: set[tuple[str, str, str]] = set()
    for index, cell in enumerate(e for e in root.iter() if _local_name(e.tag) == "Cell"):
        entity1 = _cell_entity(cell, "entity1", index)
        entity2 = _cell_entity(cell, "entity2", index)
        relation = "="
        measure = 1.0
        for child in cell:
            name = _local_name(child.tag)
            if name == "relation" and child.text and child.text.strip():
                relation = child.text.strip()
            elif name == "measure" and child.text and child.text.strip():
                try:
                    measure = float(child.text.strip())
                except ValueError as exc:
                    raise MalformedDocument(f"cell {index}: bad measure {child.text.strip()!r}") from exc
        key = (entity1, entity2, relation)
        if key in seen:
            continue
        seen.add(key)
        cells.append(Correspondence(entity1, entity2, relation, measure))
    return AlignmentDocument(cells=tuple(cells), **headers)
