"""Ontology and alignment parsing.

Two input families are handled:

* OWL/RDF ontologies, serialized as RDF/XML (``.owl``, ``.rdf``, ``.xml``)
  or Turtle (``.ttl``).  Both serializations are reduced to a stream of
  triples in document order, from which named classes, labels, synonyms,
  comments, and subclass links are collected.
* Alignments, as OAEI alignment-cell XML or the JSON that ``export``
  writes, both read into an ``AlignmentDocument`` of ``Correspondence`` cells.

Both XML kinds stream through one expat reader (:func:`_read_xml`) fed from
the file's bytes, so a declared encoding is honoured and no element tree is
built: the RDF/XML reader emits triples from start, end and text events,
and the alignment reader builds each cell when its element ends.

A file's suffix names its format: :func:`detect_format` for ontologies,
:func:`is_json_alignment` for alignments, read here or written by ``export``.

Only named classes survive: blank nodes (anonymous restrictions and the
like) are dropped, as are classes from the RDF/RDFS/OWL/XSD builtin
namespaces such as ``owl:Thing``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urljoin
from xml.parsers import expat

from .errors import MalformedDocument, MissingEntity, UnsupportedFormat
from .mapping import AlignmentDocument, Correspondence

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SKOS_NS = "http://www.w3.org/2004/02/skos/core#"
OBO_NS = "http://www.geneontology.org/formats/oboInOwl#"
XML_NS = "http://www.w3.org/XML/1998/namespace"
XML_BASE = XML_NS + "base"

ALIGNMENT_NS = "http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"

_RDF_TYPE = RDF_NS + "type"
_RDF_RDF = RDF_NS + "RDF"
_RDF_DESCRIPTION = RDF_NS + "Description"
_RDF_ABOUT = RDF_NS + "about"
_RDF_ID = RDF_NS + "ID"
_RDF_RESOURCE = RDF_NS + "resource"
_RDF_PARSE_TYPE = RDF_NS + "parseType"
# The predicate slot of the blank node that a parseType="Resource" property holds.
_RESOURCE_NODE = object()
# Attributes of these namespaces are syntax, not property attributes.
_SYNTAX_NS = (RDF_NS, XML_NS)
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
        triples = _triples_from_rdfxml(path)
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
# always IRIs; blank-node subjects are dropped by the serialization readers.
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


def _read_xml(path: str | Path, what: str, namespace_separator: str, start, end, text) -> None:
    """Stream an XML file's bytes through expat, so that it honours the declared
    encoding, calling ``start(name, attributes)``, ``end(name)`` and ``text(data)``.

    Names are ``namespace + namespace_separator + local name``.  An entity
    that expat would skip, because only an external DTD could declare it,
    is an error, as an undeclared one is.
    """
    parser = expat.ParserCreate(namespace_separator=namespace_separator)
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text

    def skipped(name: str, is_parameter_entity: bool) -> None:
        if not is_parameter_entity:
            line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
            raise MalformedDocument(f"invalid {what}: undefined entity &{name};", line, column)

    parser.SkippedEntityHandler = skipped
    try:
        with open(path, "rb") as stream:
            parser.ParseFile(stream)
    except expat.ExpatError as exc:
        raise MalformedDocument(f"invalid {what}: {expat.errors.messages[exc.code]}", exc.lineno, exc.offset) from exc
    finally:
        parser.SkippedEntityHandler = None  # it refers back to the parser


def _resolve(base: str, ref: str) -> str:
    if not base:
        return ref
    return urljoin(base, ref)


def _node_iri(attributes: dict[str, str], base: str) -> str | None:
    about = attributes.get(_RDF_ABOUT)
    if about is not None:
        return _resolve(base, about)
    node_id = attributes.get(_RDF_ID)
    if node_id is not None:
        return _resolve(base, "#" + node_id)
    return None


def _triples_from_rdfxml(path: str | Path) -> list[Triple]:
    """The triples of an RDF/XML file in document order, read from expat events.

    Node and property elements alternate, so the open elements form a stack
    with a property at every even index: the document element ``rdf:RDF``
    counts as a property with no subject, and any other document element is
    a node under such a property.  A frame is ``(subject, predicate, base,
    literal)``; ``literal`` marks a property with a subject and no resource,
    whose text is its object if it turns out to have no child element.

    A ``rdf:parseType="Resource"`` property holds a blank node's properties,
    so a subject-less node frame rides on top of it.  A ``Literal`` one (or
    any type but ``Collection``) holds markup, not nodes: its text is its object.
    """
    triples: list[Triple] = []
    emit = triples.append
    stack: list[tuple] = []
    chars: list[str] = []
    opened = False  # whether the last tag was a start tag
    markup = 0  # open elements inside an XML-literal property

    def start(name: str, attributes: dict[str, str]) -> None:
        nonlocal opened, markup
        if markup:
            markup += 1
            return
        opened = True
        chars.clear()
        if not stack:
            if name == _RDF_RDF:
                stack.append((None, None, attributes.get(XML_BASE, ""), False))
                return
            stack.append((None, None, "", False))
        if len(stack) % 2:
            # A node element, the object of the property on top.
            subject, predicate, outer, _ = stack[-1]
            base = attributes.get(XML_BASE, outer)
            iri = _node_iri(attributes, base)
            if subject is not None:
                # The object is resolved against the property's base, not the node's.
                obj = _node_iri(attributes, outer) if XML_BASE in attributes else iri
                if obj is not None:
                    emit((subject, predicate, obj, False))
            if iri is not None:
                if name != _RDF_DESCRIPTION:
                    emit((iri, _RDF_TYPE, name, False))
                # Property-attribute shorthand, e.g. <owl:Class rdf:about=".." rdfs:label="..">.
                for attr, value in attributes.items():
                    if attr == _RDF_TYPE:
                        emit((iri, _RDF_TYPE, _resolve(base, value), False))
                    elif not attr.startswith(_SYNTAX_NS):
                        emit((iri, attr, value, True))
            stack.append((iri, None, base, False))
        else:
            # A property element of the node on top.
            subject, _, outer, _ = stack[-1]
            base = attributes.get(XML_BASE, outer)
            resource = attributes.get(_RDF_RESOURCE)
            parse_type = attributes.get(_RDF_PARSE_TYPE)
            if resource is not None and subject is not None:
                emit((subject, name, _resolve(base, resource), False))
            stack.append((subject, name, base, resource is None and subject is not None))
            if parse_type == "Resource":
                stack.append((None, _RESOURCE_NODE, base, False))
            elif parse_type not in (None, "Collection"):
                markup = 1

    def end(name: str) -> None:
        nonlocal opened, markup
        if markup:
            markup -= 1
            if markup:
                return
        subject, predicate, _, literal = stack.pop()
        if predicate is _RESOURCE_NODE:
            stack.pop()
        elif literal and opened:
            value = "".join(chars).strip()
            if value:
                emit((subject, predicate, value, True))
        opened = False

    _read_xml(path, "RDF/XML", "", start, end, chars.append)
    return triples


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
        else:  # BASE: _statement sends only the prefix and base keywords here
            kind, iri = self._next()
            if kind != "iri":
                raise MalformedDocument("base declaration needs an IRI")
            self.base = self._resolve_iri(iri)
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
# Elements whose text (before their first child) the alignment reader keeps.
_ALIGNMENT_TEXTS = frozenset(_ALIGNMENT_HEADERS + ("relation", "measure"))


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
        fields = {"relation": "=", "provenance": "", **item}
        for name in ("source", "target", "relation", "provenance"):
            if not isinstance(fields[name], str):
                raise MalformedDocument(f"alignment JSON cell {index} has a non-string {name} {fields[name]!r}")
        score = item.get("score", 1.0)
        if type(score) not in (int, float):  # a JSON number; never a bool or a numeric string
            raise MalformedDocument(f"alignment JSON cell {index} has a non-numeric score {score!r}")
        cells.append(Correspondence(
            source=fields["source"],
            target=fields["target"],
            relation=fields["relation"],
            score=float(score),
            provenance=fields["provenance"],
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
    return _alignment_from_xml(path)


def _alignment_from_xml(path: str | Path) -> AlignmentDocument:
    """The cells and headers of an alignment XML file, read from expat events.

    Elements match by local name in any namespace.  Each ``Cell`` takes a
    slot in document order when it starts, and its correspondence or its
    error fills the slot when it ends.  Errors are raised once the whole
    file has been read, so a malformed document is reported as such first.
    """
    headers: dict[str, str] = {}
    slots: list[Correspondence | Exception | None] = []
    # Per open element: [local name, its text before its first child once it has one].
    elements: list[list] = []
    # Per open Cell: [index, depth, entity1, entity2, relation, measure, error];
    # an entity is None until its element is seen, then its resource or "".
    cells: list[list] = []
    chars: list[str] = []
    opened = False  # whether the last tag was a start tag

    def start(name: str, attributes: dict[str, str]) -> None:
        nonlocal opened
        local = name.rpartition("}")[2]
        depth = len(elements)
        if opened and elements[-1][0] in _ALIGNMENT_TEXTS:
            elements[-1][1] = "".join(chars)
        chars.clear()
        opened = True
        if local in ("entity1", "entity2") and cells and cells[-1][1] == depth - 1:
            cell = cells[-1]
            slot = 2 if local == "entity1" else 3
            if cell[slot] is None:
                resources = (v for a, v in attributes.items() if v and a.rpartition("}")[2] == "resource")
                cell[slot] = next(resources, "")
        if local == "Cell":
            cells.append([len(slots), depth, None, None, "=", 1.0, None])
            slots.append(None)
        elements.append([local, None])

    def end(name: str) -> None:
        nonlocal opened
        local, first = elements.pop()
        leaf, opened = opened, False
        if local in _ALIGNMENT_TEXTS:
            value = ("".join(chars) if leaf else first).strip()
            if local in _ALIGNMENT_HEADERS:
                if leaf:
                    headers[local] = value
            elif value and cells and cells[-1][1] == len(elements) - 1:
                cell = cells[-1]
                if local == "relation":
                    cell[4] = value
                elif cell[6] is None:
                    try:
                        cell[5] = float(value)
                    except ValueError:
                        cell[6] = MalformedDocument(f"cell {cell[0]}: bad measure {value!r}")
        if local == "Cell":
            index, _, entity1, entity2, relation, measure, error = cells.pop()
            for tag, entity in (("entity1", entity1), ("entity2", entity2)):
                if not entity:
                    reason = f"missing <{tag}>" if entity is None else f"<{tag}> has no resource reference"
                    error = MissingEntity(f"cell {index}: {reason}")
                    break
            slots[index] = error or Correspondence(entity1, entity2, relation, measure)

    _read_xml(path, "alignment XML", "}", start, end, chars.append)
    cells_kept: list[Correspondence] = []
    seen: set[tuple[str, str, str]] = set()
    for cell in slots:
        if isinstance(cell, Exception):
            raise cell
        key = cell.key()
        if key not in seen:
            seen.add(key)
            cells_kept.append(cell)
    return AlignmentDocument(cells=tuple(cells_kept), **headers)
