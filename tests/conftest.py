"""Shared fixtures: on-disk ontology builders, fake LLM clients and a local
HTTP test server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

from ontomatch.encoding import EncodedCorpus, EncodingView
from ontomatch.llm import Decision, MockLLMClient
from ontomatch.parsing import ConceptRecord, Ontology
from ontomatch.rag import PromptTemplate

HEADER = (
    '<?xml version="1.0" encoding="utf-8"?>\n'
    "<rdf:RDF\n"
    '    xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    '    xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
    '    xmlns:owl="http://www.w3.org/2002/07/owl#"\n'
    '    xmlns:skos="http://www.w3.org/2004/02/skos/core#"\n'
    '    xmlns:obo="http://www.geneontology.org/formats/oboInOwl#">\n'
)

_CR = {"\r": "&#13;"}


def write_rdfxml(path: Path, concepts: list[dict]) -> Path:
    """Write a small OWL/RDF-XML document from concept dicts.

    Each dict takes ``iri`` plus optional ``labels``, ``synonyms``,
    ``comment`` and ``parents`` keys.  A carriage return in a text is
    written ``&#13;``, as ``export`` does, so it reads back unchanged.
    """
    parts = [HEADER]
    for concept in concepts:
        parts.append(f"  <owl:Class rdf:about={quoteattr(concept['iri'])}>\n")
        for label in concept.get("labels", ()):
            parts.append(f"    <rdfs:label>{escape(label, _CR)}</rdfs:label>\n")
        for synonym in concept.get("synonyms", ()):
            parts.append(f"    <skos:altLabel>{escape(synonym, _CR)}</skos:altLabel>\n")
        if concept.get("comment"):
            parts.append(f"    <rdfs:comment>{escape(concept['comment'], _CR)}</rdfs:comment>\n")
        for parent in concept.get("parents", ()):
            parts.append(f"    <rdfs:subClassOf rdf:resource={quoteattr(parent)}/>\n")
        parts.append("  </owl:Class>\n")
    parts.append("</rdf:RDF>\n")
    path.write_text("".join(parts), encoding="utf-8")
    return path


def ontology_from_labels(
    path: Path,
    labels: list[str],
    base: str = "http://example.org/onto#",
    parents: dict[int, list[int]] | None = None,
) -> Path:
    """Write an ontology whose i-th concept is ``{base}C{i:03d}`` with the
    given label; zero-padded ids keep IRI order equal to list order."""
    concepts = []
    for index, label in enumerate(labels):
        entry: dict = {"iri": f"{base}C{index:03d}", "labels": [label]}
        if parents and index in parents:
            entry["parents"] = [f"{base}C{p:03d}" for p in parents[index]]
        concepts.append(entry)
    return write_rdfxml(path, concepts)


def write_reference_xml(path: Path, pairs: list[tuple[str, str]]) -> Path:
    """Write a reference alignment document for (entity1, entity2) pairs."""
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>\n',
        '<rdf:RDF xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"\n',
        '    xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n',
        '    xmlns:xsd="http://www.w3.org/2001/XMLSchema#">\n',
        "  <Alignment>\n",
    ]
    for entity1, entity2 in pairs:
        lines.extend(
            [
                "    <map>\n",
                "      <Cell>\n",
                f"        <entity1 rdf:resource={quoteattr(entity1)}/>\n",
                f"        <entity2 rdf:resource={quoteattr(entity2)}/>\n",
                "        <relation>=</relation>\n",
                '        <measure rdf:datatype="http://www.w3.org/2001/XMLSchema#float">1.0</measure>\n',
                "      </Cell>\n",
                "    </map>\n",
            ]
        )
    lines.append("  </Alignment>\n</rdf:RDF>\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def to_latin1(path: Path) -> Path:
    """Re-encode a UTF-8 XML file as ISO-8859-1, declaring the new encoding."""
    text = path.read_text(encoding="utf-8").replace('encoding="utf-8"', 'encoding="iso-8859-1"')
    path.write_bytes(text.encode("latin-1"))
    return path


def make_corpus(
    texts: list[str],
    view: EncodingView = EncodingView.C,
    prefix: str = "http://example.org/src#",
) -> EncodedCorpus:
    """Build an encoded corpus directly from texts, skipping parsing."""
    return EncodedCorpus(
        view=view,
        iris=tuple(f"{prefix}C{i:03d}" for i in range(len(texts))),
        texts=tuple(texts),
        prompts=tuple(texts),
    )


def make_ontology(labels: list[str], base: str = "http://example.org/onto#") -> Ontology:
    """Build an in-memory ontology whose concept labels are the given texts."""
    concepts = tuple(
        ConceptRecord(iri=f"{base}C{i:05d}", label=label) for i, label in enumerate(labels)
    )
    return Ontology(concepts=concepts, source_path="<memory>", format="rdf-xml")


class RuleClient(MockLLMClient):
    """The ``mock:`` stand-in for the default template, counting its
    decisions, with an optional rule table.

    With ``rules``, a prompt whose query texts are a listed (source, target)
    pair gets that pair's confidence, and any other prompt 0.2.  Counts are
    taken under a lock: an ask loop may run two ``decide_many`` calls at once.
    """

    def __init__(self, rules: dict[tuple[str, str], float] | None = None):
        super().__init__(PromptTemplate())
        self.rules = rules
        self.call_count = 0
        self.lock = threading.Lock()

    def binary_decision(self, prompt: str) -> Decision:
        with self.lock:
            self.call_count += 1
        if self.rules is None:
            return super().binary_decision(prompt)
        confidence = self.rules.get(self.template.query_texts(prompt), 0.2)
        return Decision(label="yes" if confidence >= 0.5 else "no", confidence=confidence)


class FlakyClient(RuleClient):
    """Raises on the n-th batch to simulate an interrupted run."""

    def __init__(self, fail_on_batch: int, **kwargs):
        super().__init__(**kwargs)
        self.fail_on_batch = fail_on_batch
        self.batches = 0

    def decide_many(self, prompts):
        with self.lock:
            self.batches += 1
            batch = self.batches
        if batch == self.fail_on_batch:
            raise RuntimeError("simulated crash")
        return super().decide_many(prompts)


class RecordingClient:
    """Decides every prompt at one confidence and keeps the prompts it was asked."""

    def __init__(self, confidence: float = 1.0):
        self.prompts: list[str] = []
        self.confidence = confidence

    def decide_many(self, prompts):
        self.prompts.extend(prompts)
        label = "yes" if self.confidence >= 0.5 else "no"
        return [Decision(label=label, confidence=self.confidence) for _ in prompts]


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server API
        server = self.server
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length)) if length else {}
        with server.lock:
            server.active += 1
            server.max_active = max(server.max_active, server.active)
            server.requests.append(
                {
                    "path": self.path,
                    "payload": payload,
                    "auth": self.headers.get("Authorization"),
                }
            )
        try:
            status, body = server.app(self.path, payload)
        finally:
            with server.lock:
                server.active -= 1
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # silence per-request stderr noise
        pass


class _KeepAliveHandler(_Handler):
    """HTTP/1.1, so a connection serves requests until the client closes it."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without this the second waits
    # for the client's delayed ACK on every request.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open_connections += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with self.server.lock:
                self.server.open_connections -= 1


def _serve(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.lock = threading.Lock()
    server.active = 0
    server.max_active = 0
    server.connections = 0
    server.open_connections = 0
    server.requests = []
    server.app = lambda path, payload: (404, {"error": "no handler installed"})
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def http_server():
    """Local threaded HTTP server; tests assign ``server.app`` to a callable
    ``(path, payload) -> (status, body_dict)`` and read ``server.url``."""
    yield from _serve(_Handler)


@pytest.fixture
def keepalive_server():
    """``http_server`` over HTTP/1.1 keep-alive; ``server.connections``
    counts accepted connections, ``server.open_connections`` the ones the
    client has not closed yet."""
    yield from _serve(_KeepAliveHandler)
