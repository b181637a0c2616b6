"""Shared fixtures: on-disk ontology builders and a local HTTP test server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

from ontomatch.encoding import ConceptText, EncodedCorpus, EncodingView
from ontomatch.parsing import ConceptRecord, Ontology

HEADER = (
    '<?xml version="1.0" encoding="utf-8"?>\n'
    "<rdf:RDF\n"
    '    xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    '    xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
    '    xmlns:owl="http://www.w3.org/2002/07/owl#"\n'
    '    xmlns:skos="http://www.w3.org/2004/02/skos/core#"\n'
    '    xmlns:obo="http://www.geneontology.org/formats/oboInOwl#">\n'
)


def write_rdfxml(path: Path, concepts: list[dict]) -> Path:
    """Write a small OWL/RDF-XML document from concept dicts.

    Each dict takes ``iri`` plus optional ``labels``, ``synonyms``,
    ``comment`` and ``parents`` keys.
    """
    parts = [HEADER]
    for concept in concepts:
        parts.append(f"  <owl:Class rdf:about={quoteattr(concept['iri'])}>\n")
        for label in concept.get("labels", ()):
            parts.append(f"    <rdfs:label>{escape(label)}</rdfs:label>\n")
        for synonym in concept.get("synonyms", ()):
            parts.append(f"    <skos:altLabel>{escape(synonym)}</skos:altLabel>\n")
        if concept.get("comment"):
            parts.append(f"    <rdfs:comment>{escape(concept['comment'])}</rdfs:comment>\n")
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
        structured=tuple(ConceptText(concept_label=text) for text in texts),
    )


def make_ontology(labels: list[str], base: str = "http://example.org/onto#") -> Ontology:
    """Build an in-memory ontology whose concept labels are the given texts."""
    concepts = tuple(
        ConceptRecord(iri=f"{base}C{i:05d}", label=label) for i, label in enumerate(labels)
    )
    return Ontology(concepts=concepts, source_path="<memory>", format="rdf-xml")


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
