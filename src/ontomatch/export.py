"""Writing alignments in the OAEI cell XML vocabulary and as JSON.

This module holds only writers; ``parsing.parse_reference_alignment``
reads both formats back, and ``parsing.is_json_alignment`` names the
format from the file suffix for both.  Output is byte-deterministic: fixed
element order, fixed namespace declarations, measures printed as plain
decimals with at most six fractional digits (never scientific notation).

Each format has one renderer that yields the text in chunks of at most
1024 cells.  :func:`write_alignment` streams those chunks to the file, so
its memory does not grow with the alignment; :func:`export_xml` and
:func:`export_json` join them into one str.  Files are written
atomically (temp file in the target directory, then rename) so readers
never observe a half-written alignment, and a cell rejected mid-stream
leaves any existing file untouched.

Text and attribute values are escaped by two small helpers with the
behaviour of ``xml.sax.saxutils``'s ``escape`` and ``quoteattr``, so
importing this module does not load ``xml.sax`` (which imports
``urllib.request`` and, through it, ``http.client``, ``email`` and ``ssl``).
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import Iterable, Iterator

from .errors import InvalidScore
from .mapping import AlignmentDocument, Correspondence, valid_score
from .parsing import ALIGNMENT_NS, RDF_NS, XSD_NS, is_json_alignment

# Cells rendered per chunk handed to the file; bounds the text in memory.
_CHUNK_CELLS = 1024


def _escape(text: str) -> str:
    """``saxutils.escape(text, {"\\r": "&#13;"})``: XML end-of-line handling
    would read a raw carriage return in element text back as a line feed."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;").replace("\r", "&#13;")


def _quoteattr(text: str) -> str:
    """``saxutils.quoteattr(text)``: escaped, line feeds and tabs too, and
    double-quoted, or single-quoted when the text holds ``"`` but no ``'``."""
    text = _escape(text).replace("\n", "&#10;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"{}"'.format(text.replace('"', "&quot;"))


_XSD_FLOAT_ATTR = _quoteattr(XSD_NS + "float")


def format_measure(score: float) -> str:
    """Plain decimal with at most six fractional digits, at least one."""
    text = f"{score:.6f}".rstrip("0")
    if text.endswith("."):
        text += "0"
    return text


def _check_cell(cell: Correspondence, index: int) -> None:
    if not valid_score(cell.score):
        raise InvalidScore(f"cell {index}: score {cell.score} outside [0, 1]")
    if not cell.source or not cell.target:
        raise InvalidScore(f"cell {index}: empty entity IRI")


def _xml_chunks(document: AlignmentDocument) -> Iterator[str]:
    text = functools.cache(_escape)
    yield "\n".join([
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<rdf:RDF xmlns={_quoteattr(ALIGNMENT_NS)}',
        f'         xmlns:rdf={_quoteattr(RDF_NS)}',
        f'         xmlns:xsd={_quoteattr(XSD_NS)}>',
        "  <Alignment>",
        "    <xml>yes</xml>",
        f"    <level>{text(document.level)}</level>",
        f"    <type>{text(document.type)}</type>",
        f"    <onto1>{text(document.onto1)}</onto1>",
        f"    <onto2>{text(document.onto2)}</onto2>",
        "",
    ])
    quote = functools.cache(_quoteattr)  # an IRI recurs in many cells
    chunk = []
    for index, cell in enumerate(document.cells):
        _check_cell(cell, index)
        chunk.append(
            "    <map>\n"
            "      <Cell>\n"
            f"        <entity1 rdf:resource={quote(cell.source)}/>\n"
            f"        <entity2 rdf:resource={quote(cell.target)}/>\n"
            f"        <relation>{text(cell.relation)}</relation>\n"
            f"        <measure rdf:datatype={_XSD_FLOAT_ATTR}>{format_measure(cell.score)}</measure>\n"
            "      </Cell>\n"
            "    </map>\n"
        )
        if len(chunk) == _CHUNK_CELLS:
            yield "".join(chunk)
            chunk = []
    chunk.append("  </Alignment>\n</rdf:RDF>\n")
    yield "".join(chunk)


def _json_chunks(document: AlignmentDocument) -> Iterator[str]:
    # The text of json.dumps(cells, indent=2) + "\n", one object at a time;
    # json.dumps writes a finite float as its repr.
    chunk = []
    for index, cell in enumerate(document.cells):
        _check_cell(cell, index)
        separator = "[\n" if index == 0 else ",\n"
        chunk.append(
            f"{separator}  {{\n"
            f'    "source": {json.dumps(cell.source)},\n'
            f'    "target": {json.dumps(cell.target)},\n'
            f'    "relation": {json.dumps(cell.relation)},\n'
            f'    "score": {float(cell.score)!r},\n'
            f'    "provenance": {json.dumps(cell.provenance)}\n'
            "  }"
        )
        if len(chunk) == _CHUNK_CELLS:
            yield "".join(chunk)
            chunk = []
    chunk.append("\n]\n" if document.cells else "[]\n")
    yield "".join(chunk)


def export_xml(document: AlignmentDocument) -> str:
    """Render an alignment in the OAEI cell XML vocabulary."""
    return "".join(_xml_chunks(document))


def export_json(document: AlignmentDocument) -> str:
    """Render an alignment as a JSON array of cell objects."""
    return "".join(_json_chunks(document))


def atomic_write(path: str | Path, data: str | Iterable[str]) -> None:
    """Write text, one str or its chunks in order, through a same-directory
    temp file and an atomic rename.

    If writing fails, or the chunks raise, the temp file is removed and an
    existing file at ``path`` is left as it was.
    """
    path = Path(path)
    if isinstance(data, str):
        data = (data,)
    # Created like open(path, "w") would be, so the umask sets its mode.
    tmp_name = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def write_alignment(document: AlignmentDocument, path: str | Path) -> None:
    """Atomically write an alignment file, chunk by chunk, in the format its suffix names."""
    chunks = _json_chunks(document) if is_json_alignment(path) else _xml_chunks(document)
    atomic_write(path, chunks)
