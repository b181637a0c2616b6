"""Writing alignments in the OAEI cell XML vocabulary and as JSON.

This module holds only writers; ``parsing.parse_reference_alignment``
reads both formats back.  Output is byte-deterministic: fixed element
order, fixed namespace declarations, measures printed as plain decimals
with at most six fractional digits (never scientific notation).  Files
are written atomically (temp file in the target directory, then rename)
so readers never observe a half-written alignment.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

from .errors import ConfigError, InvalidScore
from .mapping import AlignmentDocument, Correspondence
from .parsing import ALIGNMENT_NS, RDF_NS, XSD_NS

_XSD_FLOAT_ATTR = quoteattr(XSD_NS + "float")


def format_measure(score: float) -> str:
    """Plain decimal with at most six fractional digits, at least one."""
    text = f"{score:.6f}".rstrip("0")
    if text.endswith("."):
        text += "0"
    return text


def _check_cell(cell: Correspondence, index: int) -> None:
    if not 0.0 <= cell.score <= 1.0:
        raise InvalidScore(f"cell {index}: score {cell.score} outside [0, 1]")
    if not cell.source or not cell.target:
        raise InvalidScore(f"cell {index}: empty entity IRI")


def export_xml(document: AlignmentDocument) -> str:
    """Render an alignment in the OAEI cell XML vocabulary."""
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<rdf:RDF xmlns={quoteattr(ALIGNMENT_NS)}',
        f'         xmlns:rdf={quoteattr(RDF_NS)}',
        f'         xmlns:xsd={quoteattr(XSD_NS)}>',
        "  <Alignment>",
        "    <xml>yes</xml>",
        f"    <level>{escape(document.level)}</level>",
        f"    <type>{escape(document.type)}</type>",
        f"    <onto1>{escape(document.onto1)}</onto1>",
        f"    <onto2>{escape(document.onto2)}</onto2>",
    ]
    quote = functools.cache(quoteattr)  # an IRI recurs in many cells
    for index, cell in enumerate(document.cells):
        _check_cell(cell, index)
        lines.append(
            "    <map>\n"
            "      <Cell>\n"
            f"        <entity1 rdf:resource={quote(cell.source)}/>\n"
            f"        <entity2 rdf:resource={quote(cell.target)}/>\n"
            f"        <relation>{escape(cell.relation)}</relation>\n"
            f"        <measure rdf:datatype={_XSD_FLOAT_ATTR}>{format_measure(cell.score)}</measure>\n"
            "      </Cell>\n"
            "    </map>"
        )
    lines.extend(["  </Alignment>", "</rdf:RDF>", ""])
    return "\n".join(lines)


def export_json(document: AlignmentDocument) -> str:
    """Render an alignment as a JSON array of cell objects."""
    payload = []
    for index, cell in enumerate(document.cells):
        _check_cell(cell, index)
        payload.append({
            "source": cell.source,
            "target": cell.target,
            "relation": cell.relation,
            "score": float(cell.score),
            "provenance": cell.provenance,
        })
    return json.dumps(payload, indent=2) + "\n"


def atomic_write(path: str | Path, data: str) -> None:
    """Write text through a same-directory temp file and an atomic rename."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def write_alignment(
    document: AlignmentDocument,
    path: str | Path,
    output_format: str = "xml",
) -> None:
    """Serialize and atomically write an alignment file."""
    if output_format == "xml":
        data = export_xml(document)
    elif output_format == "json":
        data = export_json(document)
    else:
        raise ConfigError(f"unknown output format: {output_format!r}")
    atomic_write(path, data)
