"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and shares no code with the package:
textbook dynamic programming for subsequences, dict-based TF-IDF,
pure-Python ranking, brute-force top-k scoring, line-by-line alignment
XML and one-shot alignment JSON.  Tests trust agreement between two
implementations, not either one alone.
"""

from __future__ import annotations

import json
import math
from xml.sax.saxutils import escape, quoteattr

import numpy as np


def lcs_dp(a: str, b: str) -> int:
    """Longest common subsequence length by row DP."""
    prev = [0] * (len(b) + 1)
    for ch_a in a:
        row = [0]
        for j, ch_b in enumerate(b):
            if ch_a == ch_b:
                row.append(prev[j] + 1)
            else:
                row.append(max(prev[j + 1], row[j]))
        prev = row
    return prev[len(b)]


def ratio_dp(a: str, b: str) -> float:
    """Indel similarity computed from the DP subsequence length."""
    if not a and not b:
        return 1.0
    return 2.0 * lcs_dp(a, b) / (len(a) + len(b))


def best_match_alignment(
    src: list[tuple[str, str]],
    tgt: list[tuple[str, str]],
    threshold: float,
) -> list[tuple[str, str, float]]:
    """Naive best-match-per-source fuzzy alignment over (iri, text) pairs.

    Ties on score go to the lexicographically smaller target IRI.
    """
    out = []
    for src_iri, src_text in src:
        best: tuple[float, str] | None = None
        for tgt_iri, tgt_text in tgt:
            score = ratio_dp(src_text, tgt_text)
            if best is None or score > best[0] or (score == best[0] and tgt_iri < best[1]):
                best = (score, tgt_iri)
        if best is not None and best[0] >= threshold:
            out.append((src_iri, best[1], best[0]))
    return out


def tfidf_vectors(corpus: list[list[str]]) -> list[dict[str, float]]:
    """Dict-based TF-IDF with smoothed idf and L2 row normalization."""
    n_docs = len(corpus)
    doc_freq: dict[str, int] = {}
    for tokens in corpus:
        for term in set(tokens):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    rows = []
    for tokens in corpus:
        counts: dict[str, int] = {}
        for term in tokens:
            counts[term] = counts.get(term, 0) + 1
        row = {
            term: count * (math.log((1 + n_docs) / (1 + doc_freq[term])) + 1.0)
            for term, count in counts.items()
        }
        norm = math.sqrt(sum(value * value for value in row.values()))
        if norm > 0:
            row = {term: value / norm for term, value in row.items()}
        rows.append(row)
    return rows


def dot(u: dict[str, float], v: dict[str, float]) -> float:
    if len(v) < len(u):
        u, v = v, u
    return sum(value * v.get(term, 0.0) for term, value in u.items())


def rank_candidates(
    sims_per_source: list[list[float]],
    k: int,
    threshold: float,
) -> list[list[tuple[int, float]]]:
    """Top-k by descending similarity, ties by ascending index, then a
    threshold cut; the shape mirrors the library's candidate lists."""
    out = []
    for sims in sims_per_source:
        ranked = sorted(range(len(sims)), key=lambda j: (-sims[j], j))[:k]
        out.append([(j, sims[j]) for j in ranked if sims[j] >= threshold])
    return out


def topk(source, target, k: int) -> list[list[tuple[int, float]]]:
    """Every source row's top k targets by :func:`rank_candidates`' rule.

    Sparse (scipy) rows score with one unblocked product.  Dense (numpy)
    rows score as the left-to-right sum of their float64 products, built
    one dimension at a time across all pairs.
    """
    if hasattr(source, "toarray"):
        sims = (source @ target.T).toarray()
    else:
        sims = np.zeros((source.shape[0], target.shape[0]))
        for j in range(source.shape[1]):
            sims += source[:, j, None] * target[None, :, j]
    return rank_candidates(sims.tolist(), k, -math.inf)


def alignment_xml(
    cells: list[tuple[str, str, str, float]],
    onto1: str = "",
    onto2: str = "",
) -> str:
    """OAEI cell XML for (entity1, entity2, relation, measure) cells, one
    line at a time, with every attribute quoted where it is written and a
    carriage return in element text written as ``&#13;``."""

    def escape_text(value: str) -> str:
        return escape(value, {"\r": "&#13;"})

    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        '<rdf:RDF xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"',
        '         xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"',
        '         xmlns:xsd="http://www.w3.org/2001/XMLSchema#">',
        "  <Alignment>",
        "    <xml>yes</xml>",
        "    <level>0</level>",
        "    <type>??</type>",
        f"    <onto1>{escape_text(onto1)}</onto1>",
        f"    <onto2>{escape_text(onto2)}</onto2>",
    ]
    for entity1, entity2, relation, measure in cells:
        text = f"{measure:.6f}".rstrip("0")
        if text.endswith("."):
            text += "0"
        lines.extend([
            "    <map>",
            "      <Cell>",
            f"        <entity1 rdf:resource={quoteattr(entity1)}/>",
            f"        <entity2 rdf:resource={quoteattr(entity2)}/>",
            f"        <relation>{escape_text(relation)}</relation>",
            f'        <measure rdf:datatype={quoteattr("http://www.w3.org/2001/XMLSchema#float")}>{text}</measure>',
            "      </Cell>",
            "    </map>",
        ])
    lines.extend(["  </Alignment>", "</rdf:RDF>", ""])
    return "\n".join(lines)


def alignment_json(cells: list[tuple[str, str, str, float, str]]) -> str:
    """Alignment JSON for (source, target, relation, score, provenance)
    cells, encoded in one ``json.dumps`` call."""
    payload = [
        {"source": source, "target": target, "relation": relation,
         "score": float(score), "provenance": provenance}
        for source, target, relation, score, provenance in cells
    ]
    return json.dumps(payload, indent=2) + "\n"
