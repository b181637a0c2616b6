"""Seeded synthetic ontology pairs with a planted reference alignment.

Writes ``source.owl`` and ``target.owl`` (RDF/XML) and ``reference.rdf``
(OAEI alignment XML) into an output directory, using its own writers rather
than ontomatch's, so the program under test only ever sees files.

* Labels are phrases of one to four pseudo-words; every word has a
  synonym word for synonym swaps.
* Every concept but the first gets an ``rdfs:subClassOf`` parent, so the
  CC and CP views carry context.  A planted copy keeps its source parent's
  copy as parent when that parent was planted too.
* A share of concepts carries ``skos:altLabel`` synonyms, which spreads the
  encoded text lengths past 63 characters for a few percent of texts.
* Each planted target copy is perturbed by word reordering, a
  one-character typo or a synonym swap.

The same seed always gives byte-identical files.

    python3 bench/generate.py --workload fuzzy_simple --seed 1 --out .bench_work/gen
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

SOURCE_BASE = "http://bench.example.org/source"
TARGET_BASE = "http://bench.example.org/target"
SYNONYM_SHARE = 0.12

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "cr", "dr", "gl", "pl", "st", "tr", "ch", "sh", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ae", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "x", "m")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

_RDF_HEADER = (
    '<?xml version="1.0" encoding="utf-8"?>\n'
    "<rdf:RDF xmlns:rdf=\"http://www.w3.org/1999/02/22-rdf-syntax-ns#\"\n"
    "         xmlns:rdfs=\"http://www.w3.org/2000/01/rdf-schema#\"\n"
    "         xmlns:owl=\"http://www.w3.org/2002/07/owl#\"\n"
    "         xmlns:skos=\"http://www.w3.org/2004/02/skos/core#\">\n"
)


class _Lexicon:
    """Pseudo-words drawn from a seeded generator, each with one synonym."""

    def __init__(self, rng: random.Random, size: int):
        self.rng = rng
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < 2 * size:
            word = self._word()
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words[:size]
        self.synonym = dict(zip(words[:size], words[size:]))

    def _word(self) -> str:
        rng = self.rng
        return "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.choice((2, 2, 3, 3, 4)))
        )

    def phrase(self) -> list[str]:
        length = self.rng.choices((1, 2, 3, 4), weights=(2, 4, 3, 1))[0]
        return [self.rng.choice(self.words) for _ in range(length)]


def _typo(rng: random.Random, word: str) -> str:
    pos = rng.randrange(len(word))
    op = rng.choice(("substitute", "delete", "insert", "transpose"))
    if op == "delete" and len(word) > 3:
        return word[:pos] + word[pos + 1:]
    if op == "insert":
        return word[:pos] + rng.choice(_LETTERS) + word[pos:]
    if op == "transpose" and pos + 1 < len(word) and word[pos] != word[pos + 1]:
        return word[:pos] + word[pos + 1] + word[pos] + word[pos + 2:]
    letter = rng.choice([c for c in _LETTERS if c != word[pos]])
    return word[:pos] + letter + word[pos + 1:]


def _perturb(rng: random.Random, lexicon: _Lexicon, words: list[str]) -> list[str]:
    """One reordering, one-character typo or synonym swap of a label.

    A one-word label only gets typos: swapping its only word for a synonym
    leaves nothing for a string matcher to find.
    """
    ops = ["typo", "typo"] + (["synonym", "reorder"] if len(set(words)) > 1 else [])
    op = rng.choice(ops)
    out = list(words)
    if op == "reorder":
        while out == words:
            rng.shuffle(out)
        return out
    i = rng.randrange(len(out))
    out[i] = lexicon.synonym[out[i]] if op == "synonym" else _typo(rng, out[i])
    return out


def _render(words: list[str]) -> str:
    text = " ".join(words)
    return text[0].upper() + text[1:]


def _alt_labels(rng: random.Random, lexicon: _Lexicon, words: list[str]) -> list[str]:
    if rng.random() >= SYNONYM_SHARE:
        return []
    alts = []
    for _ in range(rng.choice((1, 1, 1, 2))):
        variant = [lexicon.synonym.get(w, w) if rng.random() < 0.5 else w for w in words]
        alts.append(_render(variant))
    return alts


def _write_ontology(path: Path, base: str, concepts: list[dict]) -> None:
    parts = [_RDF_HEADER, f"  <owl:Ontology rdf:about={quoteattr(base)}/>\n"]
    for concept in concepts:
        parts.append(f"  <owl:Class rdf:about={quoteattr(concept['iri'])}>\n")
        parts.append(f"    <rdfs:label>{escape(concept['label'])}</rdfs:label>\n")
        for alt in concept["alts"]:
            parts.append(f"    <skos:altLabel>{escape(alt)}</skos:altLabel>\n")
        if concept["parent"] is not None:
            parts.append(f"    <rdfs:subClassOf rdf:resource={quoteattr(concept['parent'])}/>\n")
        parts.append("  </owl:Class>\n")
    parts.append("</rdf:RDF>\n")
    path.write_text("".join(parts), encoding="utf-8")


def write_reference(path: Path, pairs: list[tuple[str, str]]) -> None:
    """Write (source IRI, target IRI) pairs as an OAEI alignment document."""
    parts = [
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<rdf:RDF xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment#"\n'
        '         xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
        '         xmlns:xsd="http://www.w3.org/2001/XMLSchema#">\n'
        "  <Alignment>\n"
        "    <xml>yes</xml>\n    <level>0</level>\n    <type>11</type>\n"
        f"    <onto1>{escape(SOURCE_BASE)}</onto1>\n    <onto2>{escape(TARGET_BASE)}</onto2>\n"
    ]
    for source, target in pairs:
        parts.append(
            "    <map>\n      <Cell>\n"
            f"        <entity1 rdf:resource={quoteattr(source)}/>\n"
            f"        <entity2 rdf:resource={quoteattr(target)}/>\n"
            "        <relation>=</relation>\n"
            '        <measure rdf:datatype="http://www.w3.org/2001/XMLSchema#float">1.0</measure>\n'
            "      </Cell>\n    </map>\n"
        )
    parts.append("  </Alignment>\n</rdf:RDF>\n")
    path.write_text("".join(parts), encoding="utf-8")


def generate(out_dir: str | Path, seed: int, n_source: int, n_target: int, planted: int,
             words: int) -> dict:
    """Write one ontology pair and its reference; return paths and planted pairs.

    Returns a dict with ``source``, ``target`` and ``reference`` paths (as
    given, so relative in gives relative out) and ``pairs``, the planted
    (source IRI, target IRI) pairs in source order.
    """
    if not 0 < planted <= min(n_source, n_target):
        raise ValueError(f"planted must be in 1..{min(n_source, n_target)}, got {planted}")
    rng = random.Random(seed)
    lexicon = _Lexicon(rng, words)

    source_words = [lexicon.phrase() for _ in range(n_source)]
    # Concept i's parent is an earlier concept, so parents precede children.
    source_parent = [None] + [rng.randrange(i) for i in range(1, n_source)]
    source_ids = rng.sample(range(n_source), n_source)
    source_iris = [f"{SOURCE_BASE}#S{source_ids[i]:06d}" for i in range(n_source)]

    planted_sources = sorted(rng.sample(range(n_source), planted))
    # Target generation order: planted copies in source order, then distractors.
    copy_of = {s: k for k, s in enumerate(planted_sources)}
    target_words = [_perturb(rng, lexicon, source_words[s]) for s in planted_sources]
    target_words += [lexicon.phrase() for _ in range(n_target - planted)]
    target_parent: list[int | None] = [None]
    for k in range(1, n_target):
        parent = None
        if k < planted:
            source_p = source_parent[planted_sources[k]]
            parent = copy_of.get(source_p) if source_p is not None else None
        target_parent.append(parent if parent is not None and parent < k else rng.randrange(k))
    target_ids = rng.sample(range(n_target), n_target)
    target_iris = [f"{TARGET_BASE}#T{target_ids[k]:06d}" for k in range(n_target)]

    def concepts(iris, words, parents):
        return [
            {
                "iri": iris[i],
                "label": _render(words[i]),
                "alts": _alt_labels(rng, lexicon, words[i]),
                "parent": iris[parents[i]] if parents[i] is not None else None,
            }
            for i in range(len(iris))
        ]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: str(Path(out_dir) / file) for name, file in
             (("source", "source.owl"), ("target", "target.owl"), ("reference", "reference.rdf"))}
    _write_ontology(Path(paths["source"]), SOURCE_BASE, concepts(source_iris, source_words, source_parent))
    _write_ontology(Path(paths["target"]), TARGET_BASE, concepts(target_iris, target_words, target_parent))
    pairs = [(source_iris[s], target_iris[k]) for k, s in enumerate(planted_sources)]
    write_reference(Path(paths["reference"]), pairs)
    return {**paths, "pairs": pairs}


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--scale", type=float, default=1.0, help="fraction of the full sizes")
    args = parser.parse_args(argv)
    generated = generate(args.out, args.seed, *WORKLOADS[args.workload].sizes(args.scale))
    print(f"wrote {generated['source']}, {generated['target']}, {generated['reference']} "
          f"({len(generated['pairs'])} planted pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
