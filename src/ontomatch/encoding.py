"""Concept encoding: turning parsed ontologies into alignable text corpora.

Three views control how much taxonomy context each concept carries:

* ``C``   just the concept label;
* ``CC``  the label plus its children's labels;
* ``CP``  the label plus its parents' labels.

Encoded corpora are index-aligned with the ontology's concept list and are
consumed by every aligner.  Texts, which fuzzy and retrieval scoring read,
carry the label, its normalized synonyms in parentheses and the view's
related labels.  Prompts, which LLM prompts quote, carry the label without
synonyms and the same related labels.  This module is the only one that
renders a view.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import ConfigError, EmptyCorpus, EmptyOntology, ViewMismatch
from .parsing import Ontology, split_camel_case

# Unicode hyphen/dash variants folded to a space alongside '_' and '-'.
_DASHES = "".join(chr(code) for code in range(0x2010, 0x2016)) + chr(0x2212)
_SEPARATORS = re.compile("[_\\-" + _DASHES + "]+")
_ALNUM = re.compile(r"[^\W_]+", re.UNICODE)

# Upper bound on children/parents rendered per concept, to keep texts and
# prompts from ballooning on wide taxonomies.
RELATED_LABEL_CAP = 10


class EncodingView(enum.Enum):
    """How much hierarchy context goes into a concept's text."""

    C = "C"
    CC = "CC"
    CP = "CP"

    @classmethod
    def parse(cls, value: str | EncodingView) -> EncodingView:
        if isinstance(value, cls):
            return value
        try:
            return cls(value.upper())
        except (ValueError, AttributeError):
            raise ConfigError(f"unknown encoding view: {value!r}") from None


@dataclass(frozen=True)
class EncodedCorpus:
    """Matcher texts and prompt texts, index-aligned with ontology concepts."""

    view: EncodingView
    iris: tuple[str, ...]
    texts: tuple[str, ...]
    prompts: tuple[str, ...]


def check_alignable(source: EncodedCorpus, target: EncodedCorpus) -> None:
    """Refuse two corpora encoded under different views, or either one without texts."""
    if source.view is not target.view:
        raise ViewMismatch(f"source view {source.view.value} != target view {target.view.value}")
    if not source.texts or not target.texts:
        raise EmptyCorpus("both corpora need at least one text")


def normalize(text: str) -> str:
    """Normalize a label: fold separators, split camelCase, lowercase.

    Whitespace is collapsed to single spaces and stripped at both ends.
    """
    text = _SEPARATORS.sub(" ", text)
    text = split_camel_case(text)
    return " ".join(text.lower().split())


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens, splitting on everything else."""
    return _ALNUM.findall(text.lower())


def render_concept(label: str, related: tuple[str, ...], view: EncodingView) -> str:
    """Render one concept text under the fixed view templates."""
    if view is EncodingView.C or not related:
        return label
    keyword = "children" if view is EncodingView.CC else "parents"
    return f"{label}, {keyword}: {', '.join(related)}"


def _safe_label(label: str, iri: str) -> str:
    normalized = normalize(label)
    return normalized or label.strip() or iri


def encode(ontology: Ontology, view: EncodingView | str) -> EncodedCorpus:
    """Encode every concept of an ontology under one view.

    Args:
        ontology: parsed ontology; must contain at least one concept.
        view: C, CC, or CP.

    Returns:
        An :class:`EncodedCorpus` whose texts are non-empty and lowercase.

    Raises:
        EmptyOntology: the ontology has no concepts.
        ConfigError: unknown view.
    """
    view = EncodingView.parse(view)
    if not ontology.concepts:
        raise EmptyOntology(f"no concepts in {ontology.source_path or 'ontology'}")

    labels = {concept.iri: _safe_label(concept.label, concept.iri) for concept in ontology.concepts}
    iris = []
    texts = []
    prompts = []
    for concept in ontology.concepts:
        label = labels[concept.iri]
        if view is EncodingView.CC:
            related_iris = concept.children
        elif view is EncodingView.CP:
            related_iris = concept.parents
        else:
            related_iris = ()
        related = tuple(labels[iri] for iri in related_iris[:RELATED_LABEL_CAP] if iri in labels)
        synonyms = _unique_normalized(concept.synonyms, label)
        label_segment = f"{label} ({'; '.join(synonyms)})" if synonyms else label

        iris.append(concept.iri)
        texts.append(render_concept(label_segment, related, view))
        prompts.append(render_concept(label, related, view))

    return EncodedCorpus(view=view, iris=tuple(iris), texts=tuple(texts), prompts=tuple(prompts))


def _unique_normalized(values: tuple[str, ...], label: str) -> list[str]:
    seen = {label}
    out = []
    for value in values:
        normalized = normalize(value)
        if normalized and normalized not in seen:
            seen.add(normalized)
            out.append(normalized)
    return out
