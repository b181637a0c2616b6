"""LLM-backed alignment: exhaustive pairwise prompting and RAG.

The pairwise aligner asks the model about every (source, target) pair and
keeps, at score 1.0, the pairs whose generated answer
:func:`~ontomatch.llm.read_answer` reads as "yes".  That is quadratic in
ontology size, so a hard pair cap refuses oversized inputs up front.

The RAG aligner first retrieves a shortlist of candidate targets per
source over C-view texts (label and synonyms), then asks the model only
about the shortlisted pairs, with prompts rendered at the requested view,
using first-position token probabilities, keeping pairs whose
yes-confidence reaches the threshold.  A fallback decision, made from the
completion text because the provider sent no usable logprobs, has no
confidence to threshold: it is kept when its label is "yes".  Few-shot
prompting prepends worked examples.  Decided pairs (confidence, label and
fallback flag) are appended to a JSON-lines journal per completed batch,
so an interrupted run resumes without re-asking.
"""

from __future__ import annotations

import json
import logging
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from pathlib import Path

from .encoding import EncodedCorpus, EncodingView, encode, render_concept
from .errors import ConfigError, PairCapExceeded, TemplateError
from .llm import Decision, LLMConfig, make_llm_client, read_answer
from .mapping import Correspondence
from .parsing import Ontology
from .retrieval import RetrievalConfig, align_retrieval

logger = logging.getLogger(__name__)

DEFAULT_PAIR_CAP = 200 * 200

DEFAULT_PREAMBLE = (
    "Classify if the two concepts refer to the same real-world entity. "
    "Answer with yes or no."
)
DEFAULT_QUERY_BLOCK = "### First concept: {src}\n### Second concept: {tgt}\n### Answer: "
DEFAULT_SHOT_BLOCK = "### First concept: {src}\n### Second concept: {tgt}\n### Answer: {answer}\n"


@dataclass(frozen=True)
class Exemplar:
    """A worked example shown before the query in few-shot prompts."""

    source: str
    target: str
    answer: str

    def validate(self) -> None:
        if self.answer not in ("yes", "no"):
            raise ConfigError(f"exemplar answer must be yes or no, got {self.answer!r}")


DEFAULT_EXEMPLARS = (
    Exemplar("car", "automobile", "yes"),
    Exemplar("car", "banana", "no"),
)


@dataclass(frozen=True)
class PromptTemplate:
    """The three building blocks of a decision prompt."""

    preamble: str = DEFAULT_PREAMBLE
    query_block: str = DEFAULT_QUERY_BLOCK
    shot_block: str = DEFAULT_SHOT_BLOCK

    def validate(self) -> None:
        for name, block, placeholders in (
            ("query_block", self.query_block, ("{src}", "{tgt}")),
            ("shot_block", self.shot_block, ("{src}", "{tgt}", "{answer}")),
        ):
            for placeholder in placeholders:
                if block.count(placeholder) != 1:
                    raise TemplateError(f"{name} must contain {placeholder} exactly once")


@dataclass(frozen=True)
class RAGConfig:
    """Settings for :func:`align_rag`.

    Attributes:
        retrieval: shortlist settings (its threshold plays the T_r role).
        llm: endpoint settings for the generator.
        llm_threshold: minimum yes-confidence to keep a pair (T_l).
        shots: worked examples per prompt (0 = plain zero-shot RAG).
        exemplars: few-shot examples; ignored when shots == 0.
        exemplars_path: optional JSON file overriding ``exemplars``.
        journal_path: optional JSON-lines checkpoint for resumable runs.
    """

    retrieval: RetrievalConfig = field(default_factory=lambda: RetrievalConfig(top_k=5))
    llm: LLMConfig = field(default_factory=LLMConfig)
    llm_threshold: float = 0.5
    shots: int = 0
    exemplars: tuple[Exemplar, ...] = DEFAULT_EXEMPLARS
    exemplars_path: str | None = None
    template: PromptTemplate = field(default_factory=PromptTemplate)
    journal_path: str | None = None

    def validate(self) -> None:
        self.retrieval.validate()
        self.llm.validate()
        self.template.validate()
        if not 0.0 <= self.llm_threshold <= 1.0:
            raise ConfigError(f"llm_threshold must be in [0, 1], got {self.llm_threshold}")
        if self.shots < 0:
            raise ConfigError(f"shots must be >= 0, got {self.shots}")
        for exemplar in self.exemplars:
            exemplar.validate()


def exemplars_from_json(raw: object, where: str) -> tuple[Exemplar, ...]:
    """Read decoded JSON as an array of source/target/answer exemplars.

    ``where`` names the array in error messages.
    """
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be a JSON array")
    out = []
    for i, item in enumerate(raw):
        try:
            exemplar = Exemplar(str(item["source"]), str(item["target"]), str(item["answer"]))
        except (KeyError, TypeError):
            raise ConfigError(f"{where}[{i}] needs source/target/answer") from None
        exemplar.validate()
        out.append(exemplar)
    return tuple(out)


def load_exemplars(path: str | Path) -> tuple[Exemplar, ...]:
    """Load few-shot exemplars from a JSON array of source/target/answer."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"exemplar file {path} is not valid JSON: {exc}") from exc
    exemplars = exemplars_from_json(raw, f"exemplar file {path}")
    if not exemplars:
        raise ConfigError(f"exemplar file {path} is empty")
    return exemplars


def build_prompt(
    source_text: str,
    target_text: str,
    shots: tuple[Exemplar, ...] = (),
    template: PromptTemplate | None = None,
) -> str:
    """Assemble preamble, worked examples, and the query into one prompt."""
    template = template or PromptTemplate()
    template.validate()
    parts = [template.preamble, "\n"]
    for shot in shots:
        parts.append(
            template.shot_block.replace("{src}", shot.source)
            .replace("{tgt}", shot.target)
            .replace("{answer}", shot.answer)
        )
    parts.append(template.query_block.replace("{src}", source_text).replace("{tgt}", target_text))
    return "".join(parts)


def _prompt_text(corpus: EncodedCorpus, index: int) -> str:
    record = corpus.structured[index]
    return render_concept(record.concept_label, record.related_labels, corpus.view)


# --------------------------------------------------------------------------
# Exhaustive pairwise alignment
# --------------------------------------------------------------------------


def align_llm_pairwise(
    source: EncodedCorpus,
    target: EncodedCorpus,
    cfg: LLMConfig,
    *,
    template: PromptTemplate | None = None,
    pair_cap: int = DEFAULT_PAIR_CAP,
    client=None,
) -> list[Correspondence]:
    """Ask the model about every pair; keep the pairs it answers yes to.

    Raises:
        PairCapExceeded: |source| * |target| exceeds ``pair_cap``.
    """
    cfg.validate()
    total = len(source.texts) * len(target.texts)
    if total > pair_cap:
        raise PairCapExceeded(
            f"{len(source.texts)}x{len(target.texts)} = {total} pairs exceed the cap of {pair_cap}"
        )
    template = template or PromptTemplate()

    pairs = [(i, j) for i in range(len(source.texts)) for j in range(len(target.texts))]
    out: list[Correspondence] = []
    with ExitStack() as owned:
        if client is None:
            client = owned.enter_context(closing(make_llm_client(cfg)))
        for start in range(0, len(pairs), cfg.batch_size):
            batch = pairs[start:start + cfg.batch_size]
            prompts = [
                build_prompt(_prompt_text(source, i), _prompt_text(target, j), (), template)
                for i, j in batch
            ]
            for (i, j), generated in zip(batch, client.complete_many(prompts)):
                if read_answer(generated) == "yes":
                    out.append(Correspondence(source.iris[i], target.iris[j], "=", 1.0, "llm:pairwise"))
    return out


# --------------------------------------------------------------------------
# Retrieve-then-generate alignment
# --------------------------------------------------------------------------


def _load_journal(path: str) -> dict[tuple[str, str], Decision]:
    decided: dict[tuple[str, str], Decision] = {}
    journal = Path(path)
    if not journal.exists():
        return decided
    for line_no, line in enumerate(journal.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line.decode("utf-8"))
            confidence, label, fallback = entry["confidence"], entry["label"], entry["fallback"]
            # A confidence that is not a number in [0, 1] (a bool, NaN, 1.5), a
            # label other than yes/no or a fallback flag that is not a bool is as
            # unusable as a torn line, and so is a line that lacks label/fallback.
            if (type(confidence) in (int, float) and 0.0 <= confidence <= 1.0
                    and label in ("yes", "no") and type(fallback) is bool):
                decided[(entry["source"], entry["target"])] = Decision(label, float(confidence), fallback)
                continue
        except (ValueError, KeyError, TypeError):  # ValueError: not UTF-8, or not JSON
            pass
        logger.warning("skipping malformed journal line %d in %s", line_no, path)
    return decided


def align_rag(
    source: Ontology,
    target: Ontology,
    cfg: RAGConfig,
    *,
    view: EncodingView = EncodingView.C,
    client=None,
    provider=None,
    seed: int = 0,
) -> list[Correspondence]:
    """Retrieve candidate pairs, then keep those the model says yes to.

    Retrieval always runs over C-view texts; prompts render ``view``.
    Output is sorted by source concept, then descending confidence, then
    target IRI.
    """
    cfg.validate()
    exemplars = load_exemplars(cfg.exemplars_path) if cfg.exemplars_path else cfg.exemplars
    shots = exemplars[:cfg.shots] if cfg.shots else ()
    if cfg.shots and len(shots) < cfg.shots:
        raise ConfigError(f"{cfg.shots} shots requested but only {len(shots)} exemplars available")

    src_corpus = encode(source, EncodingView.C)
    tgt_corpus = encode(target, EncodingView.C)
    src_prompts, tgt_prompts = src_corpus, tgt_corpus
    if view is not EncodingView.C:
        src_prompts, tgt_prompts = encode(source, view), encode(target, view)
    src_index = {iri: i for i, iri in enumerate(src_corpus.iris)}
    tgt_index = {iri: i for i, iri in enumerate(tgt_corpus.iris)}

    candidates = align_retrieval(src_corpus, tgt_corpus, cfg.retrieval, provider=provider, seed=seed)
    pairs = [(src_index[c.source], tgt_index[c.target]) for c in candidates]

    decided = _load_journal(cfg.journal_path) if cfg.journal_path else {}
    pending = [
        (i, j) for i, j in pairs
        if (src_corpus.iris[i], tgt_corpus.iris[j]) not in decided
    ]

    journal = Path(cfg.journal_path) if cfg.journal_path else None
    with ExitStack() as owned:
        if pending and client is None:
            client = owned.enter_context(closing(make_llm_client(cfg.llm)))
        for start in range(0, len(pending), cfg.llm.batch_size):
            batch = pending[start:start + cfg.llm.batch_size]
            items = []
            for i, j in batch:
                prompt = build_prompt(
                    _prompt_text(src_prompts, i), _prompt_text(tgt_prompts, j), shots, cfg.template,
                )
                meta = (src_corpus.structured[i].concept_label, tgt_corpus.structured[j].concept_label)
                items.append((prompt, meta))
            decisions = client.decide_many(items)
            lines = []
            for (i, j), decision in zip(batch, decisions):
                key = (src_corpus.iris[i], tgt_corpus.iris[j])
                decided[key] = decision
                lines.append(json.dumps(
                    {"source": key[0], "target": key[1], "confidence": decision.confidence,
                     "label": decision.label, "fallback": decision.fallback},
                    sort_keys=True,
                ))
            if journal is not None and lines:
                with journal.open("a", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
                    fh.flush()

    provenance = "rag:fewshot" if cfg.shots else "rag"
    out = []
    for i, j in pairs:
        decision = decided[(src_corpus.iris[i], tgt_corpus.iris[j])]
        # A fallback's flat 0.5 is no confidence; its label decides.
        if (decision.label == "yes") if decision.fallback else (decision.confidence >= cfg.llm_threshold):
            out.append(Correspondence(
                src_corpus.iris[i], tgt_corpus.iris[j], "=", decision.confidence, provenance,
            ))
    out.sort(key=lambda c: (src_index[c.source], -c.score, c.target))
    return out
