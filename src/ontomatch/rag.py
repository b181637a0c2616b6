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
prompting prepends worked examples.  Both aligners ask through one loop
that appends each completed batch to a JSON-lines journal keyed by a hash
of the request, so an interrupted run resumes without re-asking.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from contextlib import ExitStack, closing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .encoding import EncodedCorpus, EncodingView, encode
from .errors import ConfigError, PairCapExceeded, TemplateError, check_count, check_fraction
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
        for name, text in (("source", self.source), ("target", self.target)):
            if not isinstance(text, str):
                raise ConfigError(f"exemplar {name} must be a string, got {text!r}")
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

    def query_texts(self, prompt: str) -> tuple[str, str]:
        """The (source, target) texts that :func:`build_prompt` put in the
        query block ending ``prompt``, found by the block's literals.

        Texts that hold none of the template's literals come back exactly; a
        text that holds the literal between the placeholders is split at its
        last occurrence.  The first text starts after the preamble, at the
        last occurrence of the block's opening literal or, when that is
        empty, of the shot block's closing one.

        Raises:
            TemplateError: the prompt does not end with this query block, or
                the block has no literal between its placeholders.
        """
        opening, first, middle, second, closing = re.split(r"\{(src|tgt)\}", self.query_block)
        if not middle:
            raise TemplateError("query_block needs a literal between {src} and {tgt} to be read back")
        head, found, second_text = prompt[:len(prompt) - len(closing)].rpartition(middle)
        anchor = opening or re.split(r"\{(?:src|tgt|answer)\}", self.shot_block)[-1]
        start = len(self.preamble) + 1
        at = head.rfind(anchor, start) if anchor else -1
        if not (found and prompt.endswith(closing)) or (opening and at < 0):
            raise TemplateError("the prompt does not end with this template's query block")
        if at >= 0:
            start = at + len(anchor)
        texts = (head[start:], second_text)
        return texts if first == "src" else texts[::-1]


@dataclass(frozen=True)
class RAGConfig:
    """Settings for :func:`align_rag`.

    Attributes:
        retrieval: shortlist settings (its threshold plays the T_r role).
        llm: endpoint settings for the generator.
        llm_threshold: minimum yes-confidence to keep a pair (T_l).
        shots: worked examples per prompt; None or 0 is zero-shot RAG.
            Method fewshot_rag needs at least 1 (2 when unset); no other
            method takes any.
        exemplars: few-shot examples; ignored when zero-shot.
        exemplars_path: optional JSON file overriding ``exemplars``.
        journal_path: optional JSON-lines checkpoint for resumable llm and
            rag runs; a line is reused only for the same request.
    """

    retrieval: RetrievalConfig = field(default_factory=lambda: RetrievalConfig(top_k=5))
    llm: LLMConfig = field(default_factory=LLMConfig)
    llm_threshold: float = 0.5
    shots: int | None = None
    exemplars: tuple[Exemplar, ...] = DEFAULT_EXEMPLARS
    exemplars_path: str | None = None
    template: PromptTemplate = field(default_factory=PromptTemplate)
    journal_path: str | None = None

    def validate(self) -> None:
        self.retrieval.validate()
        self.llm.validate()
        self.template.validate()
        check_fraction("llm_threshold", self.llm_threshold)
        if self.shots is not None:
            check_count("shots", self.shots, minimum=0)
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
            exemplar = Exemplar(item["source"], item["target"], item["answer"])
        except (KeyError, TypeError):
            raise ConfigError(f"{where}[{i}] needs source/target/answer") from None
        exemplar.validate()
        out.append(exemplar)
    return tuple(out)


def load_exemplars(path: str | Path) -> tuple[Exemplar, ...]:
    """Load few-shot exemplars from a JSON array of source/target/answer."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, no read permission
        raise ConfigError(f"exemplar file {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"exemplar file {path} is not valid JSON: {exc}") from exc
    exemplars = exemplars_from_json(raw, f"exemplar file {path}")
    if not exemplars:
        raise ConfigError(f"exemplar file {path} is empty")
    return exemplars


def _fill(block: str, **texts: str) -> str:
    """``block`` with its placeholders filled in one pass: no text is scanned again."""
    return re.sub(r"\{(src|tgt|answer)\}", lambda m: texts.get(m[1], m[0]), block)


def build_prompt(
    source_text: str,
    target_text: str,
    shots: tuple[Exemplar, ...] = (),
    template: PromptTemplate | None = None,
) -> str:
    """Assemble preamble, worked examples, and the query into one prompt."""
    template = template or PromptTemplate()
    examples = "".join(_fill(template.shot_block, src=s.source, tgt=s.target, answer=s.answer) for s in shots)
    return f"{template.preamble}\n{examples}{_fill(template.query_block, src=source_text, tgt=target_text)}"


def _load_journal(path: str) -> dict[str, Decision]:
    """The journal's usable decisions by request key.  A journal cut mid-line
    (by a crash while writing) is ended first, so appends start a new line."""
    decided: dict[str, Decision] = {}
    data = Path(path).read_bytes() if os.path.exists(path) else b""
    for line_no, line in enumerate(data.splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line.decode("utf-8"))
            key, confidence = entry["key"], entry["confidence"]
            label, fallback = entry["label"], entry["fallback"]
            # A line lacking a string key, a confidence in [0, 1] (not a bool, NaN,
            # 1.5), a yes/no label or a bool fallback flag is as unusable as a torn one.
            if (type(key) is str and type(confidence) in (int, float) and 0.0 <= confidence <= 1.0
                    and label in ("yes", "no") and type(fallback) is bool):
                decided[key] = Decision(label, float(confidence), fallback)
                continue
        except (ValueError, KeyError, TypeError):  # ValueError: not UTF-8, or not JSON
            pass
        logger.warning("skipping malformed journal line %d in %s", line_no, path)
    if data and not data.endswith(b"\n"):
        with open(path, "ab") as journal:
            journal.write(b"\n")
    return decided


def _ask(prompts: Sequence[str], kind: str, cfg: LLMConfig,
         decide: Callable[[list[str]], list[Decision]], journal_path: str | None) -> list[Decision]:
    """One decision per prompt: the journal's for a key it held at the start,
    else ``decide``'s, asked in ``batch_size`` chunks, each appended to the
    journal and synced before the next.  A key is a SHA-256 of the decision
    ``kind`` ("text" or "logprob"), the settings sent and the prompt, which
    carries the template, shots and view; a repeated prompt is asked again."""
    request = [kind, cfg.endpoint, cfg.model_id, float(cfg.temperature), cfg.max_new_tokens]
    keys = [hashlib.sha256(json.dumps([*request, p]).encode("utf-8")).hexdigest() for p in prompts]
    decided = _load_journal(journal_path) if journal_path else {}
    decisions = [decided.get(key) for key in keys]
    pending = [n for n, decision in enumerate(decisions) if decision is None]
    for start in range(0, len(pending), cfg.batch_size):
        batch = pending[start:start + cfg.batch_size]
        for n, decision in zip(batch, decide([prompts[n] for n in batch])):
            decisions[n] = decision
        if journal_path:
            with open(journal_path, "a", encoding="utf-8") as journal:
                journal.writelines(json.dumps({**asdict(decisions[n]), "key": keys[n]}, sort_keys=True) + "\n"
                                   for n in batch)
                journal.flush()
                os.fsync(journal.fileno())
    return decisions


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
    journal_path: str | None = None,
    client=None,
) -> list[Correspondence]:
    """Ask the model about every pair; keep the pairs it answers yes to.

    With ``journal_path`` the run resumes as :func:`align_rag` does; a line
    holds the answer's label as a fallback decision at a flat 0.5.

    Raises:
        PairCapExceeded: |source| * |target| exceeds ``pair_cap``.
        TemplateError: ``template`` lacks a placeholder or repeats one.
    """
    cfg.validate()
    template = template or PromptTemplate()
    template.validate()
    total = len(source.texts) * len(target.texts)
    if total > pair_cap:
        raise PairCapExceeded(
            f"{len(source.texts)}x{len(target.texts)} = {total} pairs exceed the cap of {pair_cap}"
        )

    pairs = [(i, j) for i in range(len(source.texts)) for j in range(len(target.texts))]
    prompts = [build_prompt(source.prompts[i], target.prompts[j], (), template) for i, j in pairs]
    with ExitStack() as owned:
        if client is None:
            client = owned.enter_context(closing(make_llm_client(cfg, template)))
        decisions = _ask(prompts, "text", cfg, lambda batch: [
            Decision(read_answer(text), 0.5, fallback=True) for text in client.complete_many(batch)
        ], journal_path)
    return [
        Correspondence(source.iris[i], target.iris[j], "=", 1.0, "llm:pairwise")
        for (i, j), decision in zip(pairs, decisions) if decision.label == "yes"
    ]


# --------------------------------------------------------------------------
# Retrieve-then-generate alignment
# --------------------------------------------------------------------------


def align_rag(
    source: Ontology,
    target: Ontology,
    cfg: RAGConfig,
    *,
    view: EncodingView = EncodingView.C,
    client=None,
    provider=None,
) -> list[Correspondence]:
    """Retrieve candidate pairs, then keep those the model says yes to.

    Retrieval always runs over C-view texts; prompts render ``view``.
    Output is sorted by source concept, then descending confidence, then
    target IRI.  With ``cfg.journal_path`` a rerun reuses the decisions
    journaled for the same requests and asks the rest.
    """
    cfg.validate()
    exemplars = load_exemplars(cfg.exemplars_path) if cfg.exemplars_path else cfg.exemplars
    shots = exemplars[:cfg.shots] if cfg.shots else ()
    if cfg.shots and len(shots) < cfg.shots:
        raise ConfigError(f"{cfg.shots} shots requested but only {len(shots)} exemplars available")

    src_corpus = encode(source, EncodingView.C)
    tgt_corpus = encode(target, EncodingView.C)
    src_prompts, tgt_prompts = src_corpus.prompts, tgt_corpus.prompts
    if view is not EncodingView.C:
        src_prompts, tgt_prompts = encode(source, view).prompts, encode(target, view).prompts
    src_index = {iri: i for i, iri in enumerate(src_corpus.iris)}
    tgt_index = {iri: i for i, iri in enumerate(tgt_corpus.iris)}

    candidates = align_retrieval(src_corpus, tgt_corpus, cfg.retrieval, provider=provider)
    prompts = [build_prompt(src_prompts[src_index[c.source]], tgt_prompts[tgt_index[c.target]], shots, cfg.template)
               for c in candidates]

    with ExitStack() as owned:
        if client is None:  # even with nothing to ask: an LLM run names its endpoint
            client = owned.enter_context(closing(make_llm_client(cfg.llm, cfg.template)))
        decisions = _ask(prompts, "logprob", cfg.llm, client.decide_many, cfg.journal_path)

    provenance = "rag:fewshot" if cfg.shots else "rag"
    out = [
        Correspondence(c.source, c.target, "=", decision.confidence, provenance)
        for c, decision in zip(candidates, decisions)
        # A fallback's flat 0.5 is no confidence; its label decides.
        if ((decision.label == "yes") if decision.fallback else (decision.confidence >= cfg.llm_threshold))
    ]
    out.sort(key=lambda c: (src_index[c.source], -c.score, c.target))
    return out
