"""Completion-endpoint clients and yes/no decisions from token logprobs.

The HTTP client speaks a plain completions protocol: a JSON POST with
``model``, ``prompt``, ``max_tokens``, ``temperature``, and ``logprobs``
(sent on every request), answered with ``choices[0].text`` and, when the
provider supports it, ``choices[0].logprobs.top_logprobs[0]`` as a
token -> logprob map.  A ``text`` that is present but not a string (null,
a number) is a :class:`~ontomatch.errors.ProviderError`.

Binary decisions read the first generated position's top candidates, match
them case-insensitively against "yes" and "no", and renormalize so the
confidence is the probability of "yes".  When the provider sends no usable
logprobs (none, none for either option, or a value that is not a
log-probability), the decision falls back to the completion text at a flat
0.5 confidence, marked on the decision, and :func:`read_answer` labels it:
"yes" if the case-folded text contains "yes", else "no".

The endpoint has no default: a URL, or ``mock:`` for the offline mock, a
pure function of the prompt.  Both clients take plain prompt strings, which
is exactly what HTTP sends.  The mock is built with the run's
:class:`~ontomatch.rag.PromptTemplate` and reads the two texts back out of
the query block that ends each prompt: its confidence is their fuzzy ratio,
and its completion is that decision's label.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigError, ProviderError, check_count, check_finite
from .fuzzy import fuzzy_ratio
from .transport import connection_pool, mock_query, post_json

if TYPE_CHECKING:  # rag imports this module
    from .rag import PromptTemplate

_TOP_LOGPROBS = 20
_OPTIONS = ("yes", "no")


def read_answer(text: str) -> str:
    """Read a generated answer: "yes" if its case-folded text contains "yes", else "no"."""
    return "yes" if "yes" in text.casefold() else "no"


@dataclass(frozen=True)
class LLMConfig:
    """Settings for an LLM endpoint.

    Attributes:
        endpoint: completion URL, or "mock:" for the offline mock client;
            no default, so an LLM run names one.
        model_id: model name sent with each request.
        max_new_tokens: completion length cap.
        temperature: sampling temperature (0 keeps providers greedy).
        request_timeout: per-request timeout in seconds.
        batch_size: bound on concurrent in-flight requests, and the
            number of prompts an LLM run asks, and journals, per chunk.
            The next chunk is asked while the current one finishes, through
            the same ``batch_size`` worker threads.
    """

    endpoint: str | None = None
    model_id: str = "default"
    max_new_tokens: int = 10
    temperature: float = 0.0
    request_timeout: float = 30.0
    batch_size: int = 64

    def validate(self) -> None:
        if self.endpoint == "":
            raise ConfigError("llm endpoint must not be empty")
        mock_query(self.endpoint)
        check_count("max_new_tokens", self.max_new_tokens)
        check_count("llm batch_size", self.batch_size)
        check_finite("temperature", self.temperature, positive=False)
        check_finite("request_timeout", self.request_timeout, positive=True)


@dataclass(frozen=True)
class Decision:
    """A yes/no judgement with the probability of yes.

    ``label`` is not required to be the 0.5-thresholded confidence;
    downstream stages threshold the confidence themselves.  ``fallback``
    marks decisions that came from the completion text because the
    provider sent no usable logprobs; their confidence is a flat 0.5 and
    their label is :func:`read_answer` of the text, so downstream stages
    accept them by the label instead.
    """

    label: str
    confidence: float
    fallback: bool = False


class HttpLLMClient:
    """Client for a completions endpoint with bounded request concurrency.

    For its whole life the client owns ``batch_size`` worker threads and one
    keep-alive pool of as many connections, shared by those threads;
    :meth:`close` stops the threads and releases the connections, after which
    a batched call with any items raises ``RuntimeError``.
    """

    def __init__(self, cfg: LLMConfig):
        cfg.validate()
        if cfg.endpoint is None:
            raise ConfigError("no LLM endpoint: set rag.llm.endpoint or pass --endpoint (a URL, or mock:)")
        self.cfg = cfg
        self._pool = connection_pool(cfg.endpoint, maxsize=cfg.batch_size)
        self._threads = ThreadPoolExecutor(max_workers=cfg.batch_size)

    def close(self) -> None:
        """Stop the worker threads, then close the pooled connections."""
        self._threads.shutdown(cancel_futures=True)
        self._pool.clear()

    def binary_decision(self, prompt: str) -> Decision:
        """Decide yes or no from first-token probabilities.

        The confidence is the renormalized probability mass of "yes".
        """
        text, top_logprobs = self._request(prompt)
        confidence = self._yes_confidence(top_logprobs)
        if confidence is None:
            return Decision(label=read_answer(text), confidence=0.5, fallback=True)
        label = "yes" if confidence >= 0.5 else "no"
        return Decision(label=label, confidence=confidence)

    def complete_many(self, prompts: Sequence[str]) -> list[str]:
        """Complete prompts, preserving input order."""
        return [text for text, _ in self._threads.map(self._request, prompts)]

    def decide_many(self, prompts: Sequence[str]) -> list[Decision]:
        """Binary-decide prompts, preserving input order."""
        return list(self._threads.map(self.binary_decision, prompts))

    # -- internals -----------------------------------------------------

    def _request(self, prompt: str) -> tuple[str, dict[str, float] | None]:
        payload = {
            "model": self.cfg.model_id,
            "prompt": prompt,
            "max_tokens": self.cfg.max_new_tokens,
            "temperature": self.cfg.temperature,
            "logprobs": _TOP_LOGPROBS,
        }
        body = post_json(self.cfg.endpoint, payload, pool=self._pool, timeout=self.cfg.request_timeout)
        try:
            choice = body["choices"][0]
            text = choice.get("text", "")
        except (KeyError, IndexError, TypeError, AttributeError):
            raise ProviderError(200, "completion response lacks choices[0]") from None
        if not isinstance(text, str):
            raise ProviderError(200, f"completion text is {type(text).__name__}, not a string")
        logprobs = choice.get("logprobs")
        positions = logprobs.get("top_logprobs") if isinstance(logprobs, dict) else None
        top = None
        if isinstance(positions, list) and positions and isinstance(positions[0], dict):
            top = positions[0]
        return text, top

    @staticmethod
    def _yes_confidence(top_logprobs: dict[str, float] | None) -> float | None:
        """The renormalized "yes" mass, or None when the map cannot give one.

        None for an empty map, a map with no candidate for either option,
        or a map holding any value that is not a log-probability: not a
        number, a bool, NaN, or above 0.  A ``-inf`` logprob is mass 0.
        """
        if not top_logprobs:
            return None
        masses = [0.0, 0.0]
        for token, logprob in top_logprobs.items():
            if type(logprob) not in (int, float) or not logprob <= 0.0:
                return None
            candidate = token.strip().casefold()
            if not candidate:
                continue
            for i, option in enumerate(_OPTIONS):
                if candidate == option or option.startswith(candidate):
                    masses[i] += math.exp(logprob)
        if masses[0] + masses[1] == 0.0:
            return None
        return masses[0] / (masses[0] + masses[1])


class MockLLMClient:
    """Offline stand-in with the same surface as :class:`HttpLLMClient`.

    A decision is a pure function of the prompt: the confidence is the fuzzy
    ratio of the two texts that ``template`` reads back from the prompt's
    query block (:meth:`~ontomatch.rag.PromptTemplate.query_texts`), so the
    view a prompt renders counts.  A completion is the decision's label.
    """

    def __init__(self, template: PromptTemplate):
        self.template = template

    def close(self) -> None:
        """Nothing to release; here for the :class:`HttpLLMClient` surface."""

    def binary_decision(self, prompt: str) -> Decision:
        confidence = fuzzy_ratio(*self.template.query_texts(prompt))
        label = "yes" if confidence >= 0.5 else "no"
        return Decision(label=label, confidence=confidence)

    def complete_many(self, prompts: Sequence[str]) -> list[str]:
        return [decision.label for decision in self.decide_many(prompts)]

    def decide_many(self, prompts: Sequence[str]) -> list[Decision]:
        return [self.binary_decision(prompt) for prompt in prompts]


def make_llm_client(cfg: LLMConfig, template: PromptTemplate) -> HttpLLMClient | MockLLMClient:
    """Build the client named by ``cfg.endpoint``: a URL, or "mock:" for the
    stand-in that reads prompts rendered with ``template`` (it ignores the
    ``dim``/``seed`` query meant for the embedding mock)."""
    cfg.validate()
    if mock_query(cfg.endpoint) is not None:
        return MockLLMClient(template)
    return HttpLLMClient(cfg)
