"""Completion-endpoint clients and yes/no decisions from token logprobs.

The HTTP client speaks a plain completions protocol: a JSON POST with
``model``, ``prompt``, ``max_tokens``, ``temperature``, and ``logprobs``,
answered with ``choices[0].text`` and, when the provider supports it,
``choices[0].logprobs.top_logprobs[0]`` as a token -> logprob map.

Binary decisions read the first generated position's top candidates, match
them case-insensitively against the two options, and renormalize so the
confidence is the probability of the yes option.  Providers without
logprobs fall back to plain completion plus label mapping at a flat 0.5
confidence, marked on the decision.

The mock client is a pure function of its inputs: confidence comes from an
explicit rule table, or else from the fuzzy ratio of the concept labels.
Tests pass the label pair through ``meta`` so prompts never get parsed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError, LogprobsUnsupported, ProviderError
from .fuzzy import fuzzy_ratio
from .postprocess import LabelMapper, LabelMapperConfig
from .transport import connection_pool, post_json

_TOP_LOGPROBS = 20
# Confidence for a pair the rule table does not list.
MOCK_DEFAULT_CONFIDENCE = 0.2


@dataclass(frozen=True)
class LLMConfig:
    """Settings for an LLM endpoint.

    Attributes:
        endpoint: completion URL; the "mock:" scheme selects the offline
            mock client.
        model_id: model name sent with each request.
        max_new_tokens: completion length cap.
        temperature: sampling temperature (0 keeps providers greedy).
        request_timeout: per-request timeout in seconds.
        batch_size: bound on concurrent in-flight requests.
    """

    endpoint: str = "mock:"
    model_id: str = "default"
    max_new_tokens: int = 10
    temperature: float = 0.0
    request_timeout: float = 30.0
    batch_size: int = 64

    def validate(self) -> None:
        if not self.endpoint:
            raise ConfigError("llm endpoint must not be empty")
        if self.max_new_tokens < 1:
            raise ConfigError(f"max_new_tokens must be positive, got {self.max_new_tokens}")
        if self.batch_size < 1:
            raise ConfigError(f"llm batch_size must be positive, got {self.batch_size}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not (math.isfinite(self.request_timeout) and self.request_timeout > 0):
            raise ConfigError(f"request_timeout must be finite and positive, got {self.request_timeout}")


@dataclass(frozen=True)
class Decision:
    """A yes/no judgement with the probability of yes.

    ``label`` is not required to be the 0.5-thresholded confidence;
    downstream stages threshold the confidence themselves.  ``fallback``
    marks decisions that came from the text-completion path because the
    provider reported no logprobs.
    """

    label: str
    confidence: float
    fallback: bool = False


class HttpLLMClient:
    """Client for a completions endpoint with bounded request concurrency.

    The client owns one keep-alive pool of ``batch_size`` connections, shared
    by its worker threads; :meth:`close` releases them.
    """

    def __init__(self, cfg: LLMConfig):
        cfg.validate()
        self.cfg = cfg
        self._pool = connection_pool(cfg.endpoint, maxsize=cfg.batch_size)
        self._mapper_cache: dict[tuple[str, ...], LabelMapper] = {}

    def close(self) -> None:
        """Close the pooled connections."""
        self._pool.clear()

    # -- single-request operations ------------------------------------

    def complete(self, prompt: str) -> str:
        """Generate a completion for one prompt."""
        text, _ = self._request(prompt, want_logprobs=False)
        return text

    def binary_decision(
        self,
        prompt: str,
        options: Sequence[str] = ("yes", "no"),
        meta: tuple[str, str] | None = None,
    ) -> Decision:
        """Decide between two options from first-token probabilities.

        ``options[0]`` plays the yes role; the confidence is its
        renormalized probability mass.  Swapping the options maps a
        confidence c to 1 - c.
        """
        if len(options) != 2:
            raise ConfigError(f"binary_decision needs exactly 2 options, got {len(options)}")
        text, top_logprobs = self._request(prompt, want_logprobs=True)
        try:
            yes_mass, no_mass = self._option_masses(top_logprobs, options)
        except LogprobsUnsupported:
            return self._fallback_decision(text, options)
        confidence = yes_mass / (yes_mass + no_mass)
        label = "yes" if confidence >= 0.5 else "no"
        return Decision(label=label, confidence=confidence)

    # -- batched operations ---------------------------------------------

    def complete_many(self, prompts: Sequence[str]) -> list[str]:
        """Complete prompts with at most ``batch_size`` requests in flight."""
        return self._pooled(self.complete, prompts)

    def decide_many(
        self,
        items: Sequence[tuple[str, tuple[str, str] | None]],
        options: Sequence[str] = ("yes", "no"),
    ) -> list[Decision]:
        """Binary-decide (prompt, meta) items, preserving input order."""
        return self._pooled(lambda item: self.binary_decision(item[0], options, item[1]), items)

    def _pooled(self, fn, items: Sequence) -> list:
        if not items:
            return []
        workers = min(self.cfg.batch_size, len(items))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    # -- internals -----------------------------------------------------

    def _request(self, prompt: str, want_logprobs: bool) -> tuple[str, dict[str, float] | None]:
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
        except (KeyError, IndexError, TypeError):
            raise ProviderError(200, "completion response lacks choices[0]") from None
        top = None
        if want_logprobs:
            logprobs = choice.get("logprobs") or {}
            positions = logprobs.get("top_logprobs") or []
            if positions and isinstance(positions[0], dict) and positions[0]:
                top = positions[0]
        return text, top

    @staticmethod
    def _option_masses(top_logprobs: dict[str, float] | None, options: Sequence[str]) -> tuple[float, float]:
        if not top_logprobs:
            raise LogprobsUnsupported("provider reported no token logprobs")
        masses = [0.0, 0.0]
        folded = [opt.strip().casefold() for opt in options]
        for token, logprob in top_logprobs.items():
            candidate = token.strip().casefold()
            if not candidate:
                continue
            for i, option in enumerate(folded):
                if candidate == option or option.startswith(candidate):
                    masses[i] += math.exp(logprob)
        if masses[0] + masses[1] == 0.0:
            raise LogprobsUnsupported("no top candidate matches either option")
        return masses[0], masses[1]

    def _fallback_decision(self, text: str, options: Sequence[str]) -> Decision:
        key = tuple(options)
        mapper = self._mapper_cache.get(key)
        if mapper is None:
            mapper = LabelMapper(LabelMapperConfig(labels=key))
            self._mapper_cache[key] = mapper
        label, _ = mapper.map(text)
        role = "yes" if label == options[0] else "no"
        return Decision(label=role, confidence=0.5, fallback=True)


class MockLLMClient:
    """Offline stand-in with the same surface as :class:`HttpLLMClient`.

    Decisions are a pure function of the (source, target) label pair: the
    rule table wins when it lists the pair, a missing pair falls back to
    ``default_confidence``, and with no table at all the confidence is the
    fuzzy ratio of the two labels.  Completions come from the canned
    prompt -> text map.
    """

    def __init__(
        self,
        rules: dict[tuple[str, str], float] | None = None,
        default_confidence: float = MOCK_DEFAULT_CONFIDENCE,
        canned: dict[str, str] | None = None,
        default_completion: str = "no",
    ):
        self.rules = rules
        self.default_confidence = default_confidence
        self.canned = canned or {}
        self.default_completion = default_completion
        self.call_count = 0

    def close(self) -> None:
        """Nothing to release; here for the :class:`HttpLLMClient` surface."""

    def complete(self, prompt: str) -> str:
        self.call_count += 1
        return self.canned.get(prompt, self.default_completion)

    def binary_decision(
        self,
        prompt: str,
        options: Sequence[str] = ("yes", "no"),
        meta: tuple[str, str] | None = None,
    ) -> Decision:
        self.call_count += 1
        if meta is None:
            raise ConfigError("the mock llm needs (source, target) labels in meta")
        source, target = meta
        if self.rules is not None:
            confidence = self.rules.get((source, target), self.default_confidence)
        else:
            confidence = fuzzy_ratio(source, target)
        label = "yes" if confidence >= 0.5 else "no"
        return Decision(label=label, confidence=confidence)

    def complete_many(self, prompts: Sequence[str]) -> list[str]:
        return [self.complete(p) for p in prompts]

    def decide_many(
        self,
        items: Sequence[tuple[str, tuple[str, str] | None]],
        options: Sequence[str] = ("yes", "no"),
    ) -> list[Decision]:
        return [self.binary_decision(prompt, options, meta) for prompt, meta in items]


def make_llm_client(cfg: LLMConfig) -> HttpLLMClient | MockLLMClient:
    """Build the client named by ``cfg.endpoint`` ("mock:" or an URL)."""
    cfg.validate()
    if cfg.endpoint.startswith("mock:"):
        return MockLLMClient()
    return HttpLLMClient(cfg)
