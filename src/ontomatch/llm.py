"""Completion-endpoint clients and yes/no decisions from token logprobs.

The HTTP client speaks a plain completions protocol: a JSON POST with
``model``, ``prompt``, ``max_tokens``, ``temperature``, and ``logprobs``
(sent on every request), answered with ``choices[0].text`` and, when the
provider supports it, ``choices[0].logprobs.top_logprobs[0]`` as a
token -> logprob map.

Binary decisions read the first generated position's top candidates, match
them case-insensitively against "yes" and "no", and renormalize so the
confidence is the probability of "yes".  Providers without logprobs fall
back to plain completion plus label mapping at a flat 0.5 confidence,
marked on the decision.

The mock client is a pure function of its inputs: confidence comes from an
explicit rule table, or else from the fuzzy ratio of the concept labels.
Tests pass the label pair through ``meta`` so prompts never get parsed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, LogprobsUnsupported, ProviderError
from .fuzzy import fuzzy_ratio
from .postprocess import LabelMapper, LabelMapperConfig
from .transport import connection_pool, post_json

_TOP_LOGPROBS = 20
_OPTIONS = ("yes", "no")
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
        self._mapper = LabelMapper(LabelMapperConfig(labels=_OPTIONS))

    def close(self) -> None:
        """Close the pooled connections."""
        self._pool.clear()

    # -- single-request operations ------------------------------------

    def complete(self, prompt: str) -> str:
        """Generate a completion for one prompt."""
        text, _ = self._request(prompt)
        return text

    def binary_decision(self, prompt: str, meta: tuple[str, str] | None = None) -> Decision:
        """Decide yes or no from first-token probabilities.

        The confidence is the renormalized probability mass of "yes".
        """
        text, top_logprobs = self._request(prompt)
        try:
            yes_mass, no_mass = self._option_masses(top_logprobs)
        except LogprobsUnsupported:
            label, _ = self._mapper.map(text)
            return Decision(label=label, confidence=0.5, fallback=True)
        confidence = yes_mass / (yes_mass + no_mass)
        label = "yes" if confidence >= 0.5 else "no"
        return Decision(label=label, confidence=confidence)

    # -- batched operations ---------------------------------------------

    def complete_many(self, prompts: Sequence[str]) -> list[str]:
        """Complete prompts with at most ``batch_size`` requests in flight."""
        return self._pooled(self.complete, prompts)

    def decide_many(self, items: Sequence[tuple[str, tuple[str, str] | None]]) -> list[Decision]:
        """Binary-decide (prompt, meta) items, preserving input order."""
        return self._pooled(lambda item: self.binary_decision(*item), items)

    def _pooled(self, fn, items: Sequence) -> list:
        if not items:
            return []
        workers = min(self.cfg.batch_size, len(items))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

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
        logprobs = choice.get("logprobs")
        positions = logprobs.get("top_logprobs") if isinstance(logprobs, dict) else None
        top = None
        if isinstance(positions, list) and positions and isinstance(positions[0], dict):
            top = positions[0]
        return text, top

    @staticmethod
    def _option_masses(top_logprobs: dict[str, float] | None) -> tuple[float, float]:
        if not top_logprobs:
            raise LogprobsUnsupported("provider reported no token logprobs")
        masses = [0.0, 0.0]
        for token, logprob in top_logprobs.items():
            candidate = token.strip().casefold()
            if not candidate:
                continue
            for i, option in enumerate(_OPTIONS):
                if candidate == option or option.startswith(candidate):
                    masses[i] += math.exp(logprob)
        if masses[0] + masses[1] == 0.0:
            raise LogprobsUnsupported("no top candidate matches either option")
        return masses[0], masses[1]


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

    def binary_decision(self, prompt: str, meta: tuple[str, str] | None = None) -> Decision:
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

    def decide_many(self, items: Sequence[tuple[str, tuple[str, str] | None]]) -> list[Decision]:
        return [self.binary_decision(prompt, meta) for prompt, meta in items]


def make_llm_client(cfg: LLMConfig) -> HttpLLMClient | MockLLMClient:
    """Build the client named by ``cfg.endpoint`` ("mock:" or an URL)."""
    cfg.validate()
    if cfg.endpoint.startswith("mock:"):
        return MockLLMClient()
    return HttpLLMClient(cfg)
