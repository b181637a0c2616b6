"""Completion clients: logprob decisions, fallbacks, batching, and the mock."""

from __future__ import annotations

import functools
import math
import time

import pytest
import urllib3

import ontomatch.llm as llm_module
import ontomatch.transport as transport
from ontomatch.errors import ConfigError, EndpointUnreachable, ProviderError
from ontomatch.llm import (
    MOCK_DEFAULT_CONFIDENCE,
    Decision,
    HttpLLMClient,
    LLMConfig,
    MockLLMClient,
    make_llm_client,
)


def completion_app(text="ok", top_logprobs=None):
    """Server app answering every prompt with fixed text/logprobs."""

    def app(path, payload):
        choice = {"text": text}
        if top_logprobs is not None:
            choice["logprobs"] = {"top_logprobs": [top_logprobs]}
        return 200, {"choices": [choice]}

    return app


def client_for(server, **overrides) -> HttpLLMClient:
    return HttpLLMClient(LLMConfig(endpoint=server.url, **overrides))


# -- binary decisions from logprobs ---------------------------------------


def test_confidence_renormalizes_matched_masses(http_server):
    http_server.app = completion_app(
        "yes", {" yes": math.log(0.6), " No": math.log(0.2), " the": math.log(0.1)}
    )
    decision = client_for(http_server).binary_decision("prompt")
    assert decision.confidence == pytest.approx(0.75)
    assert decision.label == "yes"
    assert decision.fallback is False


def test_prefix_tokens_count_toward_their_option(http_server):
    http_server.app = completion_app(
        "y", {" Y": math.log(0.4), " no": math.log(0.1)}
    )
    decision = client_for(http_server).binary_decision("prompt")
    assert decision.confidence == pytest.approx(0.8)


def test_token_variants_of_one_option_accumulate(http_server):
    http_server.app = completion_app(
        "yes",
        {"yes": math.log(0.3), " Yes": math.log(0.3), " no": math.log(0.2), " ": math.log(0.1)},
    )
    decision = client_for(http_server).binary_decision("prompt")
    assert decision.confidence == pytest.approx(0.75)


def test_missing_logprobs_falls_back_to_text(http_server):
    http_server.app = completion_app("Yes, definitely equivalent.")
    decision = client_for(http_server).binary_decision("prompt")
    assert decision == Decision(label="yes", confidence=0.5, fallback=True)


def test_unmatched_logprobs_fall_back_to_text(http_server):
    http_server.app = completion_app("no match here", {" maybe": math.log(0.5)})
    decision = client_for(http_server).binary_decision("prompt")
    assert decision.fallback is True
    assert decision.label == "no"
    assert decision.confidence == 0.5


# -- plain completion and the wire format -----------------------------------


def test_complete_returns_choice_text_and_sends_settings(http_server):
    http_server.app = completion_app("generated words")
    client = client_for(http_server, model_id="m-7", max_new_tokens=4, temperature=0.5)
    assert client.complete("the prompt") == "generated words"
    payload = http_server.requests[0]["payload"]
    assert payload == {
        "model": "m-7",
        "prompt": "the prompt",
        "max_tokens": 4,
        "temperature": 0.5,
        "logprobs": 20,
    }


def test_non_object_choice_is_a_provider_error(http_server):
    http_server.app = lambda path, payload: (200, {"choices": ["text"]})
    with pytest.raises(ProviderError):
        client_for(http_server).binary_decision("prompt")


def test_malformed_logprobs_fall_back_to_text(http_server):
    http_server.app = lambda path, payload: (200, {"choices": [{"text": "yes", "logprobs": [0.5]}]})
    client = client_for(http_server)
    assert client.complete("prompt") == "yes"
    assert client.binary_decision("prompt") == Decision(label="yes", confidence=0.5, fallback=True)


def test_missing_choices_is_a_provider_error(http_server):
    http_server.app = lambda path, payload: (200, {"choices": []})
    with pytest.raises(ProviderError):
        client_for(http_server).complete("prompt")


def test_http_error_carries_body_excerpt(http_server):
    http_server.app = lambda path, payload: (400, {"error": "prompt too long"})
    with pytest.raises(ProviderError) as excinfo:
        client_for(http_server).binary_decision("prompt")
    assert excinfo.value.status == 400
    assert "prompt too long" in excinfo.value.body_excerpt


def test_unreachable_endpoint_raises_after_retries(monkeypatch):
    calls = {"n": 0}

    def refuse(pool, method, url, **kwargs):
        calls["n"] += 1
        raise urllib3.exceptions.ProtocolError("refused")

    monkeypatch.setattr(urllib3.PoolManager, "request", refuse)
    monkeypatch.setattr(
        llm_module, "post_json",
        functools.partial(transport.post_json, sleep=lambda _: None),
    )
    client = HttpLLMClient(LLMConfig(endpoint="http://127.0.0.1:1/v1"))
    with pytest.raises(EndpointUnreachable):
        client.complete("prompt")
    assert calls["n"] == 3


# -- batching ----------------------------------------------------------------


def test_batched_completion_preserves_order_and_bounds_concurrency(http_server):
    def app(path, payload):
        time.sleep(0.02)
        return 200, {"choices": [{"text": f"echo:{payload['prompt']}"}]}

    http_server.app = app
    client = client_for(http_server, batch_size=3)
    prompts = [f"p{i}" for i in range(12)]
    assert client.complete_many(prompts) == [f"echo:{p}" for p in prompts]
    assert len(http_server.requests) == 12
    assert 1 <= http_server.max_active <= 3


def test_decide_many_preserves_order(http_server):
    def app(path, payload):
        yes = payload["prompt"].endswith("!")
        mass = {" yes": math.log(0.9)} if yes else {" no": math.log(0.9)}
        return 200, {"choices": [{"text": "x", "logprobs": {"top_logprobs": [mass]}}]}

    http_server.app = app
    client = client_for(http_server, batch_size=4)
    decisions = client.decide_many([("a!", None), ("b", None), ("c!", None)])
    assert [d.label for d in decisions] == ["yes", "no", "yes"]
    assert client.decide_many([]) == []


def test_client_reuses_at_most_batch_size_connections(keepalive_server):
    keepalive_server.app = completion_app("yes", {" yes": math.log(0.9)})
    client = client_for(keepalive_server, batch_size=3)
    for call in range(4):
        decisions = client.decide_many([(f"p{call}.{i}", None) for i in range(3)])
        assert [d.label for d in decisions] == ["yes"] * 3
    client.close()
    assert len(keepalive_server.requests) == 12
    assert 1 <= keepalive_server.connections <= 3


# -- the offline mock ---------------------------------------------------------


def test_mock_rule_table_wins_then_default():
    client = MockLLMClient(rules={("alloy", "metal alloy"): 0.95})
    hit = client.binary_decision("p", meta=("alloy", "metal alloy"))
    miss = client.binary_decision("p", meta=("alloy", "quartz"))
    assert hit == Decision(label="yes", confidence=0.95)
    assert miss.confidence == MOCK_DEFAULT_CONFIDENCE == 0.2
    assert miss.label == "no"
    assert client.call_count == 2


def test_mock_without_rules_scores_by_label_similarity():
    client = MockLLMClient()
    same = client.binary_decision("p", meta=("copper", "copper"))
    assert same == Decision(label="yes", confidence=1.0)
    different = client.binary_decision("p", meta=("copper", "iron"))
    assert different.confidence == pytest.approx(0.2)
    assert different.label == "no"


def test_mock_requires_label_meta():
    with pytest.raises(ConfigError):
        MockLLMClient().binary_decision("p", meta=None)


def test_mock_canned_completions():
    client = MockLLMClient(canned={"known prompt": "yes"})
    assert client.complete("known prompt") == "yes"
    assert client.complete("other") == "no"
    assert client.complete_many(["known prompt", "other"]) == ["yes", "no"]
    assert client.call_count == 4


def test_mock_decide_many_matches_singles():
    client = MockLLMClient(rules={("a", "b"): 0.7})
    out = client.decide_many([("p1", ("a", "b")), ("p2", ("a", "c"))])
    assert [d.confidence for d in out] == [0.7, 0.2]


# -- factory and config --------------------------------------------------------


def test_factory_picks_client_by_endpoint_scheme():
    assert isinstance(make_llm_client(LLMConfig(endpoint="mock:")), MockLLMClient)
    assert isinstance(make_llm_client(LLMConfig(endpoint="http://h/v1")), HttpLLMClient)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"endpoint": ""},
        {"max_new_tokens": 0},
        {"batch_size": 0},
        {"temperature": -0.1},
        {"temperature": math.nan},
        {"temperature": math.inf},
        {"request_timeout": 0.0},
        {"request_timeout": -1.0},
        {"request_timeout": math.nan},
        {"request_timeout": math.inf},
    ],
)
def test_llm_config_validation(kwargs):
    with pytest.raises(ConfigError):
        LLMConfig(**kwargs).validate()
