"""Completion clients: logprob decisions, fallbacks, batching, and the mock."""

from __future__ import annotations

import functools
import math
import random
import time

import pytest
import urllib3

import ontomatch.llm as llm_module
import ontomatch.transport as transport
from ontomatch.errors import ConfigError, EndpointUnreachable, ProviderError, TemplateError
from ontomatch.fuzzy import fuzzy_ratio
from ontomatch.llm import (
    Decision,
    HttpLLMClient,
    LLMConfig,
    MockLLMClient,
    make_llm_client,
    read_answer,
)
from ontomatch.rag import DEFAULT_EXEMPLARS, PromptTemplate, build_prompt


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


def test_neither_answer_falls_back_to_no(http_server):
    http_server.app = completion_app("Maybe.")
    decision = client_for(http_server).binary_decision("prompt")
    assert decision == Decision(label="no", confidence=0.5, fallback=True)


@pytest.mark.parametrize(
    "top_logprobs",
    [
        {" yes": None, " no": math.log(0.2)},
        {" yes": "-0.1", " no": math.log(0.2)},
        {" yes": True, " no": math.log(0.2)},
        {" yes": 1000.0, " no": math.log(0.2)},
        {" yes": 0.5, " no": math.log(0.2)},
        {" yes": math.nan, " no": math.log(0.2)},
        {" yes": math.inf, " no": math.log(0.2)},
        {" yes": math.log(0.9), " the": None},
    ],
    ids=["null", "string", "bool", "overflow", "positive", "nan", "infinity", "off-option-null"],
)
def test_logprob_that_is_not_a_log_probability_falls_back_to_text(http_server, top_logprobs):
    # One bad value anywhere in the map means the provider sent no usable logprobs.
    http_server.app = completion_app("Yes.", top_logprobs)
    decision = client_for(http_server).binary_decision("prompt")
    assert decision == Decision(label="yes", confidence=0.5, fallback=True)


def test_zero_logprob_is_a_certain_answer_not_a_fallback(http_server):
    # greedy decoding reports a certain token as logprob 0.0, probability 1
    http_server.app = completion_app("yes", {" yes": 0.0, " no": math.log(0.25)})
    decision = client_for(http_server).binary_decision("prompt")
    assert decision == Decision(label="yes", confidence=0.8)


def test_even_masses_decide_yes(http_server):
    http_server.app = completion_app("no", {" yes": -1.0, " no": -1.0})
    decision = client_for(http_server).binary_decision("prompt")
    assert decision == Decision(label="yes", confidence=0.5)


def test_negative_infinity_logprob_is_zero_mass(http_server):
    http_server.app = completion_app("no", {" yes": -math.inf, " no": math.log(0.2)})
    decision = client_for(http_server).binary_decision("prompt")
    assert decision == Decision(label="no", confidence=0.0)


# -- reading a generated answer ------------------------------------------------


def test_read_answer_finds_yes_in_a_sentence():
    assert read_answer("Yes, these are the same.") == "yes"


def test_read_answer_exact_label_text():
    assert read_answer("no") == "no"


def test_read_answer_matches_inside_longer_words():
    # any occurrence counts, as the substring rule says
    assert read_answer("nothing matches") == "no"
    assert read_answer("EYESORE") == "yes"


def test_read_answer_without_yes_is_no():
    assert read_answer("zzz qqq") == "no"
    assert read_answer("") == "no"
    assert read_answer("Maybe.") == "no"


def test_read_answer_is_total_over_arbitrary_text():
    rng = random.Random(32)
    alphabet = "abcdefghij "
    for _ in range(100):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        assert read_answer(text) in ("yes", "no")


# -- plain completion and the wire format -----------------------------------


def test_complete_returns_choice_text_and_sends_settings(http_server):
    http_server.app = completion_app("generated words")
    client = client_for(http_server, model_id="m-7", max_new_tokens=4, temperature=0.5)
    assert client.complete_many(["the prompt"])[0] == "generated words"
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


@pytest.mark.parametrize("text", [None, 7, ["yes"]])
@pytest.mark.parametrize("logprobs", [None, {"top_logprobs": [{" yes": -0.1}]}])
def test_completion_text_that_is_not_a_string_is_a_provider_error(http_server, text, logprobs):
    choice = {"text": text} if logprobs is None else {"text": text, "logprobs": logprobs}
    http_server.app = lambda path, payload: (200, {"choices": [choice]})
    client = client_for(http_server)
    with pytest.raises(ProviderError, match="not a string"):
        client.binary_decision("prompt")
    with pytest.raises(ProviderError, match="not a string"):
        client.complete_many(["prompt"])[0]


def test_malformed_logprobs_fall_back_to_text(http_server):
    http_server.app = lambda path, payload: (200, {"choices": [{"text": "yes", "logprobs": [0.5]}]})
    client = client_for(http_server)
    assert client.complete_many(["prompt"])[0] == "yes"
    assert client.binary_decision("prompt") == Decision(label="yes", confidence=0.5, fallback=True)


def test_missing_choices_is_a_provider_error(http_server):
    http_server.app = lambda path, payload: (200, {"choices": []})
    with pytest.raises(ProviderError):
        client_for(http_server).complete_many(["prompt"])[0]


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
        client.complete_many(["prompt"])[0]
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
    decisions = client.decide_many(["a!", "b", "c!"])
    assert [d.label for d in decisions] == ["yes", "no", "yes"]
    assert client.decide_many([]) == []


def test_client_reuses_at_most_batch_size_connections(keepalive_server):
    keepalive_server.app = completion_app("yes", {" yes": math.log(0.9)})
    client = client_for(keepalive_server, batch_size=3)
    for call in range(4):
        decisions = client.decide_many([f"p{call}.{i}" for i in range(3)])
        assert [d.label for d in decisions] == ["yes"] * 3
    client.close()
    assert len(keepalive_server.requests) == 12
    assert 1 <= keepalive_server.connections <= 3


def test_client_builds_one_thread_pool_for_its_life(http_server, monkeypatch):
    built = []

    class CountingPool(llm_module.ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(llm_module, "ThreadPoolExecutor", CountingPool)
    http_server.app = completion_app("yes", {" yes": math.log(0.9)})
    client = client_for(http_server, batch_size=2)
    for call in range(2):
        assert [d.label for d in client.decide_many([f"p{call}.{i}" for i in range(3)])] == ["yes"] * 3
    assert client.complete_many(["p"]) == ["yes"]
    assert built == [2]
    client.close()
    with pytest.raises(RuntimeError):
        client.decide_many(["p"])


# -- the offline mock ---------------------------------------------------------


def test_mock_scores_the_texts_of_the_query_block_by_similarity():
    client = MockLLMClient(PromptTemplate())
    same = client.binary_decision(build_prompt("copper", "copper", DEFAULT_EXEMPLARS))
    assert same == Decision(label="yes", confidence=1.0)
    different = client.binary_decision(build_prompt("copper", "iron"))
    assert different.confidence == pytest.approx(0.2)
    assert different.label == "no"


def test_mock_confidence_of_one_half_is_yes():
    assert fuzzy_ratio("ab", "cb") == 0.5
    assert MockLLMClient(PromptTemplate()).binary_decision(build_prompt("ab", "cb")) == Decision(
        label="yes", confidence=0.5
    )


def test_mock_reads_the_rendered_view_not_just_the_labels():
    client = MockLLMClient(PromptTemplate())
    bare = client.binary_decision(build_prompt("alloy", "alloy"))
    with_context = client.binary_decision(build_prompt("alloy, children: steel", "alloy, parents: metal"))
    assert bare.confidence == 1.0
    assert with_context.confidence == fuzzy_ratio("alloy, children: steel", "alloy, parents: metal") < 1.0


def test_mock_reads_a_custom_template_with_the_target_first():
    template = PromptTemplate(preamble="Same?", query_block="{tgt} <= {src} ? ", shot_block="{src}|{tgt}|{answer};")
    prompt = build_prompt("copper", "iron", DEFAULT_EXEMPLARS, template)
    assert template.query_texts(prompt) == ("copper", "iron")
    assert MockLLMClient(template).binary_decision(prompt).confidence == pytest.approx(0.2)


def test_mock_refuses_a_prompt_it_cannot_read():
    with pytest.raises(TemplateError, match="does not end"):
        MockLLMClient(PromptTemplate(query_block="Q: {src} vs {tgt} -> ")).binary_decision(build_prompt("a", "b"))
    adjacent = PromptTemplate(query_block="{src}{tgt}")
    with pytest.raises(TemplateError, match="between"):
        MockLLMClient(adjacent).binary_decision(build_prompt("a", "b", (), adjacent))


def test_mock_completions_are_its_decisions_labels():
    client = MockLLMClient(PromptTemplate())
    prompts = [build_prompt(s, t) for s, t in [("a", "b"), ("a", "a"), ("copper", "copper"), ("copper", "iron")]]
    assert client.complete_many(prompts) == [d.label for d in client.decide_many(prompts)]
    assert client.complete_many(prompts) == ["no", "yes", "yes", "no"]


def test_mock_decide_many_matches_singles():
    client = MockLLMClient(PromptTemplate())
    prompts = [build_prompt("ab", "cb"), build_prompt("copper", "iron")]
    assert client.decide_many(prompts) == [client.binary_decision(p) for p in prompts]


# -- factory and config --------------------------------------------------------


def test_factory_picks_client_by_endpoint_scheme():
    template = PromptTemplate()
    mock = make_llm_client(LLMConfig(endpoint="mock:"), template)
    assert isinstance(mock, MockLLMClient) and mock.template is template
    assert isinstance(make_llm_client(LLMConfig(endpoint="mock:?dim=8&seed=3"), template), MockLLMClient)
    assert isinstance(make_llm_client(LLMConfig(endpoint="http://h/v1"), template), HttpLLMClient)


def test_a_client_needs_an_endpoint():
    assert LLMConfig().endpoint is None
    LLMConfig().validate()  # an aligner without LLM calls runs with no endpoint
    for build in (functools.partial(make_llm_client, template=PromptTemplate()), HttpLLMClient):
        with pytest.raises(ConfigError, match="rag.llm.endpoint.*--endpoint"):
            build(LLMConfig())


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
        {"endpoint": "mock:?dim=x"},
        {"endpoint": "mock:?dims=8"},
        {"endpoint": "mock:?seed=1&seed=2"},
        {"endpoint": "mock:dim=8"},
    ],
)
def test_llm_config_validation(kwargs):
    with pytest.raises(ConfigError):
        LLMConfig(**kwargs).validate()


def test_llm_config_accepts_a_batch_of_one():
    LLMConfig(batch_size=1).validate()
