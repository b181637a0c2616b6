"""HTTP POST helper: retries, backoff, auth, and error mapping."""

from __future__ import annotations

import json
import socket

import pytest
import urllib3

from ontomatch.errors import EndpointUnreachable, ProviderError
from ontomatch.transport import (
    API_KEY_ENV,
    MAX_RETRY_AFTER_S,
    auth_headers,
    connection_pool,
    post_json,
)


def dummy_response(status_code=200, body=None, text="not json", headers=None):
    data = text if body is None else json.dumps(body)
    return urllib3.HTTPResponse(body=data.encode("utf-8"), status=status_code, headers=headers)


def fake_pool(monkeypatch, request):
    """A real pool whose ``request`` method is ``request``."""
    pool = connection_pool("http://x/v1")
    monkeypatch.setattr(pool, "request", request)
    return pool


def test_retries_connection_errors_with_doubling_backoff(monkeypatch):
    calls = {"n": 0}

    def fake_request(method, url, **kwargs):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise urllib3.exceptions.ProtocolError("refused")
        return dummy_response(body={"ok": True})

    pool = fake_pool(monkeypatch, fake_request)
    slept: list[float] = []
    body = post_json("http://x/v1", {"a": 1}, pool=pool, retries=2, backoff=0.5, sleep=slept.append)
    assert body == {"ok": True}
    assert calls["n"] == 3
    assert slept == [0.5, 1.0]


def test_timeouts_retry_then_give_up(monkeypatch):
    def fake_request(method, url, **kwargs):
        raise urllib3.exceptions.ReadTimeoutError(None, url, "slow")

    pool = fake_pool(monkeypatch, fake_request)
    slept: list[float] = []
    with pytest.raises(EndpointUnreachable):
        post_json("http://x/v1", {}, pool=pool, retries=2, sleep=slept.append)
    assert slept == [0.5, 1.0]


def test_http_status_errors_do_not_retry(monkeypatch):
    calls = {"n": 0}

    def fake_request(method, url, **kwargs):
        calls["n"] += 1
        return dummy_response(status_code=401, body={"error": "bad key"})

    pool = fake_pool(monkeypatch, fake_request)
    with pytest.raises(ProviderError) as excinfo:
        post_json("http://x/v1", {}, pool=pool, sleep=lambda _: None)
    assert calls["n"] == 1
    assert excinfo.value.status == 401
    assert "bad key" in excinfo.value.body_excerpt


def test_non_json_success_body_is_a_provider_error(monkeypatch):
    pool = fake_pool(monkeypatch, lambda method, url, **kwargs: dummy_response(text="<html>"))
    with pytest.raises(ProviderError):
        post_json("http://x/v1", {}, pool=pool, sleep=lambda _: None)


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_a_json_success_body_that_is_not_an_object_is_a_provider_error(monkeypatch, text):
    pool = fake_pool(monkeypatch, lambda method, url, **kwargs: dummy_response(text=text))
    with pytest.raises(ProviderError, match="body is not a JSON object") as excinfo:
        post_json("http://x/v1", {}, pool=pool, sleep=lambda _: None)
    assert excinfo.value.status == 200


def test_auth_header_comes_from_environment(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    assert "Authorization" not in auth_headers()
    monkeypatch.setenv(API_KEY_ENV, "sk-test-123")
    assert auth_headers()["Authorization"] == "Bearer sk-test-123"


def test_post_json_sends_payload_and_auth(http_server, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-live")
    http_server.app = lambda path, payload: (200, {"echo": payload})
    body = post_json(http_server.url, {"model": "m", "input": ["x"]}, pool=connection_pool(http_server.url))
    assert body == {"echo": {"model": "m", "input": ["x"]}}
    assert http_server.requests[0]["auth"] == "Bearer sk-live"
    assert http_server.requests[0]["payload"] == {"model": "m", "input": ["x"]}


@pytest.mark.parametrize(
    "retry_after, slept_for",
    [
        ("2", [2.0]),
        ("0", [0.0]),
        ("3600", [MAX_RETRY_AFTER_S]),
        ("Wed, 21 Oct 2015 07:28:00 GMT", [0.5]),
        ("-1", [0.5]),
        (None, [0.5]),
    ],
)
def test_throttling_retries_after_the_requested_delay(monkeypatch, retry_after, slept_for):
    responses = [
        dummy_response(429, {"error": "slow down"}, headers={"Retry-After": retry_after} if retry_after else None),
        dummy_response(body={"ok": True}),
    ]
    pool = fake_pool(monkeypatch, lambda method, url, **kwargs: responses.pop(0))
    slept: list[float] = []
    assert post_json("http://x/v1", {}, pool=pool, sleep=slept.append) == {"ok": True}
    assert slept == slept_for


def test_unavailable_until_retries_run_out_is_a_provider_error(monkeypatch):
    calls = {"n": 0}

    def fake_request(method, url, **kwargs):
        calls["n"] += 1
        return dummy_response(503, {"error": "overloaded"})

    pool = fake_pool(monkeypatch, fake_request)
    slept: list[float] = []
    with pytest.raises(ProviderError) as excinfo:
        post_json("http://x/v1", {}, pool=pool, retries=2, sleep=slept.append)
    assert excinfo.value.status == 503
    assert "overloaded" in excinfo.value.body_excerpt
    assert calls["n"] == 3
    assert slept == [0.5, 1.0]


@pytest.mark.parametrize("listening", [False, True], ids=["refused", "no_answer"])
def test_socket_failures_are_unreachable(listening):
    """Real urllib3 errors: a refused connect, and a read that times out."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        if listening:
            sock.listen()
        url = f"http://127.0.0.1:{sock.getsockname()[1]}/v1"
        pool = connection_pool(url)
        slept: list[float] = []
        with pytest.raises(EndpointUnreachable):
            post_json(url, {}, pool=pool, timeout=0.05, retries=1, sleep=slept.append)
        pool.clear()
    assert slept == [0.5]


def test_pool_reads_the_proxy_environment(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://proxy.internal:3128")
    monkeypatch.setenv("NO_PROXY", "")
    proxied = connection_pool("http://llm.example.org/v1/completions")
    assert isinstance(proxied, urllib3.ProxyManager)
    assert proxied.proxy.host == "proxy.internal"

    monkeypatch.setenv("NO_PROXY", "example.org")
    direct = connection_pool("http://llm.example.org/v1/completions", maxsize=4)
    assert not isinstance(direct, urllib3.ProxyManager)
    assert direct.connection_pool_kw["maxsize"] == 4
