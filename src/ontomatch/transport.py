"""Shared HTTP plumbing for the embedding and completion providers.

Each provider client owns one keep-alive ``urllib3`` pool from
:func:`connection_pool`, so repeated requests reuse their connections.  The
pool goes through the proxy that ``HTTP(S)_PROXY`` names for the endpoint
unless ``NO_PROXY`` covers its host, and verifies TLS certificates.

:func:`post_json` sends one JSON POST through such a pool with bearer-token
auth from the environment.  Connection failures and timeouts are retried
twice with exponential backoff; so are HTTP 429 and 503, which sleep for the
server's ``Retry-After`` seconds when it gives them.  Every other HTTP error
status fails at once.  urllib3's own retries are off, so these are the only
ones.

``urllib3`` and ``urllib.request`` are imported where a pool is built and a
request is sent, so a run that never talks HTTP does not load them.

:func:`mock_query` reads a ``mock:`` endpoint (an offline stand-in, not a
URL) for the embedding and completion providers alike.
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Any, Callable
from urllib.parse import parse_qs, urlsplit

from .errors import ConfigError, EndpointUnreachable, ProviderError, check_count

if TYPE_CHECKING:
    import urllib3

API_KEY_ENV = "ONTOMATCH_API_KEY"
_BODY_EXCERPT = 200
# Statuses that mean "try again later" rather than "this request is wrong".
_RETRY_STATUSES = frozenset({429, 503})
# Upper bound on a server-requested Retry-After sleep, in seconds.
MAX_RETRY_AFTER_S = 60.0


def mock_query(endpoint: str | None) -> dict[str, int] | None:
    """The integer ``dim``/``seed`` query of a ``mock:`` endpoint, or None for
    any other endpoint.  Anything else after ``mock:`` (text before the
    ``?``, another key, a repeated key, a value that is not an integer, a
    ``dim`` below 1) is a ConfigError naming the endpoint."""
    if endpoint is None or not endpoint.startswith("mock:"):
        return None
    rest, _, query = endpoint[len("mock:"):].partition("?")
    values = parse_qs(query, keep_blank_values=True)
    try:
        if not rest and set(values) <= {"dim", "seed"} and all(len(v) == 1 for v in values.values()):
            query = {key: int(value) for key, (value,) in values.items()}
            check_count("dim", query.get("dim", 1))
            return query
    except (ValueError, ConfigError):  # a value that is not an integer, or a dim below 1
        pass
    raise ConfigError(f"mock endpoint {endpoint!r}: only integer dim (1 or more) and seed may follow 'mock:?'")


def auth_headers() -> dict[str, str]:
    token = os.environ.get(API_KEY_ENV, "")
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


def connection_pool(url: str, maxsize: int = 1) -> urllib3.PoolManager:
    """A keep-alive pool of up to ``maxsize`` connections for ``url``'s host.

    The proxy environment is read once, here: a ``ProxyManager`` when
    ``HTTP_PROXY``/``HTTPS_PROXY`` names a proxy for the URL's scheme and
    ``NO_PROXY`` does not cover its host, a direct pool otherwise.  The
    caller owns the pool and releases its sockets with ``clear()``.
    """
    import urllib.request

    import urllib3

    parts = urlsplit(url)
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy and not urllib.request.proxy_bypass(parts.netloc):
        return urllib3.ProxyManager(proxy, num_pools=1, maxsize=maxsize)
    return urllib3.PoolManager(num_pools=1, maxsize=maxsize)


def _retry_after(value: str | None, default: float) -> float:
    """Seconds from a numeric ``Retry-After`` header, capped; ``default`` otherwise."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return default
    return min(seconds, MAX_RETRY_AFTER_S) if seconds >= 0 else default


def post_json(
    url: str,
    payload: dict[str, Any],
    *,
    pool: urllib3.PoolManager,
    timeout: float = 30.0,
    retries: int = 2,
    backoff: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> dict[str, Any]:
    """POST a JSON payload through ``pool`` and return the decoded response.

    Raises:
        EndpointUnreachable: connection failures or timeouts after retries.
        ProviderError: an HTTP error status (429 and 503 after retries),
            carrying a body excerpt, or a body that is not a JSON object.
    """
    from urllib3 import exceptions

    # Connection failures and timeouts; urllib3 raises these as they are
    # because retries are off.
    unreachable = (exceptions.TimeoutError, exceptions.ProtocolError,
                   exceptions.SSLError, exceptions.ProxyError)
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    attempt = 0
    while True:
        delay = backoff * (2 ** attempt)
        try:
            response = pool.request(
                "POST", url, body=body, headers=auth_headers(), timeout=timeout, retries=False,
            )
        except unreachable as exc:
            if attempt >= retries:
                raise EndpointUnreachable(f"cannot reach {url}: {exc}") from exc
        else:
            if response.status < 400:
                try:
                    decoded = json.loads(response.data)
                except ValueError as exc:
                    raise ProviderError(response.status, f"non-JSON body: {_excerpt(response)}") from exc
                if not isinstance(decoded, dict):
                    raise ProviderError(response.status, f"body is not a JSON object: {_excerpt(response)}")
                return decoded
            if response.status not in _RETRY_STATUSES or attempt >= retries:
                raise ProviderError(response.status, _excerpt(response))
            delay = _retry_after(response.headers.get("Retry-After"), delay)
        sleep(delay)
        attempt += 1


def _excerpt(response: urllib3.BaseHTTPResponse) -> str:
    return response.data.decode("utf-8", errors="replace")[:_BODY_EXCERPT]
