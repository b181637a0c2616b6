"""Local provider stub: completions and embeddings with a fixed injected latency.

Runs in its own process so its CPU time never competes with the client for
the interpreter lock.  It speaks HTTP/1.1 with keep-alive, sets TCP_NODELAY
and writes each response in one send, so a client that reuses connections
can show it.

* ``POST /v1/completions`` answers ``choices[0].text`` plus
  ``choices[0].logprobs.top_logprobs[0]`` with " Yes" and " No".  The yes
  probability is a fixed function of the character-trigram overlap of the
  two concept labels in the prompt's final query block.
* ``POST /v1/embeddings`` answers ``data[i].embedding``: signed counts of
  hashed character trigrams, so a perturbed copy lands near its source.
* ``GET /stats`` returns connection and request counters and the per-request
  service times in milliseconds (time spent answering, injected latency
  excluded).  Stats requests count toward none of the counters.

No ontomatch code is used.  The first stdout line is ``PORT <n>``; the
stub serves until its standard input is closed.

    python3 bench/stub.py --latency-ms 10
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EMBEDDING_DIM = 256
_QUERY_SRC = "### First concept: "
_QUERY_TGT = "\n### Second concept: "
_QUERY_END = "\n### Answer: "
_CONTEXT_MARKERS = (", children: ", ", parents: ")


def _trigrams(text: str) -> list[str]:
    padded = f"  {text.lower()} "
    return [padded[i:i + 3] for i in range(len(padded) - 2)]


def _concept_label(rendered: str) -> str:
    for marker in _CONTEXT_MARKERS:
        cut = rendered.find(marker)
        if cut >= 0:
            rendered = rendered[:cut]
    return rendered.strip()


def yes_probability(source_label: str, target_label: str) -> float:
    """Dice overlap of the labels' trigram sets, squashed into (0, 1)."""
    a, b = set(_trigrams(source_label)), set(_trigrams(target_label))
    dice = 2 * len(a & b) / (len(a) + len(b)) if a or b else 0.0
    return 1.0 / (1.0 + math.exp(-14.0 * (dice - 0.7)))


def completion(prompt: str) -> dict:
    start = prompt.rfind(_QUERY_SRC)
    middle = prompt.find(_QUERY_TGT, start)
    end = prompt.find(_QUERY_END, middle)
    if start < 0 or middle < 0 or end < 0:
        raise ValueError("prompt lacks a query block")
    source = _concept_label(prompt[start + len(_QUERY_SRC):middle])
    target = _concept_label(prompt[middle + len(_QUERY_TGT):end])
    p_yes = yes_probability(source, target)
    top = {" Yes": math.log(p_yes), " No": math.log1p(-p_yes)}
    text = " Yes" if p_yes >= 0.5 else " No"
    return {
        "object": "text_completion",
        "choices": [{
            "index": 0,
            "text": text,
            "logprobs": {"tokens": [text], "top_logprobs": [top]},
            "finish_reason": "stop",
        }],
    }


def embedding(text: str) -> list[int]:
    row = [0] * EMBEDDING_DIM
    for gram in _trigrams(text):
        h = zlib.crc32(gram.encode("utf-8"))
        row[h % EMBEDDING_DIM] += 1 if (h >> 16) & 1 else -1
    return row


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.errors = 0
        self.service_ms: list[float] = []

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "errors": self.errors,
                "service_ms": list(self.service_ms),
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    counted = False

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler's signature
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.server.stats.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        begin = time.perf_counter()
        stats = self.server.stats
        with stats.lock:
            if not self.counted:
                self.counted = True
                stats.connections += 1
            stats.requests += 1
        try:
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            if self.path == "/v1/completions":
                status, payload = 200, completion(body["prompt"])
            elif self.path == "/v1/embeddings":
                rows = [embedding(text) for text in body["input"]]
                status, payload = 200, {
                    "object": "list",
                    "data": [{"object": "embedding", "index": i, "embedding": row}
                             for i, row in enumerate(rows)],
                }
            else:
                status, payload = 404, {"error": f"no route {self.path}"}
        except (ValueError, KeyError, TypeError) as exc:
            status, payload = 400, {"error": str(exc)}
        service = time.perf_counter() - begin
        with stats.lock:
            stats.service_ms.append(service * 1000.0)
            if status >= 400:
                stats.errors += 1
        time.sleep(self.server.latency_s)
        self._send(status, payload)


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, latency_ms: float, port: int = 0):
        super().__init__(("127.0.0.1", port), _Handler)
        self.latency_s = latency_ms / 1000.0
        self.stats = Stats()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="local completions/embeddings provider stub")
    parser.add_argument("--latency-ms", type=float, default=10.0)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    server = StubServer(args.latency_ms, args.port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    # Serve until the parent closes our stdin (or exits).
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
