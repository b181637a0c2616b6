"""In-memory spans around ontomatch's module boundaries, and the per-layer
metrics derived from them.

The tracer wraps each module's public entry points where their callers look
them up (module globals and class attributes), for the length of one traced
run, from the benchmark's files only.  A span records name, start, end,
parent and run id.  A span opened on a worker thread with no open span of
its own (a ``post_json`` call on the LLM client's pool) takes the main
thread's innermost open span, the running ``decide_many``, as its parent.

Arguments and results are kept on the span and turned into counts only
after the run, so counting costs the traced run nothing.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

# Texts longer than this do not fit one 64-bit LCS lane.
LONG_TEXT_CHARS = 63


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    error: bool = False
    attrs: dict[str, float] = field(default_factory=dict)
    call: tuple | None = None  # (args, kwargs, result) until counted

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run, "thread": self.thread,
            "error": self.error, "attrs": self.attrs,
        }


def patch_points() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) for every traced entry point."""
    from ontomatch import export, llm, pipeline, rag, retrieval

    return [
        (pipeline, "parse_ontology", "parsing.parse_ontology"),
        (pipeline, "parse_reference_alignment", "parsing.parse_reference_alignment"),
        (pipeline, "encode", "encoding.encode"),
        (pipeline, "align_fuzzy", "fuzzy.align_fuzzy"),
        (pipeline, "align_retrieval", "retrieval.align_retrieval"),
        (pipeline, "align_rag", "rag.align_rag"),
        (pipeline, "apply_postprocess", "postprocess.apply_postprocess"),
        (pipeline, "evaluate", "evaluation.evaluate"),
        (pipeline, "atomic_write", "export.atomic_write"),
        (rag, "encode", "encoding.encode"),
        (rag, "align_retrieval", "retrieval.align_retrieval"),
        (rag, "build_prompt", "rag.build_prompt"),
        (retrieval, "cosine_topk", "retrieval.cosine_topk"),
        (retrieval, "post_json", "transport.post_json"),
        (retrieval.TfidfModel, "fit", "retrieval.tfidf_fit"),
        (retrieval.TfidfModel, "transform", "retrieval.tfidf_transform"),
        (retrieval.HttpEmbeddingProvider, "embed", "retrieval.embed"),
        (llm.HttpLLMClient, "decide_many", "llm.decide_many"),
        (llm, "post_json", "transport.post_json"),
        (export, "export_xml", "export.export_xml"),
        (export, "atomic_write", "export.atomic_write"),
    ]


class Tracer:
    """Records spans for calls made through the wrappers it installs."""

    def __init__(self, run: int) -> None:
        self.spans: list[Span] = []
        self.run = run
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            own = stack or tracer._main_stack
            parent = own[-1] if own else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    span_id, name, start, end, parent, tracer.run,
                    threading.get_ident(), error, call=(args, kwargs, result),
                ))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in patch_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def count(self) -> None:
        """Turn each span's kept call into counts and drop the references."""
        for span in self.spans:
            if span.call is not None:
                observe = _OBSERVERS.get(span.name)
                if observe is not None and not span.error:
                    span.attrs = observe(*span.call)
                span.call = None


# -- counts taken at each boundary ----------------------------------------


def _encode_counts(args, kwargs, corpus) -> dict:
    lengths = [len(text) for text in corpus.texts]
    return {
        "texts": len(lengths),
        "chars": sum(lengths),
        "long": sum(1 for n in lengths if n > LONG_TEXT_CHARS),
    }


def _retrieval_counts(args, kwargs, result) -> dict:
    source, target = args[0], args[1]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {
        "rows": len(source.texts),
        "slots": len(source.texts) * min(cfg.top_k, len(target.texts)),
        "out": len(result),
    }


def _decision_counts(args, kwargs, decisions) -> dict:
    return {
        "items": len(args[1]),
        "decisions": len(decisions),
        "fallback": sum(1 for d in decisions if d.fallback),
        "yes": sum(1 for d in decisions if d.label == "yes"),
    }


_OBSERVERS: dict[str, Callable[..., dict]] = {
    "parsing.parse_ontology": lambda a, k, r: {"bytes": os.path.getsize(a[0]), "concepts": len(r)},
    "parsing.parse_reference_alignment": lambda a, k, r: {"cells": len(r)},
    "encoding.encode": _encode_counts,
    "fuzzy.align_fuzzy": lambda a, k, r: {"pairs": len(a[0].texts) * len(a[1].texts), "out": len(r)},
    "retrieval.align_retrieval": _retrieval_counts,
    "retrieval.cosine_topk": lambda a, k, r: {"pairs": a[0].rows * a[1].rows},
    "llm.decide_many": _decision_counts,
    "rag.align_rag": lambda a, k, r: {"out": len(r)},
    "postprocess.apply_postprocess": lambda a, k, r: {"in": len(a[0]), "out": len(r)},
    "export.export_xml": lambda a, k, r: {"cells": len(a[0].cells)},
}


# -- per-layer metrics -----------------------------------------------------

# Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRICS = {
    "parsing.parse_ontology": "parsing.parse_ontology_s",
    "parsing.parse_reference_alignment": "parsing.parse_reference_s",
    "encoding.encode": "encoding.encode_s",
    "fuzzy.align_fuzzy": "fuzzy.align_fuzzy_s",
    "retrieval.align_retrieval": "retrieval.align_retrieval_s",
    "retrieval.tfidf_fit": "retrieval.tfidf_fit_s",
    "retrieval.tfidf_transform": "retrieval.tfidf_transform_s",
    "retrieval.cosine_topk": "retrieval.cosine_topk_s",
    "retrieval.embed": "retrieval.embed_s",
    "llm.decide_many": "llm.decide_many_s",
    "transport.post_json": "transport.post_json_s",
    "rag.align_rag": "rag.align_rag_s",
    "rag.build_prompt": "rag.build_prompt_s",
    "postprocess.apply_postprocess": "postprocess.apply_postprocess_s",
    "evaluation.evaluate": "evaluation.evaluate_s",
    "export.export_xml": "export.export_xml_s",
    "export.atomic_write": "export.atomic_write_s",
    "pipeline.run_pipeline": "pipeline.self_s",
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Wall time attributed to each span name; sums to the root spans' time.

    A span's self time is its duration minus the part of it covered by its
    children.  Children that overlap (pool threads) share the covered time
    in proportion to their durations, so nothing is counted twice.
    """
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out: dict[str, float] = defaultdict(float)

    def visit(span: Span, share: float) -> None:
        kids = children.get(span.id, [])
        covered = _covered([(max(k.start, span.start), min(k.end, span.end)) for k in kids])
        out[span.name] += (span.duration - covered) * share
        busy = sum(k.duration for k in kids)
        for kid in kids:
            visit(kid, share * (covered / busy if busy > 0 else 0.0))

    for root in children[None]:
        visit(root, 1.0)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], wall_s: float, latency_ms: float, stub: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``stub`` holds the provider stub's counter deltas over the run
    (connections, requests, errors, service_ms), or zeros without a stub.
    """
    times = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    durations: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        durations[span.name].append(span.duration)
        for key, value in span.attrs.items():
            totals[span.name][key] += value
    rag_ids = {s.id for s in spans if s.name == "rag.align_rag"}
    rag_candidates = sum(s.attrs.get("out", 0) for s in spans
                         if s.name == "retrieval.align_retrieval" and s.parent in rag_ids)

    m: dict[str, float] = {metric: times.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
    parse, enc = totals["parsing.parse_ontology"], totals["encoding.encode"]
    fz, ret = totals["fuzzy.align_fuzzy"], totals["retrieval.align_retrieval"]
    dm, post = totals["llm.decide_many"], totals["postprocess.apply_postprocess"]
    cells = totals["export.export_xml"]["cells"]
    requests = durations["transport.post_json"]
    m.update({
        "parsing.concepts": parse["concepts"],
        "parsing.input_mb_per_s": _ratio(parse["bytes"] / 2**20, m["parsing.parse_ontology_s"]),
        "parsing.reference_cells": totals["parsing.parse_reference_alignment"]["cells"],
        "encoding.texts": enc["texts"],
        "encoding.text_chars": enc["chars"],
        "encoding.long_text_share": _ratio(enc["long"], enc["texts"]),
        "fuzzy.pairs_scored": fz["pairs"],
        "fuzzy.ns_per_pair": _ratio(m["fuzzy.align_fuzzy_s"] * 1e9, fz["pairs"]),
        "fuzzy.correspondences": fz["out"],
        "retrieval.cosine_topk_ns_per_pair": _ratio(
            sum(durations["retrieval.cosine_topk"]) * 1e9, totals["retrieval.cosine_topk"]["pairs"]),
        "retrieval.candidates": ret["out"],
        "retrieval.kept_share": _ratio(ret["out"], ret["slots"]),
        "llm.decide_many_calls": len(durations["llm.decide_many"]),
        "llm.decisions": dm["decisions"],
        "llm.fallback_decisions": dm["fallback"],
        "llm.yes_share": _ratio(dm["yes"], dm["decisions"]),
        "transport.post_json_calls": len(requests),
        "transport.request_ms_p50": percentile(requests, 0.50) * 1000.0,
        "transport.request_ms_p98": percentile(requests, 0.98) * 1000.0,
        "transport.overhead_ms_p50": (percentile(requests, 0.50) * 1000.0 - latency_ms) if requests else 0.0,
        "transport.connections_opened": stub["connections"],
        "transport.connections_per_request": _ratio(stub["connections"], stub["requests"]),
        "transport.retries": stub["requests"] - len(requests),
        "transport.errors": stub["errors"] + sum(1 for s in spans if s.name == "transport.post_json" and s.error),
        "transport.stub_service_ms_p50": percentile(stub["service_ms"], 0.50),
        "transport.stub_service_ms_p98": percentile(stub["service_ms"], 0.98),
        "rag.candidates": rag_candidates,
        "rag.pairs_asked": dm["items"],
        "rag.journal_hits": rag_candidates - dm["items"] if rag_ids else 0,
        "rag.accepted": totals["rag.align_rag"]["out"],
        "rag.accept_share": _ratio(totals["rag.align_rag"]["out"], dm["items"]),
        "postprocess.in": post["in"],
        "postprocess.out": post["out"],
        "export.cells": cells,
        "export.cells_per_s": _ratio(cells, m["export.export_xml_s"]),
        "trace.spans": len(spans),
        "trace.accounted_share": _ratio(sum(times.values()), wall_s),
    })
    return m
