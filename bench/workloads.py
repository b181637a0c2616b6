"""The benchmark's workloads: input sizes, pipeline settings and why each exists.

Every workload is a closed loop with one caller: the next ``run_pipeline``
call starts only after the previous one returned.  Sizes follow the shapes
of the OAEI tracks (conference-sized, anatomy-sized and a RAG-sized slice);
nothing is downloaded, the inputs come from ``generate.py``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_source: int
    n_target: int
    planted: int
    # Distinct label words; fewer words means more shared words between
    # unrelated labels, so more candidates above a similarity threshold.
    words: int
    # What one "decision" is for decisions_per_s on this workload.
    decision_unit: str

    def sizes(self, scale: float) -> tuple[int, int, int, int]:
        """(source, target, planted, words) counts at a fraction of full size."""
        if scale == 1.0:
            return self.n_source, self.n_target, self.planted, self.words
        n_source = max(12, round(self.n_source * scale))
        n_target = max(12, round(self.n_target * scale))
        planted = max(6, round(self.planted * scale))
        words = max(30, round(self.words * scale))
        return n_source, n_target, min(planted, n_source, n_target), words


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fuzzy_simple",
            why="fuzzy simple LCS scoring of all 1000x1000 label pairs, some over 63 chars; "
                "the fuzzy kernel does nearly all the work, every other layer idles",
            n_source=1000, n_target=1000, planted=700, words=1000,
            decision_unit="best-match decision per source concept",
        ),
        Workload(
            name="retrieval_tfidf",
            why="TF-IDF top-10 retrieval on 10k x 10k CP texts writing ~100k cells; "
                "the only workload where parse, encode, evaluate and XML export do real work",
            n_source=10000, n_target=10000, planted=6000, words=3333,
            decision_unit="ranked candidate judged against the threshold (rows x top_k)",
        ),
        Workload(
            name="rag_http",
            why="few-shot RAG, 140 x 300 concepts, vs a local provider process adding 10 ms per "
                "completion; transport, the llm pool, prompts and the journal do the work",
            # Few distinct words fill nearly every source's top 5, so the
            # number of LLM decisions (about 690) hardly depends on the seed.
            n_source=140, n_target=300, planted=120, words=60,
            decision_unit="LLM yes/no decision",
        ),
    )
}

# Injected provider latency per request, milliseconds.
STUB_LATENCY_MS = 10.0


def pipeline_config(
    workload: Workload,
    inputs: dict[str, str],
    output_path: str,
    *,
    stub_url: str | None = None,
    journal_path: str | None = None,
    llm_concurrency: int = 1,
) -> dict:
    """The JSON config (the CLI's config-file schema) for one run."""
    cfg: dict = {
        "source_path": inputs["source"],
        "target_path": inputs["target"],
        "reference_path": inputs["reference"],
        "output_path": output_path,
    }
    if workload.name == "fuzzy_simple":
        cfg.update(method="fuzzy", view="C", fuzzy={"method": "simple", "threshold": 0.1})
    elif workload.name == "retrieval_tfidf":
        cfg.update(
            method="retrieval", view="CP",
            retrieval={"backend": "tfidf", "top_k": 10, "threshold": 0.2},
            postprocess={"cardinality": "many_to_many"},
        )
    else:
        # Thresholds of configs/fewshot-rag-c-strict.json.
        cfg.update(
            method="fewshot_rag", view="CC",
            rag={
                "retrieval": {
                    "backend": "embedding", "top_k": 5, "threshold": 0.4,
                    "provider_endpoint": f"{stub_url}/v1/embeddings",
                },
                "llm": {"endpoint": f"{stub_url}/v1/completions", "batch_size": llm_concurrency},
                "llm_threshold": 0.6,
                "shots": 2,
                "journal_path": journal_path,
            },
        )
    return cfg
