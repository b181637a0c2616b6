"""TF-IDF vectors, embedding providers, and top-k cosine alignment."""

from __future__ import annotations

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import make_corpus
from oracles import dot, rank_candidates, tfidf_vectors

import ontomatch.retrieval as retrieval
import ontomatch.transport as transport
from ontomatch.encoding import EncodingView, tokenize
from ontomatch.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyCorpus,
    ProviderError,
    ViewMismatch,
)
from ontomatch.retrieval import (
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    RetrievalConfig,
    TfidfModel,
    VectorMatrix,
    align_retrieval,
    cosine_topk,
    make_embedding_provider,
    normalize_rows,
)

WORDS = ["alloy", "steel", "iron", "copper", "zinc", "oxide", "heat", "melt", "quartz", "phase"]


def random_texts(rng: random.Random, n: int, max_words: int = 4) -> list[str]:
    return [" ".join(rng.choices(WORDS, k=rng.randint(1, max_words))) for _ in range(n)]


# -- TF-IDF -------------------------------------------------------------------


def test_tfidf_hand_computed_example():
    model = TfidfModel().fit(["a b", "b c"])
    matrix = model.transform(["a b", "b c"]).toarray()
    col_a, col_b = model.vocabulary["a"], model.vocabulary["b"]
    # idf(a) = ln(3/2) + 1, idf(b) = 1, then L2 normalization
    idf_a = math.log(3 / 2) + 1
    norm = math.hypot(idf_a, 1.0)
    assert matrix[0][col_a] == pytest.approx(idf_a / norm, abs=1e-12)
    assert matrix[0][col_b] == pytest.approx(1.0 / norm, abs=1e-12)
    assert matrix[0][col_a] == pytest.approx(0.8148, abs=1e-4)
    assert matrix[0][col_b] == pytest.approx(0.5797, abs=1e-4)
    cosine = float(matrix[0] @ matrix[1])
    assert cosine == pytest.approx(0.3361, abs=1e-4)


def test_tfidf_identical_docs_are_unit_vectors():
    dense = TfidfModel().fit(["x", "x"]).transform(["x", "x"]).toarray()
    assert np.allclose(dense, [[1.0], [1.0]])


def test_tfidf_matches_dict_oracle_on_random_corpora():
    rng = random.Random(21)
    for _ in range(20):
        corpus = random_texts(rng, rng.randint(2, 12))
        model = TfidfModel().fit(corpus)
        dense = model.transform(corpus).toarray()
        expected = tfidf_vectors([tokenize(text) for text in corpus])
        for i, row in enumerate(expected):
            for term, value in row.items():
                assert dense[i][model.vocabulary[term]] == pytest.approx(value, abs=1e-12)
            assert np.count_nonzero(dense[i]) == len(row)


def test_tfidf_fit_is_deterministic():
    corpus = ["alloy steel", "iron oxide", "heat"]
    first, second = TfidfModel().fit(corpus), TfidfModel().fit(corpus)
    assert first.vocabulary == second.vocabulary
    assert (first.transform(corpus) != second.transform(corpus)).nnz == 0


def test_tfidf_unknown_terms_transform_to_zero_rows():
    model = TfidfModel().fit(["alloy steel"])
    row = model.transform(["quartz"]).toarray()
    assert not row.any()


def test_tfidf_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        TfidfModel().fit([])


def test_normalize_rows_handles_zero_rows():
    rows = normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert np.allclose(rows[0], [0.6, 0.8])
    assert not rows[1].any()


# -- embedding providers ------------------------------------------------------


def test_mock_provider_is_deterministic():
    provider = MockEmbeddingProvider(dim=8, seed=5)
    first = provider.embed(["alloy", "steel"])
    second = provider.embed(["alloy", "steel"])
    assert np.array_equal(first, second)
    assert not np.array_equal(first[0], first[1])


def test_mock_provider_rows_are_unit_norm():
    rows = MockEmbeddingProvider(dim=8).embed(["a", "b", "c"])
    assert rows.shape == (3, 8)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-9)


def test_mock_provider_seed_changes_vectors():
    a = MockEmbeddingProvider(dim=8, seed=0).embed(["alloy"])
    b = MockEmbeddingProvider(dim=8, seed=1).embed(["alloy"])
    assert not np.allclose(a, b)


def test_make_provider_parses_mock_endpoint():
    cfg = RetrievalConfig(backend="embedding", provider_endpoint="mock:?dim=16&seed=3")
    provider = make_embedding_provider(cfg)
    assert isinstance(provider, MockEmbeddingProvider)
    assert provider.dim == 16 and provider.seed == 3


def test_make_provider_requires_endpoint():
    with pytest.raises(ConfigError):
        make_embedding_provider(RetrievalConfig(backend="embedding"))


def test_embed_helper_with_mock_endpoint():
    provider = make_embedding_provider(RetrievalConfig(backend="embedding", provider_endpoint="mock:?dim=8"))
    matrix = VectorMatrix(values=provider.embed(["alloy", "steel", "iron"]))
    assert matrix.rows == 3 and matrix.dim == 8


def _embedding_app(dim=4, reorder=False):
    def app(path, payload):
        texts = payload["input"]
        data = []
        for i, text in enumerate(texts):
            vector = [float(len(text) + i + d) for d in range(dim)]
            data.append({"index": i, "embedding": vector})
        if reorder:
            data = data[::-1]
        return 200, {"data": data}

    return app


def test_http_provider_batches_and_reassembles(http_server):
    http_server.app = _embedding_app(reorder=True)
    provider = HttpEmbeddingProvider(http_server.url, model="embedder", batch_size=2)
    rows = provider.embed(["a", "bb", "ccc", "dddd", "eeeee"])
    assert rows.shape == (5, 4)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-9)
    # 5 texts at batch size 2 -> 3 requests, in order, with the model name
    payloads = [req["payload"] for req in http_server.requests]
    assert [p["input"] for p in payloads] == [["a", "bb"], ["ccc", "dddd"], ["eeeee"]]
    assert all(p["model"] == "embedder" for p in payloads)
    # out-of-order responses land back in input order
    expected_first = normalize_rows(np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert np.allclose(rows[0], expected_first[0])


def test_http_provider_keeps_one_connection_across_batches(keepalive_server):
    keepalive_server.app = _embedding_app()
    provider = HttpEmbeddingProvider(keepalive_server.url, batch_size=2)
    assert provider.embed(["a", "bb", "ccc", "dddd", "eeeee"]).shape == (5, 4)
    provider.close()
    assert len(keepalive_server.requests) == 3
    assert keepalive_server.connections == 1


def test_http_provider_rejects_mixed_widths(http_server):
    def app(path, payload):
        data = [
            {"index": i, "embedding": [1.0] * (3 + i)} for i in range(len(payload["input"]))
        ]
        return 200, {"data": data}

    http_server.app = app
    provider = HttpEmbeddingProvider(http_server.url)
    with pytest.raises(DimensionMismatch):
        provider.embed(["a", "b"])


def test_http_provider_rejects_gapped_indexes(http_server):
    http_server.app = lambda path, payload: (
        200,
        {"data": [{"index": 0, "embedding": [1.0, 0.0]}] * len(payload["input"])},
    )
    provider = HttpEmbeddingProvider(http_server.url)
    with pytest.raises(ProviderError):
        provider.embed(["a", "b"])


def test_http_provider_surfaces_status_errors(http_server, monkeypatch):
    monkeypatch.setattr(
        retrieval, "post_json", functools.partial(transport.post_json, sleep=lambda _: None),
    )
    http_server.app = lambda path, payload: (503, {"error": "overloaded"})
    provider = HttpEmbeddingProvider(http_server.url)
    with pytest.raises(ProviderError) as excinfo:
        provider.embed(["a"])
    assert excinfo.value.status == 503
    assert "overloaded" in excinfo.value.body_excerpt


# -- cosine_topk ---------------------------------------------------------------


def test_identical_corpora_rank_themselves_first():
    rows = MockEmbeddingProvider(dim=16).embed([f"text {i}" for i in range(10)])
    matrix = VectorMatrix(values=rows)
    ranked = cosine_topk(matrix, matrix, k=1)
    for i, candidates in enumerate(ranked):
        assert candidates[0][0] == i
        assert candidates[0][1] == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_vectors_score_zero():
    src = VectorMatrix(values=np.eye(3))
    tgt = VectorMatrix(values=np.eye(3)[::-1].copy())
    ranked = cosine_topk(src, tgt, k=3)
    for i, candidates in enumerate(ranked):
        others = [sim for j, sim in candidates if j != 2 - i]
        assert all(sim == 0.0 for sim in others)


def test_ties_break_by_ascending_target_index():
    src = VectorMatrix(values=np.array([[1.0, 0.0]]))
    tgt = VectorMatrix(values=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    ranked = cosine_topk(src, tgt, k=2)
    assert [j for j, _ in ranked[0]] == [0, 1]


def test_k_larger_than_target_side():
    src = VectorMatrix(values=np.eye(2))
    tgt = VectorMatrix(values=np.eye(2))
    ranked = cosine_topk(src, tgt, k=10)
    assert all(len(candidates) == 2 for candidates in ranked)


def test_topk_matches_brute_force_oracle():
    rng = np.random.default_rng(22)
    src = VectorMatrix(values=normalize_rows(rng.standard_normal((30, 12))))
    tgt = VectorMatrix(values=normalize_rows(rng.standard_normal((30, 12))))
    sims = (src.values @ tgt.values.T).tolist()
    for k in (1, 3, 10):
        expected = rank_candidates(sims, k, threshold=-2.0)
        got = cosine_topk(src, tgt, k)
        assert [[j for j, _ in row] for row in got] == [[j for j, _ in row] for row in expected]
        for got_row, exp_row in zip(got, expected):
            for (_, got_sim), (_, exp_sim) in zip(got_row, exp_row):
                assert got_sim == pytest.approx(exp_sim, abs=1e-9)


def test_topk_blocked_path_matches_single_block():
    # more source rows than one block (512) exercises the block loop
    rng = np.random.default_rng(23)
    src = VectorMatrix(values=normalize_rows(rng.standard_normal((700, 8))))
    tgt = VectorMatrix(values=normalize_rows(rng.standard_normal((40, 8))))
    ranked = cosine_topk(src, tgt, k=3)
    assert len(ranked) == 700
    sims = src.values @ tgt.values.T
    for i in (0, 511, 512, 699):
        best = ranked[i][0]
        assert best[1] == pytest.approx(float(sims[i].max()), abs=1e-12)


class _RecordingPool(retrieval.ThreadPoolExecutor):
    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


def _topk_with(monkeypatch, source, target, k, rows_in_flight, workers):
    _RecordingPool.sizes = []
    monkeypatch.setattr(retrieval, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(retrieval, "_BLOCK_ROWS", rows_in_flight)
    monkeypatch.setattr(retrieval, "_worker_count", lambda: workers)
    return cosine_topk(source, target, k)


def test_worker_count_is_the_capped_affinity(monkeypatch):
    monkeypatch.setattr(retrieval.os, "sched_getaffinity", lambda pid: set(range(12)), raising=False)
    assert retrieval._worker_count() == retrieval._MAX_WORKERS == 8
    monkeypatch.setattr(retrieval.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert retrieval._worker_count() == 3
    monkeypatch.delattr(retrieval.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(retrieval.os, "cpu_count", lambda: None)
    assert retrieval._worker_count() == 1


@pytest.mark.parametrize("block_rows", [1, 3, 512])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sparse_topk_is_the_same_on_any_worker_count_and_block_size(monkeypatch, block_rows, workers):
    # 513 sources leave a one-row tail block at 512 // 1, 2 and 4 rows, and
    # texts of one or two of ten words tie often
    rng = random.Random(27)
    texts = random_texts(rng, 513 + 60, max_words=2)
    model = TfidfModel().fit(texts)
    src = VectorMatrix(values=model.transform(texts[:513]))
    tgt = VectorMatrix(values=model.transform(texts[513:]))
    expected = _topk_with(monkeypatch, src, tgt, 5, rows_in_flight=512, workers=1)
    assert any(row[0][1] == row[1][1] for row in expected)
    for rows_in_flight in (512, block_rows * workers):
        got = _topk_with(monkeypatch, src, tgt, 5, rows_in_flight, workers)
        assert got == expected
        pooled = workers > 1 and rows_in_flight // workers < 513
        assert _RecordingPool.sizes == ([workers] if pooled else [])


@pytest.mark.parametrize("n_target", [3000, 12000])
def test_sparse_topk_scratch_does_not_grow_with_the_targets(monkeypatch, n_target):
    # Every text holds "phase", so every pair has a nonzero sum: with 512
    # source rows in flight, 3000 targets would take 512 x 3000 x 20 B = 30 MB.
    rng = random.Random(31)
    texts = [f"{text} phase" for text in random_texts(rng, 512 + n_target)]
    model = TfidfModel().fit(texts)
    src = VectorMatrix(values=model.transform(texts[:512]))
    tgt = VectorMatrix(values=model.transform(texts[512:]))
    monkeypatch.setattr(retrieval, "_worker_count", lambda: 1)
    tracemalloc.start()
    try:
        ranked = cosine_topk(src, tgt, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ranked) == 512
    assert peak < 2 * retrieval._SCRATCH_BYTES


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_dense_topk_does_not_depend_on_the_worker_count(monkeypatch, workers):
    provider = MockEmbeddingProvider(dim=64, seed=7)
    src = VectorMatrix(values=provider.embed([f"source {i}" for i in range(1025)]))
    tgt = VectorMatrix(values=provider.embed([f"target {j}" for j in range(300)]))
    expected = _topk_with(monkeypatch, src, tgt, 5, rows_in_flight=512, workers=1)
    assert _topk_with(monkeypatch, src, tgt, 5, rows_in_flight=512, workers=workers) == expected
    assert _RecordingPool.sizes == []


@pytest.mark.parametrize("block_rows", [512, 256, 3])
def test_dense_tail_row_scores_as_if_alone(monkeypatch, block_rows):
    # a one-row product would go to gemv, whose sums differ from gemm's
    provider = MockEmbeddingProvider(dim=64, seed=7)
    src = VectorMatrix(values=provider.embed([f"source {i}" for i in range(513)]))
    tgt = VectorMatrix(values=provider.embed([f"target {j}" for j in range(300)]))
    ranked = _topk_with(monkeypatch, src, tgt, 5, block_rows, workers=1)
    alone = cosine_topk(VectorMatrix(values=src.values[512:513]), tgt, 5)
    assert ranked[512] == alone[0]


def test_candidate_nesting():
    rng = np.random.default_rng(24)
    src = VectorMatrix(values=normalize_rows(rng.standard_normal((15, 6))))
    tgt = VectorMatrix(values=normalize_rows(rng.standard_normal((20, 6))))
    for k in range(1, 6):
        small = cosine_topk(src, tgt, k)
        large = cosine_topk(src, tgt, k + 1)
        for small_row, large_row in zip(small, large):
            assert [j for j, _ in small_row] == [j for j, _ in large_row][: len(small_row)]


def test_topk_validates_inputs():
    matrix = VectorMatrix(values=np.eye(2))
    with pytest.raises(ConfigError):
        cosine_topk(matrix, matrix, k=0)
    with pytest.raises(DimensionMismatch):
        cosine_topk(matrix, VectorMatrix(values=np.eye(3)), k=1)


# -- align_retrieval -----------------------------------------------------------


def test_identity_corpora_tfidf_k1():
    texts = [f"{w} concept" for w in WORDS]
    src = make_corpus(texts)
    tgt = make_corpus(texts, prefix="http://example.org/b#")
    out = align_retrieval(src, tgt, RetrievalConfig(top_k=1, threshold=0.5))
    assert len(out) == 10
    for i, corr in enumerate(out):
        assert corr.source == src.iris[i] and corr.target == tgt.iris[i]
        assert corr.score == pytest.approx(1.0, abs=1e-9)
        assert corr.provenance == "retrieval:tfidf"


def test_unreachable_threshold_yields_nothing():
    src = make_corpus(["alloy", "steel"])
    tgt = make_corpus(["iron", "zinc"], prefix="http://example.org/b#")
    assert align_retrieval(src, tgt, RetrievalConfig(top_k=3, threshold=1.0)) == []


def test_threshold_above_one_rejected():
    src = make_corpus(["alloy"])
    with pytest.raises(ConfigError):
        align_retrieval(src, src, RetrievalConfig(threshold=1.1))


def test_emits_every_passing_candidate_not_best_only():
    src = make_corpus(["alloy steel"])
    tgt = make_corpus(
        ["alloy steel", "alloy iron", "steel oxide"], prefix="http://example.org/b#"
    )
    out = align_retrieval(src, tgt, RetrievalConfig(top_k=3, threshold=0.01))
    assert len(out) == 3
    scores = [corr.score for corr in out]
    assert scores == sorted(scores, reverse=True)


def test_align_matches_brute_force_with_joint_fit():
    rng = random.Random(25)
    src_texts = random_texts(rng, 12)
    tgt_texts = random_texts(rng, 14)
    src = make_corpus(src_texts)
    tgt = make_corpus(tgt_texts, prefix="http://example.org/b#")
    out = align_retrieval(src, tgt, RetrievalConfig(top_k=4, threshold=0.2))

    # oracle vectors fitted jointly, like the implementation documents
    vectors = tfidf_vectors([tokenize(t) for t in src_texts + tgt_texts])
    src_rows, tgt_rows = vectors[: len(src_texts)], vectors[len(src_texts):]
    sims = [[dot(srow, trow) for trow in tgt_rows] for srow in src_rows]
    expected = []
    for i, row in enumerate(rank_candidates(sims, 4, 0.2)):
        for j, sim in row:
            expected.append((src.iris[i], tgt.iris[j], sim))
    assert [(c.source, c.target) for c in out] == [(s, t) for s, t, _ in expected]
    for corr, (_, _, sim) in zip(out, expected):
        assert corr.score == pytest.approx(sim, abs=1e-9)


def test_align_with_mock_embedding_backend():
    src = make_corpus(["alloy", "steel", "iron"])
    tgt = make_corpus(["alloy", "steel", "iron"], prefix="http://example.org/b#")
    cfg = RetrievalConfig(backend="embedding", top_k=1, threshold=0.9,
                          provider_endpoint="mock:?dim=32")
    out = align_retrieval(src, tgt, cfg)
    assert [(c.source, c.target) for c in out] == [
        (src.iris[i], tgt.iris[i]) for i in range(3)
    ]
    assert all(c.provenance == "retrieval:embedding" for c in out)


def test_align_with_injected_provider():
    src = make_corpus(["alloy"])
    tgt = make_corpus(["alloy"], prefix="http://example.org/b#")
    cfg = RetrievalConfig(backend="embedding", top_k=1)
    out = align_retrieval(src, tgt, cfg, provider=MockEmbeddingProvider(dim=8))
    assert len(out) == 1 and out[0].score == pytest.approx(1.0, abs=1e-9)


def test_retrieval_threshold_monotonicity():
    rng = random.Random(26)
    src = make_corpus(random_texts(rng, 10))
    tgt = make_corpus(random_texts(rng, 10), prefix="http://example.org/b#")
    loose = {(c.source, c.target) for c in align_retrieval(src, tgt, RetrievalConfig(top_k=5, threshold=0.1))}
    tight = {(c.source, c.target) for c in align_retrieval(src, tgt, RetrievalConfig(top_k=5, threshold=0.6))}
    assert tight <= loose


def test_retrieval_config_validation():
    with pytest.raises(ConfigError):
        RetrievalConfig(backend="faiss").validate()
    with pytest.raises(ConfigError):
        RetrievalConfig(top_k=0).validate()
    with pytest.raises(ConfigError):
        RetrievalConfig(batch_size=0).validate()


@pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf])
def test_retrieval_config_rejects_bad_timeouts(timeout):
    with pytest.raises(ConfigError):
        RetrievalConfig(timeout=timeout).validate()


def test_view_and_empty_corpus_errors():
    src = make_corpus(["alloy"], view=EncodingView.C)
    tgt_view = make_corpus(["alloy"], view=EncodingView.CP, prefix="http://example.org/b#")
    with pytest.raises(ViewMismatch):
        align_retrieval(src, tgt_view, RetrievalConfig())
    with pytest.raises(EmptyCorpus):
        align_retrieval(src, make_corpus([], prefix="http://example.org/b#"), RetrievalConfig())
