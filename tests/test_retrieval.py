"""TF-IDF vectors, embedding providers, and top-k cosine alignment."""

from __future__ import annotations

import contextlib
import functools
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import make_corpus
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dot, rank_candidates, tfidf_vectors, topk

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
from ontomatch.fuzzy import FuzzyConfig
from ontomatch.llm import LLMConfig
from ontomatch.pipeline import PipelineConfig
from ontomatch.postprocess import PostprocessConfig
from ontomatch.rag import RAGConfig
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
    for endpoint in ("mock:?dim=x", "mock:?seed=abc", "mock:?dim=1.5"):
        with pytest.raises(ConfigError, match=re.escape(repr(endpoint))):
            make_embedding_provider(RetrievalConfig(backend="embedding", provider_endpoint=endpoint))


def test_http_provider_is_built_from_its_config_section():
    with pytest.raises(ConfigError, match="needs provider_endpoint"):
        HttpEmbeddingProvider(RetrievalConfig())
    with pytest.raises(ConfigError, match="batch_size"):
        HttpEmbeddingProvider(RetrievalConfig(provider_endpoint="http://h/v1", batch_size=0))


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


def provider_for(server, **overrides) -> HttpEmbeddingProvider:
    return HttpEmbeddingProvider(RetrievalConfig(backend="embedding", provider_endpoint=server.url, **overrides))


def test_http_provider_batches_and_reassembles(http_server):
    http_server.app = _embedding_app(reorder=True)
    provider = provider_for(http_server, model="embedder", batch_size=2)
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
    provider = provider_for(keepalive_server, batch_size=2)
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
    provider = provider_for(http_server)
    with pytest.raises(DimensionMismatch):
        provider.embed(["a", "b"])


def test_http_provider_rejects_gapped_indexes(http_server):
    http_server.app = lambda path, payload: (
        200,
        {"data": [{"index": 0, "embedding": [1.0, 0.0]}] * len(payload["input"])},
    )
    provider = provider_for(http_server)
    with pytest.raises(ProviderError):
        provider.embed(["a", "b"])


@pytest.mark.parametrize(
    "items",
    [
        [{"index": -1, "embedding": [1.0, 0.0]}, {"index": 0, "embedding": [0.0, 1.0]}],
        [{"index": "0", "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}],
        [{"index": 0.7, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}],
        [{"index": 0, "embedding": [math.nan, 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}],
        [{"index": 0, "embedding": [math.inf, 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}],
        [{"index": 0, "embedding": ["a", 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}],
        [{"index": 0, "embedding": ["1.5", 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}],
        [{"index": 0, "embedding": [10 ** 400, 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}],
        [{"index": 0, "embedding": [True, 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}],
        [{"index": 0, "embedding": []}, {"index": 1, "embedding": []}],
    ],
    ids=["negative-index", "string-index", "float-index", "nan", "infinity", "text", "numeric-text", "overflow",
         "bool", "empty"],
)
def test_http_provider_rejects_bad_items(http_server, items):
    # NaN and Infinity arrive the way Python's json parses them
    http_server.app = lambda path, payload: (200, {"data": items})
    with pytest.raises(ProviderError):
        provider_for(http_server).embed(["a", "b"])


def test_http_provider_surfaces_status_errors(http_server, monkeypatch):
    monkeypatch.setattr(
        retrieval, "post_json", functools.partial(transport.post_json, sleep=lambda _: None),
    )
    http_server.app = lambda path, payload: (503, {"error": "overloaded"})
    provider = provider_for(http_server)
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


def test_sparse_topk_takes_one_block_when_only_the_marker_is_shared(monkeypatch):
    # Each text is a word of its own plus "phase": no pair shares a term but
    # "phase", so no row has candidates, and all 512 rows fit one block: the
    # budget counts candidate pairs, not (row, target) pairs.
    texts = [f"w{i} phase" for i in range(512 + 12000)]
    model = TfidfModel().fit(texts)
    src = VectorMatrix(values=model.transform(texts[:512]))
    tgt = VectorMatrix(values=model.transform(texts[512:]))
    spans = []
    scorer = retrieval._sparse_scorer

    def recording(*args):
        found, score = scorer(*args)
        spans.extend(found)
        return found, score

    monkeypatch.setattr(retrieval, "_sparse_scorer", recording)
    monkeypatch.setattr(retrieval, "_worker_count", lambda: 1)
    tracemalloc.start()
    try:
        ranked = cosine_topk(src, tgt, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [span.tolist() for span in spans] == [list(range(512))]
    assert peak < 2 * retrieval._SCRATCH_BYTES
    # every target scores the same marker product, so the lowest indices win
    assert all([j for j, _ in row] == [0, 1, 2, 3, 4] for row in ranked)
    assert len({sim for row in ranked for _, sim in row}) == 1


def test_rows_with_a_second_frequent_term_are_scored_whole(monkeypatch):
    # "phase" is in every text and "process" in every odd one: an odd row
    # could share it with half the targets, more scratch than a dense row
    # of them all, so it is scored whole.  An even row shares "phase" and
    # one of 20 group words, and is split; each kind has spans of its own.
    def texts(prefix, count):
        return [f"{prefix}{i} g{i % 20} phase" + (" process" if i % 2 else "") for i in range(count)]

    model = TfidfModel().fit(texts("s", 60) + texts("t", 400))
    src, tgt = model.transform(texts("s", 60)), model.transform(texts("t", 400))
    spans = []
    scorer = retrieval._sparse_scorer

    def recording(*args):
        found, score = scorer(*args)
        spans.extend(span.tolist() for span in found)
        return found, score

    monkeypatch.setattr(retrieval, "_sparse_scorer", recording)
    monkeypatch.setattr(retrieval, "_worker_count", lambda: 1)
    assert cosine_topk(VectorMatrix(values=src), VectorMatrix(values=tgt), 5) == topk(src, tgt, 5)
    assert sorted(i for span in spans for i in span) == list(range(60))
    assert {frozenset(i % 2 for i in span) for span in spans} == {frozenset({0}), frozenset({1})}


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_dense_topk_does_not_depend_on_the_worker_count(monkeypatch, workers):
    provider = MockEmbeddingProvider(dim=64, seed=7)
    src = VectorMatrix(values=provider.embed([f"source {i}" for i in range(1025)]))
    tgt = VectorMatrix(values=provider.embed([f"target {j}" for j in range(300)]))
    expected = _topk_with(monkeypatch, src, tgt, 5, rows_in_flight=512, workers=1)
    assert _topk_with(monkeypatch, src, tgt, 5, rows_in_flight=512, workers=workers) == expected
    assert _RecordingPool.sizes == ([workers] if workers > 1 else [])


@pytest.mark.parametrize("block_rows", [512, 256, 3])
def test_dense_tail_row_scores_as_if_alone(monkeypatch, block_rows):
    # BLAS sums a one-row product (gemv) differently from a many-row one
    # (gemm); the fixed-order rescoring must not see the difference
    provider = MockEmbeddingProvider(dim=64, seed=7)
    src = VectorMatrix(values=provider.embed([f"source {i}" for i in range(513)]))
    tgt = VectorMatrix(values=provider.embed([f"target {j}" for j in range(300)]))
    ranked = _topk_with(monkeypatch, src, tgt, 5, block_rows, workers=1)
    alone = cosine_topk(VectorMatrix(values=src.values[512:513]), tgt, 5)
    assert ranked[512] == alone[0]


def _tie_heavy_targets() -> np.ndarray:
    # 300 mock rows: row 299 copies row 5, row 250 copies row 17, row 120 is
    # zero and row 298 is one ulp above row 40 in every component
    rows = MockEmbeddingProvider(dim=64).embed([f"t{j}" for j in range(300)])
    rows[299], rows[250] = rows[5], rows[17]
    rows[120] = 0.0
    rows[298] = np.nextafter(rows[40], np.inf)
    return rows


@pytest.mark.parametrize("block_rows", [1, 7, 512])
@pytest.mark.parametrize("workers", [1, 2])
def test_dense_topk_equals_the_fixed_order_oracle_on_ties(monkeypatch, block_rows, workers):
    src = VectorMatrix(values=MockEmbeddingProvider(dim=64).embed([f"s{i}" for i in range(100)]))
    tgt = VectorMatrix(values=_tie_heavy_targets())
    for k in (3, 300):
        got = _topk_with(monkeypatch, src, tgt, k, block_rows * workers, workers)
        assert got == topk(src.values, tgt.values, k)
    # at k = 300 every row ranks every target; equal vectors score equally,
    # so the lower index ranks first
    for row in got:
        order = [j for j, _ in row]
        assert order.index(5) < order.index(299) and order.index(17) < order.index(250)
        assert dict(row)[5] == dict(row)[299]


@pytest.mark.parametrize("seed", [192, 234, 265])
def test_dense_topk_margin_covers_cancelling_sums(seed):
    # Products of both signs and magnitudes up to 1e8 cancel.  On these seeds
    # x86-64 OpenBLAS scores the two copies of one target (only zero rows
    # compete with them) more than u*|x|*|y| apart in some rows, which a
    # margin of u would miss; on any BLAS the output equals the oracle.
    rng = np.random.default_rng(seed)
    values = np.array([1.0, -1.0, 1e8, -1e8, 3e-8, 0.1, 1 / 3, 7.0])
    d = int(rng.choice([8, 16, 24, 32, 64]))
    copy = rng.choice(values, size=d) * rng.random(d)
    src = rng.choice(values, size=(64, d)) * rng.random((64, d))
    tgt = np.zeros((300, d))
    tgt[5] = tgt[299] = copy
    assert cosine_topk(VectorMatrix(values=src), VectorMatrix(values=tgt), 1) == topk(src, tgt, 1)


@st.composite
def _vector_pairs(draw):
    """Source and target rows, dense or sparse, with ties and zero rows."""
    m, n, d = draw(st.integers(1, 12)), draw(st.integers(0, 12)), draw(st.integers(1, 8))
    # large values of both signs cancel, so summation order shows in the last bits
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.1, 1 / 3, 1e8, -1e8, 3e-8]), st.floats(-1.0, 1.0))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=6))
    src = np.array([draw(st.sampled_from(rows)) for _ in range(m)]).reshape(m, d)
    tgt = np.array([draw(st.sampled_from(rows)) for _ in range(n)]).reshape(n, d)
    if draw(st.booleans()):
        from scipy import sparse

        src, tgt = sparse.csr_matrix(src), sparse.csr_matrix(tgt)
    return src, tgt


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pair=_vector_pairs(), k=st.integers(1, 14), block_rows=st.integers(1, 5), workers=st.integers(1, 3))
def test_topk_equals_the_oracle_on_random_inputs(pair, k, block_rows, workers):
    src, tgt = pair
    with mock.patch.object(retrieval, "_BLOCK_ROWS", block_rows * workers), \
            mock.patch.object(retrieval, "_worker_count", lambda: workers):
        got = cosine_topk(VectorMatrix(values=src), VectorMatrix(values=tgt), k)
    assert got == topk(src, tgt, k)


def _descending(matrix):
    """The same CSR matrix with each row stored in descending column order, as TF-IDF rows are."""
    from scipy import sparse

    order = np.concatenate([np.arange(hi - 1, lo - 1, -1) for lo, hi in zip(matrix.indptr, matrix.indptr[1:])]
                           + [np.zeros(0, dtype=int)])
    return sparse.csr_matrix((matrix.data[order], matrix.indices[order], matrix.indptr), shape=matrix.shape)


# Dense-row costs that split every row off the marker, keep the rule (None), and score every row whole.
_EVERY_ROW_KIND = (10**9, None, 0)


def _row_kind(dense_bytes):
    return contextlib.nullcontext() if dense_bytes is None else mock.patch.object(retrieval, "_DENSE_BYTES", dense_bytes)


@st.composite
def _marker_pairs(draw):
    """Sparse rows that all store one shared column unless it draws 0, like CP texts' ``parents``."""
    from scipy import sparse

    m, n, d = draw(st.integers(1, 12)), draw(st.integers(0, 12)), draw(st.integers(2, 8))
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.1, -0.1, 1 / 3, 1e8, -1e8, 3e-8]), st.floats(-1.0, 1.0))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=6))
    marker = draw(st.integers(0, d - 1))
    # few distinct marker values, so marker-only targets tie
    marker_value = st.sampled_from(draw(st.lists(value, min_size=1, max_size=3)))
    src, tgt = (np.array([draw(st.sampled_from(rows)) for _ in range(size)]).reshape(size, d) for size in (m, n))
    src[:, marker] = [draw(marker_value) for _ in range(m)]
    tgt[:, marker] = [draw(marker_value) for _ in range(n)]
    src = sparse.csr_matrix(src)
    return (_descending(src) if draw(st.booleans()) else src), sparse.csr_matrix(tgt)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair=_marker_pairs(), k=st.integers(1, 14), block_rows=st.integers(1, 5), workers=st.integers(1, 3),
       dense_bytes=st.sampled_from(_EVERY_ROW_KIND))
def test_sparse_topk_with_a_shared_column_equals_the_oracle(pair, k, block_rows, workers, dense_bytes):
    src, tgt = pair
    with mock.patch.object(retrieval, "_BLOCK_ROWS", block_rows * workers), _row_kind(dense_bytes), \
            mock.patch.object(retrieval, "_worker_count", lambda: workers):
        got = cosine_topk(VectorMatrix(values=src), VectorMatrix(values=tgt), k)
    assert got == topk(src, tgt, k)


def _sparse_topk(source, target, k):
    from scipy import sparse

    src, tgt = sparse.csr_matrix(np.array(source, dtype=float)), sparse.csr_matrix(np.array(target, dtype=float))
    expected = topk(src, tgt, k)
    for dense_bytes in _EVERY_ROW_KIND:
        with _row_kind(dense_bytes):
            assert cosine_topk(VectorMatrix(values=src), VectorMatrix(values=tgt), k) == expected
    return [[j for j, _ in row] for row in expected]


@pytest.mark.parametrize("a", [0.5, -0.5])
def test_marker_only_ties_at_the_k_boundary_go_to_the_lower_index(a):
    # Column 0 is the marker.  Targets 6 and 7 share column 1 with the
    # source; targets 0-5 hold the marker only, all with one value, and
    # rank after the two by index, whatever the sign of the marker product.
    targets = [[0.2, 0.0]] * 6 + [[0.2, 1.0], [0.2, 2.0]]
    assert _sparse_topk([[a, 1.0]], targets, 5) == [[7, 6, 0, 1, 2]]


@pytest.mark.parametrize("a", [0.6, -0.6])
def test_marker_products_that_round_equal_tie_by_index(a):
    # b and the next float above it give the same product with a, so the
    # lower index ranks first although the walk by b_m meets the other one
    # first: for a > 0 the larger b_m comes first, for a < 0 the smaller.
    b = next(b for b in np.linspace(0.5, 0.9, 1001) if a * b == a * np.nextafter(b, 1.0))
    low, high = b, np.nextafter(b, 1.0)
    # the two rank first, ahead of targets further down the walk
    targets = [[low], [high], [0.1], [0.2]] if a > 0 else [[high], [low], [0.95], [0.99]]
    assert _sparse_topk([[a]], targets, 1) == [[0]]
    assert _sparse_topk([[a]], targets, 3) == [[0, 1, 3 if a > 0 else 2]]
    # The walk meets target 3 first, then the run of targets 0 and 1; the
    # second of that run ties with target 3 too, and has the lower index.
    targets = [[low], [low], [0.1], [high]] if a > 0 else [[high], [high], [0.95], [low]]
    assert _sparse_topk([[a]], targets, 2) == [[0, 1]]


def test_sparse_shortlist_margin_covers_cancelling_sums():
    # The source stores the marker (column 0) before two terms whose
    # products cancel: summed in storage order, target 0 rounds x up to the
    # grid of 1e8, while the shortlist's reordered sum reads x itself, below
    # the marker-only target 1.  Only the margin keeps target 0 in the race.
    x = next(x for x in np.linspace(0.3, 0.31, 101) if (x + 1e8) - 1e8 > np.nextafter(x, 1.0))
    stored_order = (x + 1e8) - 1e8
    between = np.nextafter(x, 1.0)
    assert x < between < stored_order
    assert _sparse_topk([[1.0, 1e8, 1e8]], [[x, 1.0, -1.0], [between, 0.0, 0.0]], 1) == [[0]]


def test_a_sum_that_cancels_keeps_the_other_candidates_scores():
    # Column 0 is the marker.  Targets 1 and 2 share column 1 with the
    # source; target 0 shares columns 2 and 3, whose products cancel to 0,
    # so the values product drops it.  scipy lists the row's columns as 0,
    # 2, 1, so the values must be matched to the candidates by column.
    targets = [[0.2, 0.0, 1.0, -1.0], [0.2, 0.3, 0.0, 0.0], [0.2, 0.9, 0.0, 0.0], [0.2, 0.0, 0.0, 0.0]]
    # target 0 sums (0.1 + 1e8) - 1e8 in storage order, just below target 3's 0.1
    assert _sparse_topk([[0.5, 1.0, 1e8, 1e8]], targets, 4) == [[2, 1, 3, 0]]


def test_a_root_row_ranks_its_zero_scores_by_index():
    # The source lacks the marker (column 0), as a root concept's CP text
    # does, and shares column 1 with two targets only.  Every other target
    # scores 0 and must follow by index, not by its marker value.
    targets = [[0.9, 0.0], [0.1, 0.0], [0.5, 1.0], [0.7, 0.0], [0.3, 2.0], [0.8, 0.0]]
    assert _sparse_topk([[0.0, 1.0]], targets, 5) == [[4, 2, 0, 1, 3]]


def test_a_target_matrix_without_stored_entries():
    assert _sparse_topk([[0.5, 1.0], [0.0, 0.0]], np.zeros((4, 2)), 3) == [[0, 1, 2], [0, 1, 2]]


def test_tfidf_scores_keep_the_rows_storage_order():
    # TF-IDF rows are stored in descending column order; summed in sorted
    # order, some pairs differ in the last bit.  Find such a corpus.
    for seed in range(100):
        texts = random_texts(random.Random(seed), 60, max_words=6)
        model = TfidfModel().fit(texts)
        src, tgt = model.transform(texts[:30]), model.transform(texts[30:])
        if ((src @ tgt.T) != (src.sorted_indices() @ tgt.T)).nnz:
            break
    else:
        pytest.fail("no corpus where the storage order moves a sum")
    assert not src.has_sorted_indices
    for dense_bytes in _EVERY_ROW_KIND:
        with _row_kind(dense_bytes):
            assert cosine_topk(VectorMatrix(values=src), VectorMatrix(values=tgt), 30) == topk(src, tgt, 30)


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
    for endpoint in ("mock:?dim=x", "mock:?dims=8", "mock:?dim=8&dim=9", "mock:dim=8", "mock:?dim=", "mock:?dim=0",
                     "mock:?dim=-3"):
        with pytest.raises(ConfigError, match=re.escape(repr(endpoint))):
            RetrievalConfig(provider_endpoint=endpoint).validate()  # whatever the backend


@pytest.mark.parametrize("call", [
    lambda: RetrievalConfig(top_k=True).validate(),
    lambda: RetrievalConfig(top_k=2.5).validate(),
    lambda: RetrievalConfig(batch_size=True).validate(),
    lambda: RetrievalConfig(batch_size=2.5).validate(),
    lambda: HttpEmbeddingProvider(RetrievalConfig(backend="embedding", provider_endpoint="http://127.0.0.1:9",
                                                  batch_size=2.5)),
    lambda: cosine_topk(VectorMatrix(values=np.eye(2)), VectorMatrix(values=np.eye(2)), 2.5),
    lambda: cosine_topk(VectorMatrix(values=np.eye(2)), VectorMatrix(values=np.eye(2)), True),
    lambda: LLMConfig(batch_size=2.5).validate(),
    lambda: LLMConfig(batch_size=True).validate(),
    lambda: LLMConfig(max_new_tokens=2.5).validate(),
    lambda: LLMConfig(max_new_tokens=True).validate(),
    lambda: PipelineConfig(source_path="s.owl", target_path="t.owl", pair_cap=1.5).validate(),
    lambda: RAGConfig(shots=1.5).validate(),
    lambda: RAGConfig(shots=True).validate(),
    lambda: MockEmbeddingProvider(dim=2.5),
], ids=["top_k-bool", "top_k-float", "batch_size-bool", "batch_size-float", "provider-batch_size-float",
        "k-float", "k-bool", "llm-batch_size-float", "llm-batch_size-bool", "max_new_tokens-float",
        "max_new_tokens-bool", "pair_cap-float", "shots-float", "shots-bool", "dim-float"])
def test_integer_settings_reject_bools_and_floats(call):
    with pytest.raises(ConfigError):
        call()


def test_integer_settings_take_numpy_integers():
    RetrievalConfig(top_k=np.int64(3), batch_size=np.int32(2)).validate()
    ranked = cosine_topk(VectorMatrix(values=np.eye(3)), VectorMatrix(values=np.eye(3)), np.int64(2))
    assert [[j for j, _ in row] for row in ranked] == [[0, 1], [1, 0], [2, 0]]
    LLMConfig(batch_size=np.int64(2), max_new_tokens=np.int64(3)).validate()
    PipelineConfig(source_path="s.owl", target_path="t.owl", pair_cap=np.int64(5)).validate()
    RAGConfig(shots=np.int64(0)).validate()
    assert MockEmbeddingProvider(dim=np.int64(4)).embed(["alloy"]).shape == (1, 4)


@pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf, "30", True])
def test_retrieval_config_rejects_bad_timeouts(timeout):
    with pytest.raises(ConfigError):
        RetrievalConfig(timeout=timeout).validate()


@pytest.mark.parametrize("config, name, value", [
    *((config, name, value)
      for config, name in [(FuzzyConfig, "threshold"), (RetrievalConfig, "threshold"), (RAGConfig, "llm_threshold"),
                           (PostprocessConfig, "threshold")]
      for value in (True, "0.5", math.nan)),
    (LLMConfig, "request_timeout", "30"),
    (LLMConfig, "temperature", True),
])
def test_number_settings_refuse_bools_text_and_nan(config, name, value):
    with pytest.raises(ConfigError, match=name):
        config(**{name: value}).validate()


def test_view_and_empty_corpus_errors():
    src = make_corpus(["alloy"], view=EncodingView.C)
    tgt_view = make_corpus(["alloy"], view=EncodingView.CP, prefix="http://example.org/b#")
    with pytest.raises(ViewMismatch):
        align_retrieval(src, tgt_view, RetrievalConfig())
    with pytest.raises(EmptyCorpus):
        align_retrieval(src, make_corpus([], prefix="http://example.org/b#"), RetrievalConfig())
