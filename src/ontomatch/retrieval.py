"""Retrieval-based alignment: vector encodings plus exact top-k cosine.

Two vector backends share one candidate-selection path:

* ``tfidf``      sparse term vectors with smoothed inverse document
  frequency, fitted jointly on source and target texts;
* ``embedding``  dense sentence vectors from an HTTP provider (or the
  deterministic offline mock used in tests).

Unlike the fuzzy aligner this stage is recall-oriented: every top-k
candidate at or above the similarity threshold is emitted, and a later
filtering stage decides what survives.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass
from urllib.parse import parse_qs, urlparse

import numpy as np
from scipy import sparse

from .encoding import EncodedCorpus, tokenize
from .errors import ConfigError, DimensionMismatch, EmptyCorpus, ProviderError, ViewMismatch
from .mapping import Correspondence
from .transport import connection_pool, post_json

_BACKENDS = ("tfidf", "embedding")
# Source rows whose similarity rows are in memory at once, across all workers.
_BLOCK_ROWS = 512
# Scratch bytes one sparse block may hold: its sparse product (8-byte value
# plus 4-byte column index) and the dense copy of it, 20 bytes per target.
# Each worker thread's allocator keeps about one block of freed scratch for
# the next block, so the budget sets what stays resident.  Measured on
# 10k x 10k TF-IDF rows with 2 threads: 2 MiB keeps the run's peak RSS
# lowest without costing time; smaller blocks pay more per-block overhead.
_SCRATCH_BYTES = 2 << 20
_MAX_WORKERS = 8

# Ranked candidates per source row: (target row index, cosine similarity).
CandidateList = list[list[tuple[int, float]]]


@dataclass(frozen=True)
class RetrievalConfig:
    """Settings for :func:`align_retrieval`.

    Attributes:
        backend: "tfidf" or "embedding".
        top_k: candidates kept per source concept.
        threshold: minimum similarity for a candidate to be emitted.
        provider_endpoint: embedding service URL; the "mock:" scheme selects
            the offline hash-based provider.
        model: model identifier forwarded to the embedding service.
        batch_size: texts per embedding request.
        timeout: per-request timeout in seconds.
    """

    backend: str = "tfidf"
    top_k: int = 10
    threshold: float = 0.0
    provider_endpoint: str | None = None
    model: str | None = None
    batch_size: int = 32
    timeout: float = 30.0

    def validate(self) -> None:
        if self.backend not in _BACKENDS:
            raise ConfigError(f"unknown retrieval backend: {self.backend!r}")
        if not isinstance(self.top_k, int) or self.top_k < 1:
            raise ConfigError(f"top_k must be a positive integer, got {self.top_k!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"retrieval threshold must be in [0, 1], got {self.threshold}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ConfigError(f"timeout must be finite and positive, got {self.timeout}")


@dataclass(frozen=True)
class VectorMatrix:
    """Row vectors (one per text), L2-normalized where non-zero."""

    values: np.ndarray | sparse.csr_matrix

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


class TfidfModel:
    """Term frequency scaled by smoothed inverse document frequency.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, rows L2-normalized.  Terms are
    lowercased alphanumeric tokens; the vocabulary is sorted for
    reproducible column order.
    """

    def __init__(self) -> None:
        self.vocabulary: dict[str, int] = {}
        self.idf: np.ndarray = np.zeros(0)

    def fit(self, corpus: list[str] | tuple[str, ...]) -> "TfidfModel":
        if not corpus:
            raise EmptyCorpus("cannot fit TF-IDF on an empty corpus")
        doc_freq: dict[str, int] = {}
        for text in corpus:
            for term in set(tokenize(text)):
                doc_freq[term] = doc_freq.get(term, 0) + 1
        self.vocabulary = {term: i for i, term in enumerate(sorted(doc_freq))}
        n_docs = len(corpus)
        idf = np.zeros(len(self.vocabulary))
        for term, col in self.vocabulary.items():
            idf[col] = math.log((1 + n_docs) / (1 + doc_freq[term])) + 1.0
        self.idf = idf
        return self

    def transform(self, texts: list[str] | tuple[str, ...]) -> sparse.csr_matrix:
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for text in texts:
            counts: dict[int, int] = {}
            for term in tokenize(text):
                col = self.vocabulary.get(term)
                if col is not None:
                    counts[col] = counts.get(col, 0) + 1
            for col in sorted(counts):
                indices.append(col)
                data.append(counts[col] * self.idf[col])
            indptr.append(len(indices))
        matrix = sparse.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int32), np.asarray(indptr, dtype=np.int32)),
            shape=(len(texts), len(self.vocabulary)),
        )
        return _normalize_rows_sparse(matrix)


def _normalize_rows_sparse(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return (sparse.diags(scale) @ matrix).tocsr()


def normalize_rows(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    return np.divide(values, norms, out=np.zeros_like(values), where=norms > 0)


# --------------------------------------------------------------------------
# Embedding providers
# --------------------------------------------------------------------------


class MockEmbeddingProvider:
    """Deterministic offline provider: hash-seeded pseudo-random unit rows.

    The same (seed, text) always maps to the same vector, so runs are
    reproducible without any service.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ConfigError(f"embedding dim must be positive, got {dim}")
        self.dim = dim
        self.seed = seed

    def close(self) -> None:
        """Nothing to release; here for the :class:`HttpEmbeddingProvider` surface."""

    def embed(self, texts: list[str] | tuple[str, ...]) -> np.ndarray:
        rows = np.empty((len(texts), self.dim))
        for i, text in enumerate(texts):
            digest = hashlib.sha256(f"{self.seed}|{text}".encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            rows[i] = rng.standard_normal(self.dim)
        return normalize_rows(rows)


class HttpEmbeddingProvider:
    """Client for a JSON embedding service.

    Request: ``{"input": [texts...], "model": name}``.  Response:
    ``{"data": [{"index": i, "embedding": [...]}, ...]}``; rows are
    re-assembled by index, so providers may answer out of order.  Batches
    go out one at a time over one keep-alive connection; :meth:`close`
    releases it.
    """

    def __init__(self, endpoint: str, model: str | None = None,
                 batch_size: int = 32, timeout: float = 30.0):
        self.endpoint = endpoint
        self.model = model or "default"
        self.batch_size = max(1, batch_size)
        self.timeout = timeout
        self._pool = connection_pool(endpoint)

    def close(self) -> None:
        """Close the pooled connection."""
        self._pool.clear()

    def embed(self, texts: list[str] | tuple[str, ...]) -> np.ndarray:
        chunks: list[np.ndarray] = []
        dim: int | None = None
        for start in range(0, len(texts), self.batch_size):
            batch = list(texts[start:start + self.batch_size])
            payload = {"input": batch, "model": self.model}
            body = post_json(self.endpoint, payload, pool=self._pool, timeout=self.timeout)
            rows = self._unpack(body, len(batch))
            if dim is None:
                dim = rows.shape[1]
            elif rows.shape[1] != dim:
                raise DimensionMismatch(
                    f"provider switched embedding width from {dim} to {rows.shape[1]}"
                )
            chunks.append(rows)
        if not chunks:
            return np.zeros((0, 0))
        return normalize_rows(np.vstack(chunks))

    @staticmethod
    def _unpack(body: dict, expected: int) -> np.ndarray:
        data = body.get("data")
        if not isinstance(data, list) or len(data) != expected:
            raise ProviderError(200, f"embedding response has {len(data) if isinstance(data, list) else 'no'} rows, expected {expected}")
        slots: list[list[float] | None] = [None] * expected
        for item in data:
            try:
                slots[int(item["index"])] = item["embedding"]
            except (KeyError, TypeError, ValueError, IndexError):
                raise ProviderError(200, "embedding response item lacks index/embedding") from None
        if any(slot is None for slot in slots):
            raise ProviderError(200, "embedding response indexes do not cover the batch")
        widths = {len(s) for s in slots}  # type: ignore[arg-type]
        if len(widths) != 1:
            raise DimensionMismatch(f"embedding rows of mixed widths {sorted(widths)}")
        return np.asarray(slots, dtype=float)


def make_embedding_provider(cfg: RetrievalConfig, seed: int = 0):
    """Build the provider named by ``cfg.provider_endpoint``."""
    endpoint = cfg.provider_endpoint
    if not endpoint:
        raise ConfigError("embedding backend needs provider_endpoint")
    if endpoint.startswith("mock:"):
        query = parse_qs(urlparse(endpoint).query)
        dim = int(query.get("dim", ["64"])[0])
        mock_seed = int(query["seed"][0]) if "seed" in query else seed
        return MockEmbeddingProvider(dim=dim, seed=mock_seed)
    return HttpEmbeddingProvider(endpoint, cfg.model, cfg.batch_size, cfg.timeout)


# --------------------------------------------------------------------------
# Candidate selection
# --------------------------------------------------------------------------


def cosine_topk(source: VectorMatrix, target: VectorMatrix, k: int) -> CandidateList:
    """Exact top-k cosine candidates for every source row.

    Rows are assumed normalized, so the similarity is a plain dot product.
    Candidates are ranked by descending similarity with ties broken by
    ascending target index; the ranking for k is always a prefix of the
    ranking for k+1.

    Sparse (TF-IDF) sources are scored in row blocks on up to
    ``min(cores, 8)`` threads.  A block holds at most 512 / threads rows
    and at most ``_SCRATCH_BYTES`` (2 MiB) of scratch, about 20 bytes per
    (row, target) pair, so the memory in flight does not grow with the
    number of targets.  A sparse row's sums do not depend on the rows
    around it, so the output is exact: the same at any core count and
    block size.  BLAS picks its kernels by matrix shape and by a row's
    place in the matrix, so the last bits of a dense row's sums depend on
    its block; dense (embedding) sources keep 512-row blocks on one
    thread, whatever the core count, and BLAS threads each product itself.
    """
    if k < 1:
        raise ConfigError(f"top_k must be >= 1, got {k}")
    if source.dim != target.dim:
        raise DimensionMismatch(f"source dim {source.dim} != target dim {target.dim}")
    k_eff = min(k, target.rows)
    if sparse.issparse(source.values):
        workers = _worker_count()
        rows = max(1, min(_BLOCK_ROWS // workers, _SCRATCH_BYTES // (20 * max(1, target.rows))))
        # One CSR transpose up front; a CSC one is converted on every product.
        target_t = sparse.csr_matrix(target.values.T)
    else:
        # Dense blocks stay whole: their sums depend on the block (see above).
        workers, rows = 1, _BLOCK_ROWS
        target_t = target.values.T

    def score(start: int) -> CandidateList:
        block = source.values[start:start + rows]
        n = block.shape[0]
        if n == 1 and not sparse.issparse(block):
            # numpy hands a one-row product to gemv, whose sums differ in
            # the last bits from a gemm row's.
            block = np.repeat(block, 2, axis=0)
        sims = block @ target_t
        if sparse.issparse(sims):
            sims = sims.toarray()
        return [_select_topk(row, k_eff) for row in np.asarray(sims)[:n]]

    starts = range(0, source.rows, rows)
    if workers == 1 or len(starts) == 1:
        blocks = map(score, starts)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(score, starts))
    return [ranked for block in blocks for ranked in block]


def _worker_count() -> int:
    """Cores this process may run on, at most ``_MAX_WORKERS``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        cores = os.cpu_count() or 1
    return min(cores, _MAX_WORKERS)


def _select_topk(row: np.ndarray, k: int) -> list[tuple[int, float]]:
    n = row.shape[0]
    if k >= n:
        candidates = np.arange(n)
    else:
        # The k-th largest value: partitioning values is cheaper than
        # partitioning indices.  Re-gather everything at or above it so equal
        # values are decided by index, not by the partition's arbitrary split.
        floor = -np.partition(-row, k - 1)[k - 1]
        candidates = np.flatnonzero(row >= floor)
    order = np.lexsort((candidates, -row[candidates]))
    chosen = candidates[order[:k]]
    return list(zip(chosen.tolist(), row[chosen].tolist()))


# --------------------------------------------------------------------------
# Alignment
# --------------------------------------------------------------------------


def align_retrieval(
    source: EncodedCorpus,
    target: EncodedCorpus,
    cfg: RetrievalConfig,
    provider=None,
    seed: int = 0,
) -> list[Correspondence]:
    """High-recall candidate alignment between two encoded corpora.

    Every top-k candidate whose similarity reaches ``cfg.threshold`` is
    emitted, ordered by source index then rank.  The TF-IDF vocabulary is
    fitted on the union of both corpora so the two sides share one space.

    Raises:
        ViewMismatch: corpora encoded under different views.
        EmptyCorpus: either corpus has no texts.
        ConfigError: invalid settings.
    """
    cfg.validate()
    if source.view is not target.view:
        raise ViewMismatch(f"source view {source.view.value} != target view {target.view.value}")
    if not source.texts or not target.texts:
        raise EmptyCorpus("both corpora need at least one text")

    if cfg.backend == "tfidf":
        model = TfidfModel().fit(list(source.texts) + list(target.texts))
        src_vec = VectorMatrix(values=model.transform(source.texts))
        tgt_vec = VectorMatrix(values=model.transform(target.texts))
    else:
        with ExitStack() as owned:
            if provider is None:
                provider = owned.enter_context(closing(make_embedding_provider(cfg, seed=seed)))
            src_vec = VectorMatrix(values=provider.embed(source.texts))
            tgt_vec = VectorMatrix(values=provider.embed(target.texts))

    provenance = f"retrieval:{cfg.backend}"
    out: list[Correspondence] = []
    for i, ranked in enumerate(cosine_topk(src_vec, tgt_vec, cfg.top_k)):
        for j, sim in ranked:
            if sim >= cfg.threshold:
                score = min(1.0, max(0.0, sim))
                out.append(Correspondence(source.iris[i], target.iris[j], "=", score, provenance))
    return out
