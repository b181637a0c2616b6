"""Retrieval-based alignment: vector encodings plus exact top-k cosine.

Two vector backends share one candidate-selection path:

* ``tfidf``      sparse term vectors with smoothed inverse document
  frequency, fitted jointly on source and target texts;
* ``embedding``  dense sentence vectors from an HTTP provider (or the
  deterministic offline mock used in tests).

Unlike the fuzzy aligner this stage is recall-oriented: every top-k
candidate at or above the similarity threshold is emitted, and a later
filtering stage decides what survives.

scipy is imported by the TF-IDF path only, on its first transform: a
vector matrix is dense when its values are a numpy array, so embedding
retrieval and the other aligners never load it.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .encoding import EncodedCorpus, tokenize
from .errors import ConfigError, DimensionMismatch, EmptyCorpus, ProviderError, ViewMismatch
from .mapping import Correspondence
from .transport import connection_pool, mock_query, post_json

if TYPE_CHECKING:
    from scipy import sparse

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
# Unit roundoff of float64: one rounding errs by at most this relative amount.
_U = 2.0 ** -53

# Ranked candidates per source row: (target row index, cosine similarity).
CandidateList = list[list[tuple[int, float]]]


@dataclass(frozen=True)
class RetrievalConfig:
    """Settings for :func:`align_retrieval`.

    Attributes:
        backend: "tfidf" or "embedding".
        top_k: candidates kept per source concept.
        threshold: minimum similarity for a candidate to be emitted.
        provider_endpoint: embedding service URL, or "mock:?dim=N&seed=M"
            (both optional) for the offline hash-based provider.
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
        mock_query(self.provider_endpoint)


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
        from scipy import sparse

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
    from scipy import sparse

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

    def __init__(self, cfg: RetrievalConfig):
        cfg.validate()
        if not cfg.provider_endpoint:
            raise ConfigError("embedding backend needs provider_endpoint")
        self.cfg = cfg
        self._pool = connection_pool(cfg.provider_endpoint)

    def close(self) -> None:
        """Close the pooled connection."""
        self._pool.clear()

    def embed(self, texts: list[str] | tuple[str, ...]) -> np.ndarray:
        cfg = self.cfg
        chunks: list[np.ndarray] = []
        dim: int | None = None
        for start in range(0, len(texts), cfg.batch_size):
            batch = list(texts[start:start + cfg.batch_size])
            payload = {"input": batch, "model": cfg.model or "default"}
            body = post_json(cfg.provider_endpoint, payload, pool=self._pool, timeout=cfg.timeout)
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
                index, vector = item["index"], item["embedding"]
            except (KeyError, TypeError):
                raise ProviderError(200, "embedding response item lacks index/embedding") from None
            if type(index) is not int or not 0 <= index < expected or not isinstance(vector, list):
                raise ProviderError(200, f"embedding item {index!r} is not an index in [0, {expected}) with a list")
            slots[index] = vector
        if any(slot is None for slot in slots):
            raise ProviderError(200, "embedding response indexes do not cover the batch")
        widths = {len(s) for s in slots}  # type: ignore[arg-type]
        if len(widths) != 1:
            raise DimensionMismatch(f"embedding rows of mixed widths {sorted(widths)}")
        # JSON numbers arrive as int or float, and Python's json parses NaN and Infinity as floats.
        numbers = {type(value) for slot in slots for value in slot} <= {int, float}  # type: ignore[union-attr]
        try:
            rows = np.asarray(slots, dtype=float) if numbers else None
        except OverflowError:  # an integer beyond the float range
            rows = None
        if rows is None or not rows.size or not np.isfinite(rows).all():
            raise ProviderError(200, "embedding response holds an empty vector or a value that is not a finite number")
        return rows


def make_embedding_provider(cfg: RetrievalConfig):
    """Build the provider named by ``cfg.provider_endpoint``: a URL, or "mock:"."""
    cfg.validate()
    query = mock_query(cfg.provider_endpoint)
    if query is not None:
        return MockEmbeddingProvider(**query)
    return HttpEmbeddingProvider(cfg)


# --------------------------------------------------------------------------
# Candidate selection
# --------------------------------------------------------------------------


def cosine_topk(source: VectorMatrix, target: VectorMatrix, k: int) -> CandidateList:
    """Exact top-k cosine candidates for every source row.

    Rows are assumed normalized, so the similarity is a plain dot product.
    Candidates are ranked by descending similarity with ties broken by
    ascending target index; the ranking for k is always a prefix of the
    ranking for k+1.  Blocks of at most 512 / threads rows run on up to
    ``min(cores, 8)`` threads; a sparse (TF-IDF) block also holds at most
    ``_SCRATCH_BYTES`` (2 MiB), about 20 bytes per (row, target) pair.
    No score depends on its block, the core count or the BLAS: sparse
    sums never do, and a dense (embedding) row scores the left-to-right
    sum of its float64 products, which BLAS only shortlists.

    Summed in any order, the products lie within γ_d·‖x‖‖y‖ of the exact
    dot product, γ_d = d·u/(1 - d·u), u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §3.1).  With t the k-th
    largest BLAS score and E = γ_d·‖x‖·max_j ‖y_j‖, the fixed-order top k
    scores at least t - 2E, as the k targets at or above t do, so its BLAS
    scores are at least t - 4E: every target there is rescored.  The
    margin uses the computed norms, plus 2u·‖x‖·max_j ‖y_j‖ for rounding.
    """
    if k < 1:
        raise ConfigError(f"top_k must be >= 1, got {k}")
    if source.dim != target.dim:
        raise DimensionMismatch(f"source dim {source.dim} != target dim {target.dim}")
    k_eff = min(k, target.rows)
    workers = _worker_count()
    rows = max(1, _BLOCK_ROWS // workers)
    dense = isinstance(source.values, np.ndarray)
    if dense:
        gamma = target.dim * _U / (1 - target.dim * _U)
        slack = (4 * gamma + 2 * _U) * np.linalg.norm(target.values, axis=1).max(initial=0.0)
        target_t = target.values.T
    else:
        from scipy import sparse

        rows = max(1, min(rows, _SCRATCH_BYTES // (20 * max(1, target.rows))))
        # One CSR transpose up front; a CSC one is converted on every product.
        target_t = sparse.csr_matrix(target.values.T)

    def score(start: int) -> CandidateList:
        block = source.values[start:start + rows]
        if not dense:
            return [_select_topk(row, k_eff) for row in (block @ target_t).toarray()]
        scored = zip(block @ target_t, slack * np.linalg.norm(block, axis=1), block)
        return [_select_topk(row, k_eff, margin, x, target.values) for row, margin, x in scored]

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


def _select_topk(row: np.ndarray, k: int, margin: float = 0.0, x: np.ndarray | None = None,
                 targets: np.ndarray | None = None) -> list[tuple[int, float]]:
    """Top k of the targets within ``margin`` of the k-th largest, scored by x·y summed in order if given."""
    n = row.shape[0]
    if k >= n:
        candidates = np.arange(n)
    else:
        # The k-th largest value: partitioning values is cheaper than
        # partitioning indices.  Re-gather everything from it down to the
        # margin so equal values are decided by index, not by the split.
        floor = np.partition(row, n - k)[n - k]
        candidates = np.flatnonzero(row >= floor - margin)
    scores = row[candidates] if x is None or not x.size else np.add.accumulate(x * targets[candidates], axis=1)[:, -1]
    order = np.lexsort((candidates, -scores))[:k]
    return list(zip(candidates[order].tolist(), scores[order].tolist()))


# --------------------------------------------------------------------------
# Alignment
# --------------------------------------------------------------------------


def align_retrieval(
    source: EncodedCorpus,
    target: EncodedCorpus,
    cfg: RetrievalConfig,
    provider=None,
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
                provider = owned.enter_context(closing(make_embedding_provider(cfg)))
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
