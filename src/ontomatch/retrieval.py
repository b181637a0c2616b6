"""Retrieval-based alignment: vector encodings plus exact top-k cosine.

Two vector backends share one candidate-selection path:

* ``tfidf``      sparse term vectors with smoothed inverse document
  frequency, fitted jointly on source and target texts;
* ``embedding``  dense sentence vectors from an HTTP provider (or the
  deterministic offline mock used in tests).

Unlike the fuzzy aligner this stage is recall-oriented: every top-k
candidate at or above the similarity threshold is emitted, and a later
filtering stage decides what survives.

Top-k is exact.  A sparse pair scores what scipy's CSR product sums: from
0, adding the products in the source row's storage order (TF-IDF rows are
stored in descending column order).  The term in the most target texts,
such as the CP view's ``parents``, would make every product row dense, so
it is split off: a target sharing only that term scores its one product,
and the product without it names the targets whose sums hold more.  A
row that could share another term with a large part of the targets is
cheaper scored whole, as a dense row.  A sum in another order (BLAS for
dense rows, the split for sparse ones) only shortlists, within the
rounding bound of :func:`cosine_topk`.

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

from .encoding import EncodedCorpus, check_alignable, tokenize
from .errors import ConfigError, DimensionMismatch, EmptyCorpus, ProviderError
from .errors import check_choice, check_count, check_finite, check_fraction
from .mapping import Correspondence
from .transport import connection_pool, mock_query, post_json

if TYPE_CHECKING:
    from scipy import sparse

_BACKENDS = ("tfidf", "embedding")
# Source rows whose similarity rows are in memory at once, across all workers.
_BLOCK_ROWS = 512
# Scratch bytes one sparse block may hold: _PAIR_BYTES per candidate pair
# of a row split off the marker (tracemalloc reads up to 82 at a block's
# peak), _DENSE_BYTES per target of a row scored whole (its product, an
# 8-byte value and a 4-byte column index, and the dense copy of it).  On
# the 10k x 10k CP benchmark, fresh `bench/probe.py run` processes (4 per
# budget) peaked at a median of 106.2, 106.9 and 107.2 MiB with budgets
# of 1, 2 and 4 MiB on 2 cores, and 106.9, 106.9 and 107.9 on one: the
# allocator moves the peak about as much as the budget does.
_SCRATCH_BYTES = 2 << 20
_PAIR_BYTES = 96
_DENSE_BYTES = 20
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
        check_choice("retrieval backend", self.backend, _BACKENDS)
        check_count("top_k", self.top_k)
        check_fraction("retrieval threshold", self.threshold)
        check_count("batch_size", self.batch_size)
        check_finite("timeout", self.timeout, positive=True)
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
        check_count("embedding dim", dim)
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
    ``min(cores, 8)`` threads.  No score depends on its block, the core
    count or the BLAS: a sparse (TF-IDF) pair scores the sum scipy's
    ``csr_matmat`` forms, from 0 in the source row's storage order, and a
    dense (embedding) pair the left-to-right sum of its float64 products.
    A sum in any other order only shortlists.

    Summed in any order, the products lie within γ_d·‖x‖‖y‖ of the exact
    dot product, γ_d = d·u/(1 - d·u), u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §3.1).  With t the k-th
    largest reordered score and E = γ_d·‖x‖·max_j ‖y_j‖, the exact top k
    scores at least t - 2E, as the k targets at or above t do, so its
    reordered scores are at least t - 4E: every target there is rescored.
    The margin uses the computed norms, plus 2u·‖x‖·max_j ‖y_j‖ for
    rounding.  Dense rows reorder through BLAS.  Sparse rows split off the
    column stored by the most targets: a target that shares only it with
    the row scores that one product, exactly; for the others the product
    without it plus its rank-one term is the reordered sum.  A sparse row
    whose other terms could reach more targets than a dense row's scratch
    pays for is scored whole instead (:func:`_sparse_scorer`).
    """
    check_count("top_k", k)
    if source.dim != target.dim:
        raise DimensionMismatch(f"source dim {source.dim} != target dim {target.dim}")
    if not target.rows:
        return [[] for _ in range(source.rows)]
    k_eff = min(k, target.rows)
    workers = _worker_count()
    rows = max(1, _BLOCK_ROWS // workers)
    gamma = target.dim * _U / (1 - target.dim * _U)
    margin_per_norm = 4 * gamma + 2 * _U  # the margin over ‖x‖·max_j ‖y_j‖
    if isinstance(source.values, np.ndarray):
        slack = margin_per_norm * np.linalg.norm(target.values, axis=1).max(initial=0.0)
        target_t = target.values.T

        def score(span: range) -> CandidateList:
            block = source.values[span.start:span.stop]
            scored = zip(block @ target_t, slack * np.linalg.norm(block, axis=1), block)
            return [_select_topk(row, k_eff, margin, x, target.values) for row, margin, x in scored]

        spans = [range(start, min(start + rows, source.rows)) for start in range(0, source.rows, rows)]
    else:
        spans, score = _sparse_scorer(source.values, target.values, k_eff, rows, margin_per_norm)

    if workers == 1 or len(spans) == 1:
        blocks = map(score, spans)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(score, spans))
    ranked: CandidateList = [[] for _ in range(source.rows)]
    for span, block in zip(spans, blocks):
        for i, row in zip(span, block):
            ranked[i] = row
    return ranked


def _sparse_scorer(src: sparse.csr_matrix, tgt: sparse.csr_matrix, k: int, rows: int, margin_per_norm: float):
    """Spans of source rows, and the function that ranks one span's top k.

    Every CP text holds ``parents``, so with it every product row would be
    dense.  The column m with the most stored target entries (the lowest
    on a tie) is split off instead:

    * A target that shares no stored term with the row but m scores
      exactly ``fl(a_m·b_m)``, the ``0 + p`` of scipy's loop: see
      ``marker_only``.
    * The other targets, the candidates, are the sparsity pattern of the
      product without m; scipy drops sums that cancel to 0, so its values
      cannot tell.  Those values plus the rank-one term ``a_m·b_m`` sum
      the exact products in another order, so the margin of
      :func:`cosine_topk` shortlists from them.
    * The shortlist is rescored as ``csr_matmat`` sums (:func:`_csr_sums`).

    The document frequencies of a row's terms other than m bound its
    candidates before any product.  A row whose bound costs more scratch
    than a dense row of all n targets, as when a second term is in half
    the targets, is scored whole instead: its full product, exact as
    scipy sums it, made dense and partitioned.  A span holds rows of one
    kind, at most ``_SCRATCH_BYTES`` of their scratch, and at most
    ``rows`` rows.
    """
    from scipy import sparse

    n, n_src = tgt.shape[0], src.shape[0]
    target_t = sparse.csr_matrix(tgt.T)  # terms x targets
    df = np.diff(target_t.indptr)
    marker, b_m = -1, np.zeros(n)
    if df.size:
        marker = int(df.argmax())
        lo, hi = target_t.indptr[marker:marker + 2]
        b_m[target_t.indices[lo:hi]] = target_t.data[lo:hi]
    pattern_t = _pattern(target_t)
    slack = margin_per_norm * np.sqrt(np.bincount(target_t.indices, weights=target_t.data ** 2, minlength=n)).max()

    src_rows = np.repeat(np.arange(n_src), np.diff(src.indptr))
    norms = np.sqrt(np.bincount(src_rows, weights=src.data ** 2, minlength=n_src))
    is_m = src.indices == marker
    a_m = np.zeros(n_src)
    a_m[src_rows[is_m]] = src.data[is_m]
    rest_rows, rest_cols = src_rows[~is_m], src.indices[~is_m]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rest_rows, minlength=n_src))))
    rest = sparse.csr_matrix((src.data[~is_m], rest_cols, indptr), shape=src.shape)
    split_cost = (np.minimum(np.bincount(rest_rows, weights=df[rest_cols], minlength=n_src), n) + k) * _PAIR_BYTES
    whole = split_cost > n * _DENSE_BYTES
    cost = np.where(whole, n * _DENSE_BYTES, split_cost)

    # Walks 0, 1 and 2 order the targets by descending b_m (for rows with
    # a_m > 0), ascending b_m (a_m < 0) and index (a_m = 0: every product
    # is 0).  Along its walk a row's products never rise, and each walk
    # keeps ascending indices inside a run of equal keys.
    keys = np.stack((-b_m, b_m, np.zeros(n)))
    walks = np.argsort(keys, axis=1, kind="stable").astype(np.int32)
    ranks = np.empty_like(walks)
    np.put_along_axis(ranks, walks, np.arange(n)[None, :], axis=1)
    keys = np.take_along_axis(keys, walks, axis=1)
    run_start = np.maximum.accumulate(np.where(_new_run(keys), np.arange(n, dtype=np.int32), 0), axis=1)
    run_end = np.minimum.accumulate(np.where(_new_run(keys[:, ::-1]), np.arange(n, 0, -1, dtype=np.int32), n),
                                    axis=1)[:, ::-1]
    del keys

    def marker_only(a: np.ndarray, cand_row: np.ndarray, cand: np.ndarray,
                    n_cand: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, target, score) for each row's first k targets outside its candidates.

        The walk goes to the k-th of them, and on past later runs of
        distinct ``b_m`` whose products round to its own: within one run
        the walk is index order already.  A row may get more than k; the
        ranking keeps its first k.
        """
        walk = np.where(a > 0, 0, np.where(a < 0, 1, 2))

        def walk_score(rank: np.ndarray) -> np.ndarray:
            return a * b_m[walks[walk, rank]]

        # `last`: the rank of a row's need-th target outside its candidates;
        # only candidates ranked before need + n_cand can come before it.
        need = np.minimum(k, n - n_cand)
        cand_rank = ranks[walk[cand_row], cand]
        early = cand_rank < (need + n_cand)[cand_row]
        ahead = np.sort(cand_row[early] * n + cand_rank[early])
        ahead_row = ahead // n
        passed = ahead % n - (np.arange(ahead.size) - np.searchsorted(ahead_row, ahead_row)) < need[ahead_row]
        last = need - 1 + np.bincount(ahead_row[passed], minlength=a.size)
        at = np.maximum(last, 0)
        v = walk_score(at)
        first, end = run_start[walk, at], run_end[walk, at]
        # Binary search for the first rank past `end` scoring below v.
        lo = end
        hi = np.where((end < n) & (walk_score(np.minimum(end, n - 1)) == v), n, end)
        while (lo < hi).any():
            active = lo < hi
            mid = (lo + hi) // 2
            below = walk_score(np.minimum(mid, n - 1)) < v
            hi = np.where(active & below, mid, hi)
            lo = np.where(active & ~below, mid + 1, lo)
        tied = (first > 0) & (walk_score(np.maximum(first - 1, 0)) == v) | (lo > end)
        depth = np.where(need > 0, np.where(tied, lo, last + 1), 0)
        row, rank = _ragged(depth)
        inside = cand_rank < depth[cand_row]
        outside = ~np.isin(row * n + rank, cand_row[inside] * n + cand_rank[inside])
        row, target = row[outside], walks[walk[row[outside]], rank[outside]]
        return row, target, a[row] * b_m[target]

    def score(span: np.ndarray) -> CandidateList:
        if whole[span[0]]:
            return [_select_topk(row, k) for row in (src[span] @ target_t).toarray()]
        block, a = rest[span], a_m[span]
        shared = _pattern(block) @ pattern_t
        values = block @ target_t
        n_cand = np.diff(shared.indptr)
        cand_row, _ = _ragged(n_cand)
        # scipy orders a product row's entries by the operands' patterns
        # alone, so the two products list theirs alike unless the values
        # product dropped a sum that cancelled to 0.
        if values.nnz == shared.nnz:
            cand, guess = shared.indices, values.data
        else:
            shared.sort_indices()
            values.sort_indices()
            cand, guess = shared.indices, np.zeros(shared.nnz)
            value_row, _ = _ragged(np.diff(values.indptr))
            guess[np.searchsorted(cand_row * n + cand, value_row * n + values.indices)] = values.data
        guess += a[cand_row] * b_m[cand]
        del values  # before the walk's scratch
        lone_row, lone, lone_score = marker_only(a, cand_row, cand, n_cand)

        row_all, score_all = np.concatenate((cand_row, lone_row)), np.concatenate((guess, lone_score))
        kth = score_all[_by_row(np.argsort(-score_all), row_all)[_row_offsets(row_all, a.size) + k - 1]]
        short = guess >= (kth - slack * norms[span])[cand_row]
        # Two products sum the same in either order, so a pair sharing one
        # term besides m, or a row without m, already has its exact score.
        redo = np.flatnonzero(short & (shared.data > 1) & (a != 0)[cand_row])
        guess[redo] = _csr_sums(src, tgt, span[cand_row[redo]], cand[redo])

        row_f, col_f = np.concatenate((cand_row[short], lone_row)), np.concatenate((cand[short], lone))
        score_f = np.concatenate((guess[short], lone_score)) + 0.0  # no -0.0
        # (-score, index) as one complex key, then rows
        order = _by_row(np.argsort(-score_f + 1j * col_f), row_f)
        take = order[(_row_offsets(row_f, a.size)[:, None] + np.arange(k)).ravel()]
        ranked = list(zip(col_f[take].tolist(), score_f[take].tolist()))
        return [ranked[i:i + k] for i in range(0, len(ranked), k)]

    # Rows split off m first, then whole rows, each kind in source order.
    order = np.argsort(whole, kind="stable")
    n_split = n_src - int(whole.sum())
    ends = np.cumsum(cost[order])
    spans, start = [], 0
    while start < n_src:
        stop = int(np.searchsorted(ends, ends[start] - cost[order[start]] + _SCRATCH_BYTES, side="right"))
        stop = min(max(stop, start + 1), start + rows, n_split if start < n_split else n_src)
        spans.append(order[start:stop])
        start = stop
    return spans, score


def _pattern(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """The same stored entries, all 1: a product of two counts the terms each pair shares."""
    from scipy import sparse

    return sparse.csr_matrix((np.ones(matrix.nnz, dtype=np.int32), matrix.indices, matrix.indptr),
                             shape=matrix.shape)


def _csr_sums(src: sparse.csr_matrix, tgt: sparse.csr_matrix, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each (source row, target row) pair's dot product as scipy's ``csr_matmat`` sums it.

    From 0, adding the products in the source row's storage order; a term
    the target lacks adds a zero, which changes no sum.  TF-IDF rows are
    stored in descending column order, and sorting them would move last
    bits.
    """
    dim = src.shape[1]
    # the pairs' target entries keyed pair * dim + term, ascending
    first = tgt.indptr[targets]
    pair, offset = _ragged(tgt.indptr[targets + 1] - first)
    entry = first[pair] + offset
    keys = pair * dim + tgt.indices[entry]
    order = np.argsort(keys)
    keys, values = keys[order], tgt.data[entry[order]]
    first = src.indptr[rows]
    pair, term = _ragged(src.indptr[rows + 1] - first)
    entry = first[pair] + term
    look = pair * dim + src.indices[entry]
    at = np.minimum(np.searchsorted(keys, look), keys.size - 1)
    products = np.zeros((term.max(initial=-1) + 1, rows.size))
    products[term, pair] = src.data[entry] * np.where(keys[at] == look, values[at], 0.0)
    sums = np.zeros(rows.size)
    for column in products:
        sums += column
    return sums


def _ragged(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and offset of each item of runs of ``lens`` items: [2, 0, 1] gives [0, 0, 2], [0, 1, 0]."""
    owner = np.repeat(np.arange(lens.size), lens)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(lens) - lens, lens)


def _new_run(keys: np.ndarray) -> np.ndarray:
    """True where a row of ``keys`` starts a run of equal values."""
    starts = np.ones(keys.shape, dtype=bool)
    starts[:, 1:] = keys[:, 1:] != keys[:, :-1]
    return starts


def _by_row(order: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """``order`` stably re-sorted by row; a span's rows (< 2**15) radix-sort as int16."""
    return order[np.argsort(row_of[order].astype(np.int16), kind="stable")]


def _row_offsets(row_of: np.ndarray, rows: int) -> np.ndarray:
    """Where each row starts once entries are sorted by row."""
    counts = np.bincount(row_of, minlength=rows)
    return np.cumsum(counts) - counts


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
    check_alignable(source, target)

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
