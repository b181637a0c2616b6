"""Lightweight string-similarity alignment.

Three scoring methods over encoded concept texts:

* ``simple``    normalized indel similarity, ``2*LCS(a, b) / (|a| + |b|)``;
* ``token_set`` order-insensitive comparison of deduplicated token sets;
* ``weighted``  token_set with per-token weights scaling each character's
  contribution (weight 1.0 everywhere degenerates to token_set exactly).

Every pair is scored, so the work is quadratic in the ontology sizes.
``simple`` runs an exact bit-parallel LCS kernel (Allison-Dix, Hyyro 2004)
vectorized with numpy: one ``uint64`` lane per text of at most 64
characters, so one source is scored against all targets at once.
``token_set`` and ``weighted`` stay scalar, one pair at a time.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .encoding import EncodedCorpus, check_alignable, tokenize
from .errors import check_choice, check_finite, check_fraction
from .mapping import Correspondence

_METHODS = ("simple", "token_set", "weighted")
# Width of one bit-parallel lane; longer texts swap roles or go scalar.
_LANE_BITS = 64
# Sources whose lanes are stepped together over each long target.
_SOURCE_BLOCK = 1024


@dataclass(frozen=True)
class FuzzyConfig:
    """Settings for :func:`align_fuzzy`.

    Attributes:
        method: "simple", "token_set", or "weighted".
        threshold: minimum score for a correspondence to be emitted.
        weights: token -> weight map for the weighted method; unlisted
            tokens weigh 1.0.
    """

    method: str = "simple"
    threshold: float = 0.0
    weights: dict[str, float] | None = field(default=None, hash=False)

    def validate(self) -> None:
        check_choice("fuzzy method", self.method, _METHODS)
        check_fraction("fuzzy threshold", self.threshold)
        for token, weight in (self.weights or {}).items():
            check_finite(f"fuzzy weight for {token!r}", weight, positive=True)


def _char_masks(text: str) -> dict[str, int]:
    masks: dict[str, int] = {}
    bit = 1
    for ch in text:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def _lcs_masked(masks: dict[str, int], length: int, other: str) -> int:
    """Bit-parallel LCS length: zero bits of v mark matched positions."""
    if not length or not other:
        return 0
    full = (1 << length) - 1
    v = full
    for ch in other:
        u = v & masks.get(ch, 0)
        if u:
            v = ((v + u) | (v - u)) & full
    return length - bin(v).count("1")


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence of two strings."""
    return _lcs_masked(_char_masks(a), len(a), b)


def fuzzy_ratio(a: str, b: str) -> float:
    """Normalized indel similarity in [0, 1]; 1.0 when both are empty."""
    if not a and not b:
        return 1.0
    return 2.0 * lcs_length(a, b) / (len(a) + len(b))


def _token_set(text: str) -> list[str]:
    return sorted(set(tokenize(text)))


def _join(*parts: str) -> str:
    return " ".join(p for p in parts if p)


def _token_set_strings(a: str, b: str) -> tuple[str, str, str] | None:
    """The (intersection, intersection+rest_a, intersection+rest_b) strings."""
    tokens_a = _token_set(a)
    tokens_b = _token_set(b)
    if not tokens_a and not tokens_b:
        return None
    set_b = set(tokens_b)
    set_a = set(tokens_a)
    common = " ".join(t for t in tokens_a if t in set_b)
    rest_a = " ".join(t for t in tokens_a if t not in set_b)
    rest_b = " ".join(t for t in tokens_b if t not in set_a)
    return common, _join(common, rest_a), _join(common, rest_b)


def token_set_ratio(a: str, b: str) -> float:
    """Best indel similarity across intersection/remainder recombinations."""
    strings = _token_set_strings(a, b)
    if strings is None:
        return 1.0
    t0, t1, t2 = strings
    return max(fuzzy_ratio(t0, t1), fuzzy_ratio(t0, t2), fuzzy_ratio(t1, t2))


def _char_weights(text: str, weights: dict[str, float]) -> list[float]:
    """Per-character weights: each character inherits its token's weight."""
    out = []
    for token in text.split(" "):
        if out:
            out.append(1.0)  # the separator space
        w = weights.get(token, 1.0)
        out.extend([w] * len(token))
    return out


def _weighted_ratio(a: str, wa: list[float], b: str, wb: list[float]) -> float:
    """Weighted indel similarity; a match credits the smaller char weight."""
    if not a and not b:
        return 1.0
    total = sum(wa) + sum(wb)
    if total == 0:
        return 1.0
    prev = [0.0] * (len(b) + 1)
    for i, ch_a in enumerate(a):
        row = [0.0] * (len(b) + 1)
        for j, ch_b in enumerate(b):
            if ch_a == ch_b:
                row[j + 1] = prev[j] + min(wa[i], wb[j])
            else:
                row[j + 1] = max(prev[j + 1], row[j])
        prev = row
    return 2.0 * prev[len(b)] / total


def weighted_token_set_ratio(a: str, b: str, weights: dict[str, float] | None = None) -> float:
    """Token-set similarity with per-token weights; weights of 1.0 give
    exactly :func:`token_set_ratio`."""
    strings = _token_set_strings(a, b)
    if strings is None:
        return 1.0
    table = weights or {}
    t0, t1, t2 = strings
    w0, w1, w2 = (_char_weights(t, table) for t in (t0, t1, t2))
    return max(
        _weighted_ratio(t0, w0, t1, w1),
        _weighted_ratio(t0, w0, t2, w2),
        _weighted_ratio(t1, w1, t2, w2),
    )


class _Lanes:
    """Bit-parallel LCS of one text against many texts of at most 64 chars.

    Each lane is one ``uint64`` holding one text's match masks, with the
    text left-aligned in the word, so the carry out of ``v + u`` leaves
    the word and no lane needs a length mask.  Stepping over the other
    text's characters advances every lane at once; a character no lane
    contains leaves every lane unchanged and is skipped.
    """

    def __init__(self, texts: list[str]) -> None:
        self.lengths = np.array([len(t) for t in texts], dtype=np.int64)
        self.full = np.array([((1 << len(t)) - 1) << (_LANE_BITS - len(t)) for t in texts],
                             dtype=np.uint64)
        self.codes: dict[str, int] = {}
        rows, cols, values = [], [], []
        for lane, text in enumerate(texts):
            shift = _LANE_BITS - len(text)
            for ch, mask in _char_masks(text).items():
                rows.append(self.codes.setdefault(ch, len(self.codes)))
                cols.append(lane)
                values.append(mask << shift)
        self.table = np.zeros((len(self.codes), len(texts)), dtype=np.uint64)
        self.table[rows, cols] = np.array(values, dtype=np.uint64)

    def lcs(self, other: str) -> np.ndarray:
        """LCS length of ``other`` against every lane's text."""
        v = self.full.copy()
        u = np.empty_like(v)
        w = np.empty_like(v)
        for ch in other:
            code = self.codes.get(ch)
            if code is None:
                continue
            np.bitwise_and(v, self.table[code], out=u)
            np.subtract(v, u, out=w)
            np.add(v, u, out=v)
            np.bitwise_or(v, w, out=v)
        return self.lengths - np.bitwise_count(v)


def _simple_rows(sources: tuple[str, ...], targets: list[str]) -> Iterator[np.ndarray]:
    """Yield, per source text, its ``simple`` score against every target.

    Targets of at most 64 characters are lanes stepped over the source's
    characters.  Longer targets swap roles: per block of sources, the short
    sources are lanes stepped over each long target.  Only pairs of two
    long texts use the scalar kernel.
    """
    lengths = np.array([len(text) for text in targets], dtype=np.int64)
    short = np.flatnonzero(lengths <= _LANE_BITS)
    long = np.flatnonzero(lengths > _LANE_BITS)
    lanes = _Lanes([targets[j] for j in short])
    lcs = np.empty(len(targets), dtype=np.int64)
    for first in range(0, len(sources), _SOURCE_BLOCK):
        block = sources[first:first + _SOURCE_BLOCK]
        in_lanes = np.array([i for i, text in enumerate(block) if len(text) <= _LANE_BITS],
                            dtype=np.intp)
        long_lcs = np.empty((len(block), len(long)), dtype=np.uint8)
        if in_lanes.size and long.size:
            src_lanes = _Lanes([block[i] for i in in_lanes])
            for k, j in enumerate(long):
                long_lcs[in_lanes, k] = src_lanes.lcs(targets[j])
        for i, text in enumerate(block):
            if not text:
                yield (lengths == 0).astype(np.float64)
                continue
            lcs[short] = lanes.lcs(text)
            if len(text) <= _LANE_BITS:
                lcs[long] = long_lcs[i]
            else:
                masks = _char_masks(text)
                lcs[long] = [_lcs_masked(masks, len(text), targets[j]) for j in long]
            yield 2.0 * lcs / (len(text) + lengths)


def _scored_rows(
    sources: tuple[str, ...], targets: list[str], cfg: FuzzyConfig
) -> Iterator[np.ndarray]:
    """Yield, per source text, its ``cfg.method`` score against every target."""
    if cfg.method == "simple":
        yield from _simple_rows(sources, targets)
        return
    if cfg.method == "token_set":
        score_pair = token_set_ratio
    else:
        score_pair = functools.partial(weighted_token_set_ratio, weights=cfg.weights)
    for text in sources:
        yield np.array([score_pair(text, other) for other in targets], dtype=np.float64)


def align_fuzzy(source: EncodedCorpus, target: EncodedCorpus, cfg: FuzzyConfig) -> list[Correspondence]:
    """Best-match fuzzy alignment between two encoded corpora.

    For each source concept the single best-scoring target is kept when its
    score reaches ``cfg.threshold``; score ties go to the ascending target
    IRI.

    Raises:
        ViewMismatch: corpora encoded under different views.
        EmptyCorpus: either corpus has no texts.
        ConfigError: invalid method, threshold, or weights.
    """
    cfg.validate()
    check_alignable(source, target)

    provenance = f"fuzzy:{cfg.method}"
    # Rows run in ascending-IRI order, so argmax (the first maximum) gives
    # score ties to the smallest IRI.
    order = sorted(range(len(target.iris)), key=target.iris.__getitem__)
    iris = [target.iris[j] for j in order]
    texts = [target.texts[j] for j in order]
    out: list[Correspondence] = []
    for src_iri, row in zip(source.iris, _scored_rows(source.texts, texts, cfg)):
        best = int(np.argmax(row))
        if row[best] >= cfg.threshold:
            out.append(Correspondence(src_iri, iris[best], "=", float(row[best]), provenance))
    return out
