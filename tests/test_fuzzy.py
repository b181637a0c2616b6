"""String-similarity scoring and the lightweight fuzzy aligner."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from conftest import make_corpus
from hypothesis import given
from hypothesis import strategies as st
from oracles import best_match_alignment, lcs_dp, ratio_dp

from ontomatch import fuzzy
from ontomatch.encoding import EncodingView
from ontomatch.errors import ConfigError, EmptyCorpus, ViewMismatch
from ontomatch.fuzzy import (
    FuzzyConfig,
    align_fuzzy,
    fuzzy_ratio,
    lcs_length,
    token_set_ratio,
    weighted_token_set_ratio,
)

WORDS = ["alloy", "steel", "iron", "copper", "zinc", "oxide", "heat", "melt", "point", "phase"]


def random_text(rng: random.Random, max_words: int = 3) -> str:
    return " ".join(rng.choices(WORDS, k=rng.randint(1, max_words)))


# -- fuzzy_ratio -------------------------------------------------------------


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        ("alloy", "alloy", 1.0),
        ("kitten", "sitting", 8 / 13),
        ("abc", "", 0.0),
        ("", "", 1.0),
    ],
)
def test_fuzzy_ratio_known_values(a, b, expected):
    assert fuzzy_ratio(a, b) == pytest.approx(expected, abs=1e-12)


def test_lcs_matches_dp_oracle_on_random_pairs():
    rng = random.Random(11)
    alphabets = ["ab", "abc", "abcdefgh", "abcdefghijklmnopqrstuvwxyz "]
    for _ in range(500):
        alphabet = rng.choice(alphabets)
        a = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
        b = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
        assert lcs_length(a, b) == lcs_dp(a, b)
        assert fuzzy_ratio(a, b) == ratio_dp(a, b)


def test_lcs_matches_dp_oracle_beyond_word_size():
    # strings longer than 64 characters exercise the multi-word bit path
    rng = random.Random(12)
    for _ in range(25):
        a = "".join(rng.choices("abcd", k=rng.randint(100, 300)))
        b = "".join(rng.choices("abcd", k=rng.randint(100, 300)))
        assert lcs_length(a, b) == lcs_dp(a, b)


@given(st.text(alphabet="abcdef ", max_size=25), st.text(alphabet="abcdef ", max_size=25))
def test_fuzzy_ratio_symmetric_and_bounded(a, b):
    value = fuzzy_ratio(a, b)
    assert value == fuzzy_ratio(b, a)
    assert 0.0 <= value <= 1.0
    assert (value == 1.0) == (a == b)


# -- token_set_ratio ---------------------------------------------------------


def test_token_set_is_order_invariant():
    assert token_set_ratio("heat treatment of steel", "steel heat treatment of") == 1.0


def test_token_subset_scores_one():
    assert token_set_ratio("alloy steel", "alloy") == 1.0


def test_token_set_single_tokens_reduce_to_fuzzy_ratio():
    assert token_set_ratio("iron", "copper") == fuzzy_ratio("copper", "iron")
    assert token_set_ratio("iron", "copper") == pytest.approx(0.2)


def test_token_set_dedupes_and_ignores_punctuation():
    assert token_set_ratio("Alloy, alloy!", "alloy") == 1.0


def test_token_set_both_empty():
    assert token_set_ratio("!!!", "???") == 1.0


# -- weighted_token_set_ratio -------------------------------------------------


def test_weighted_defaults_degenerate_to_token_set():
    rng = random.Random(13)
    for _ in range(200):
        a, b = random_text(rng), random_text(rng)
        assert weighted_token_set_ratio(a, b) == token_set_ratio(a, b)
        assert weighted_token_set_ratio(a, b, {}) == token_set_ratio(a, b)


def test_weight_one_is_neutral():
    rng = random.Random(14)
    for _ in range(100):
        a, b = random_text(rng), random_text(rng)
        assert weighted_token_set_ratio(a, b, {"alloy": 1.0}) == token_set_ratio(a, b)


def test_upweighting_shared_token_raises_score():
    a, b = "alloy steel", "alloy iron"
    base = token_set_ratio(a, b)
    boosted = weighted_token_set_ratio(a, b, {"alloy": 5.0})
    # best branch becomes "alloy" vs "alloy iron": 2*25 / (25 + 30)
    assert boosted == pytest.approx(10 / 11, abs=1e-12)
    assert boosted > base


def test_downweighting_shared_token_lowers_score():
    a, b = "alloy steel", "alloy iron"
    deflated = weighted_token_set_ratio(a, b, {"alloy": 0.1})
    assert deflated < token_set_ratio(a, b)


def test_weighted_bounds_and_symmetry():
    rng = random.Random(15)
    for _ in range(100):
        a, b = random_text(rng), random_text(rng)
        weights = {rng.choice(WORDS): rng.uniform(0.1, 5.0)}
        value = weighted_token_set_ratio(a, b, weights)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == weighted_token_set_ratio(b, a, weights)


# -- config ------------------------------------------------------------------


def test_fuzzy_config_validation():
    FuzzyConfig(method="weighted", threshold=0.5, weights={"alloy": 2.0}).validate()
    with pytest.raises(ConfigError):
        FuzzyConfig(method="soundex").validate()
    with pytest.raises(ConfigError):
        FuzzyConfig(threshold=1.5).validate()
    with pytest.raises(ConfigError):
        FuzzyConfig(method="weighted", weights={"alloy": 0.0}).validate()


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_fuzzy_config_rejects_non_finite_weights(weight):
    with pytest.raises(ConfigError):
        FuzzyConfig(method="weighted", weights={"alloy": weight}).validate()


# -- align_fuzzy --------------------------------------------------------------


def test_identical_corpora_align_to_self():
    texts = ["alloy", "steel", "iron", "copper", "zinc"]
    src = make_corpus(texts, prefix="http://example.org/a#")
    tgt = make_corpus(texts, prefix="http://example.org/b#")
    out = align_fuzzy(src, tgt, FuzzyConfig(threshold=0.9))
    assert len(out) == 5
    for i, corr in enumerate(out):
        assert corr.source == src.iris[i]
        assert corr.target == tgt.iris[i]
        assert corr.score == 1.0
        assert corr.relation == "="
        assert corr.provenance == "fuzzy:simple"


def test_disjoint_alphabets_yield_nothing():
    src = make_corpus(["abc", "bca", "cab"])
    tgt = make_corpus(["xyz", "zxy", "yzx"], prefix="http://example.org/b#")
    assert align_fuzzy(src, tgt, FuzzyConfig(threshold=0.5)) == []


def test_score_ties_go_to_ascending_target_iri():
    src = make_corpus(["alloy"])
    tgt = make_corpus(["alloy", "alloy"], prefix="http://example.org/b#")
    out = align_fuzzy(src, tgt, FuzzyConfig())
    assert len(out) == 1
    assert out[0].target == tgt.iris[0]


def test_at_most_one_correspondence_per_source():
    rng = random.Random(16)
    src = make_corpus([random_text(rng) for _ in range(12)])
    tgt = make_corpus([random_text(rng) for _ in range(15)], prefix="http://example.org/b#")
    out = align_fuzzy(src, tgt, FuzzyConfig())
    assert len({corr.source for corr in out}) == len(out) == 12


@pytest.mark.parametrize("method", ["simple", "token_set", "weighted"])
def test_align_matches_brute_force(method):
    rng = random.Random(17)
    src_texts = [random_text(rng) for _ in range(10)]
    tgt_texts = [random_text(rng) for _ in range(12)]
    src = make_corpus(src_texts)
    tgt = make_corpus(tgt_texts, prefix="http://example.org/b#")
    cfg = FuzzyConfig(method=method, threshold=0.3)
    out = align_fuzzy(src, tgt, cfg)

    if method == "simple":
        expected = best_match_alignment(
            list(zip(src.iris, src_texts)), list(zip(tgt.iris, tgt_texts)), cfg.threshold
        )
    else:
        # same exhaustive argmax/tie/threshold sweep, scored by the method
        scorer = token_set_ratio if method == "token_set" else weighted_token_set_ratio
        expected = []
        for src_iri, src_text in zip(src.iris, src_texts):
            best = None
            for tgt_iri, tgt_text in zip(tgt.iris, tgt_texts):
                score = scorer(src_text, tgt_text)
                if best is None or score > best[0] or (score == best[0] and tgt_iri < best[1]):
                    best = (score, tgt_iri)
            if best[0] >= cfg.threshold:
                expected.append((src_iri, best[1], best[0]))
    assert [(c.source, c.target, c.score) for c in out] == expected


def test_threshold_monotonicity():
    rng = random.Random(18)
    src = make_corpus([random_text(rng) for _ in range(8)])
    tgt = make_corpus([random_text(rng) for _ in range(8)], prefix="http://example.org/b#")
    loose = {(c.source, c.target) for c in align_fuzzy(src, tgt, FuzzyConfig(threshold=0.2))}
    tight = {(c.source, c.target) for c in align_fuzzy(src, tgt, FuzzyConfig(threshold=0.6))}
    assert tight <= loose


def test_view_mismatch_rejected():
    src = make_corpus(["alloy"], view=EncodingView.C)
    tgt = make_corpus(["alloy"], view=EncodingView.CC, prefix="http://example.org/b#")
    with pytest.raises(ViewMismatch):
        align_fuzzy(src, tgt, FuzzyConfig())


def test_empty_corpus_rejected():
    src = make_corpus(["alloy"])
    empty = make_corpus([], prefix="http://example.org/b#")
    with pytest.raises(EmptyCorpus):
        align_fuzzy(src, empty, FuzzyConfig())


def long_text_corpora(seed: int):
    """Texts of 0 to 200 characters on both sides of the 64-char lane width,
    with characters only one side has, non-ASCII characters, empty texts,
    and duplicated targets whose IRIs run in descending order."""
    rng = random.Random(seed)
    lengths = [0, 1, 7, 30, 63, 64, 65, 97, 150, 200]

    def texts(alphabet: str, n: int) -> list[str]:
        return ["".join(rng.choices(alphabet, k=rng.choice(lengths))) for _ in range(n)]

    tgt_texts = texts("abcdü zw", 10) + ["", "ü" * 64, "ab" * 40]
    tgt_texts += tgt_texts[:4]
    src_texts = texts("abcdé xy", 9) + ["", "é" * 65, "ab" * 32] + tgt_texts[:4]
    src = make_corpus(src_texts)
    tgt = make_corpus(tgt_texts, prefix="http://example.org/b#")
    return src, dataclasses.replace(tgt, iris=tgt.iris[::-1])


@pytest.mark.parametrize("block", [None, 3])
def test_simple_matches_oracle_across_lane_width(monkeypatch, block):
    if block is not None:
        # several source blocks, so the swapped-role lanes are rebuilt
        monkeypatch.setattr(fuzzy, "_SOURCE_BLOCK", block)
    src, tgt = long_text_corpora(19)
    src_pairs = list(zip(src.iris, src.texts))
    tgt_pairs = list(zip(tgt.iris, tgt.texts))

    out = align_fuzzy(src, tgt, FuzzyConfig(threshold=0.0))
    assert [(c.source, c.target, c.score) for c in out] == best_match_alignment(
        src_pairs, tgt_pairs, 0.0
    )

    rows = fuzzy._scored_rows(src.texts, list(tgt.texts), FuzzyConfig())
    assert [row.tolist() for row in rows] == [
        [ratio_dp(src_text, tgt_text) for tgt_text in tgt.texts] for src_text in src.texts
    ]
