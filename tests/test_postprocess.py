"""Threshold filtering and one-to-one cardinality."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontomatch.errors import ConfigError
from ontomatch.mapping import Correspondence
from ontomatch.postprocess import (
    PostprocessConfig,
    apply_postprocess,
    cardinality_filter,
    threshold_filter,
)


def corr(source: str, target: str, score: float) -> Correspondence:
    return Correspondence(source, target, "=", score, "test")


def pairs(correspondences) -> list[tuple[str, str]]:
    return [(c.source, c.target) for c in correspondences]


# -- threshold_filter ----------------------------------------------------------


def test_threshold_keeps_scores_at_or_above():
    corrs = [corr("a", "x", 0.9), corr("b", "y", 0.5), corr("c", "z", 0.3)]
    assert threshold_filter(corrs, 0.5) == corrs[:2]


def test_threshold_zero_is_identity():
    corrs = [corr("a", "x", 0.9), corr("b", "y", 0.0)]
    assert threshold_filter(corrs, 0.0) == corrs


def test_threshold_on_empty_input():
    assert threshold_filter([], 0.5) == []


def test_threshold_outside_unit_interval_rejected():
    with pytest.raises(ConfigError):
        threshold_filter([], 1.5)
    with pytest.raises(ConfigError):
        threshold_filter([], -0.1)


@given(
    scores=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
    t1=st.floats(min_value=0.0, max_value=1.0),
    t2=st.floats(min_value=0.0, max_value=1.0),
)
def test_threshold_composition_is_max(scores, t1, t2):
    corrs = [corr(f"s{i}", f"t{i}", score) for i, score in enumerate(scores)]
    composed = threshold_filter(threshold_filter(corrs, t1), t2)
    assert composed == threshold_filter(corrs, max(t1, t2))


# -- cardinality_filter --------------------------------------------------------


def test_greedy_traces_the_documented_example():
    corrs = [corr("a", "x", 0.9), corr("a", "y", 0.8), corr("b", "y", 0.7)]
    kept = cardinality_filter(corrs, "one_to_one_greedy")
    assert pairs(kept) == [("a", "x"), ("b", "y")]
    assert [c.score for c in kept] == [0.9, 0.7]


def test_greedy_is_a_fixed_point_on_one_to_one_input():
    corrs = [corr("a", "x", 0.9), corr("b", "y", 0.7), corr("c", "z", 0.8)]
    kept = cardinality_filter(corrs, "one_to_one_greedy")
    assert set(pairs(kept)) == set(pairs(corrs))
    assert cardinality_filter(kept, "one_to_one_greedy") == kept


def test_many_to_many_is_identity_in_order():
    corrs = [corr("a", "x", 0.1), corr("a", "y", 0.9), corr("b", "x", 0.5)]
    assert cardinality_filter(corrs, "many_to_many") == corrs


def test_greedy_score_ties_fall_to_source_then_target_iri():
    corrs = [corr("b", "x", 0.8), corr("a", "x", 0.8), corr("a", "y", 0.8)]
    kept = cardinality_filter(corrs, "one_to_one_greedy")
    # all tied: (a,x) sorts first, then (a,y)/(b,x) are blocked on a and x
    assert pairs(kept) == [("a", "x")]


def test_greedy_outputs_distinct_endpoints_on_random_input():
    rng = random.Random(31)
    for _ in range(50):
        corrs = [
            corr(f"s{rng.randint(0, 6)}", f"t{rng.randint(0, 6)}", rng.random())
            for _ in range(rng.randint(0, 25))
        ]
        kept = cardinality_filter(corrs, "one_to_one_greedy")
        sources = [c.source for c in kept]
        targets = [c.target for c in kept]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)
        assert set(pairs(kept)) <= set(pairs(corrs))


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError):
        cardinality_filter([], "hungarian")


# -- apply_postprocess ----------------------------------------------------------


def test_apply_runs_threshold_then_cardinality():
    corrs = [corr("a", "x", 0.9), corr("b", "x", 0.6), corr("b", "y", 0.2)]
    cfg = PostprocessConfig(threshold=0.5, cardinality="one_to_one_greedy")
    kept = apply_postprocess(corrs, cfg)
    # 0.2 is filtered out, then x can only serve one source
    assert pairs(kept) == [("a", "x")]


def test_apply_without_threshold_only_filters_cardinality():
    corrs = [corr("a", "x", 0.9), corr("a", "y", 0.1)]
    cfg = PostprocessConfig(cardinality="one_to_one_greedy")
    assert pairs(apply_postprocess(corrs, cfg)) == [("a", "x")]
    default = PostprocessConfig()
    assert apply_postprocess(corrs, default) == corrs


def test_postprocess_config_validation():
    with pytest.raises(ConfigError):
        PostprocessConfig(threshold=1.5).validate()
    with pytest.raises(ConfigError):
        PostprocessConfig(cardinality="one_to_many").validate()
    PostprocessConfig(threshold=None).validate()
    PostprocessConfig(threshold=0.0).validate()
    PostprocessConfig(threshold=1.0).validate()
