"""Precision/recall/F1 scoring and system comparison tables."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomatch.evaluation import ComparisonTable, Metrics, compare, evaluate
from ontomatch.mapping import AlignmentDocument, Correspondence


def synthetic_sets(inter: int, pred: int, ref: int):
    """Predicted and reference pair lists with exactly these overlap counts."""
    shared = [(f"http://a#{i}", f"http://b#{i}") for i in range(inter)]
    predicted = [Correspondence(s, t, "=", 0.9, "x") for s, t in shared]
    predicted += [
        Correspondence(f"http://a#p{i}", f"http://b#p{i}", "=", 0.9, "x")
        for i in range(pred - inter)
    ]
    reference = [Correspondence(s, t) for s, t in shared]
    reference += [
        Correspondence(f"http://a#r{i}", f"http://b#r{i}") for i in range(ref - inter)
    ]
    return predicted, reference


@pytest.mark.parametrize(
    "inter,pred,ref,precision,recall,f1",
    [
        (102, 156, 302, 65.3, 33.7, 44.5),
        (61, 69, 63, 88.4, 96.8, 92.4),
        (13, 14, 15, 92.8, 86.6, 89.6),
        (1291, 1472, 1516, 87.7, 85.1, 86.4),
        (12, 16, 18, 75.0, 66.6, 70.5),
        (126, 129, 129, 97.6, 97.6, 97.6),
        (283, 285, 304, 99.2, 93.0, 96.0),
        (667, 900, 696, 74.1, 95.8, 83.5),
    ],
)
def test_truncated_percentages_on_known_count_triples(inter, pred, ref, precision, recall, f1):
    predicted, reference = synthetic_sets(inter, pred, ref)
    metrics = evaluate(predicted, reference)
    assert (metrics.inter, metrics.pred, metrics.ref) == (inter, pred, ref)
    # percentages are exact integer arithmetic, so no tolerance
    assert metrics.precision == precision
    assert metrics.recall == recall
    assert metrics.f1 == f1


def test_percentages_truncate_rather_than_round():
    # 2/3 = 66.66...% must come out 66.6, not 66.7
    predicted, reference = synthetic_sets(2, 3, 3)
    metrics = evaluate(predicted, reference)
    assert metrics.precision == 66.6
    assert metrics.recall == 66.6
    assert metrics.f1 == 66.6


def test_duplicates_are_counted_once():
    pair = Correspondence("http://a#1", "http://b#1", "=", 0.9, "x")
    lower = Correspondence("http://a#1", "http://b#1", "=", 0.2, "y")
    reference = [Correspondence("http://a#1", "http://b#1"), Correspondence("http://a#1", "http://b#1")]
    metrics = evaluate([pair, pair, lower], reference)
    assert (metrics.inter, metrics.pred, metrics.ref) == (1, 1, 1)
    assert metrics.f1 == 100.0


def test_non_equivalence_relations_never_match():
    predicted = [
        Correspondence("http://a#1", "http://b#1", "=", 1.0, "x"),
        Correspondence("http://a#2", "http://b#2", "<", 1.0, "x"),
    ]
    reference = [
        Correspondence("http://a#1", "http://b#1"),
        Correspondence("http://a#2", "http://b#2", relation="<"),
        Correspondence("http://a#3", "http://b#3", relation=">"),
    ]
    metrics = evaluate(predicted, reference)
    # the subsumption pairs count toward sizes but not the intersection
    assert (metrics.inter, metrics.pred, metrics.ref) == (1, 2, 3)


_CELLS = st.lists(st.tuples(
    st.sampled_from("abc"), st.sampled_from("xyz"), st.sampled_from(["=", "<", ">"]),
    st.sampled_from([0.2, 0.9]),
), max_size=14)


def _floor_percent(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return math.floor(Fraction(1000 * numerator, denominator)) / 10


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_CELLS, _CELLS)
def test_evaluate_equals_set_arithmetic(pred_cells, ref_cells):
    def cells(rows):
        return [Correspondence(f"http://a#{s}", f"http://b#{t}", r, score) for s, t, r, score in rows]

    pred = {(s, t, r) for s, t, r, _ in pred_cells}
    ref = {(s, t, r) for s, t, r, _ in ref_cells}
    inter = len({cell for cell in pred & ref if cell[2] == "="})
    metrics = evaluate(cells(pred_cells), cells(ref_cells))
    assert (metrics.inter, metrics.pred, metrics.ref) == (inter, len(pred), len(ref))
    assert metrics.precision == _floor_percent(inter, len(pred))
    assert metrics.recall == _floor_percent(inter, len(ref))
    assert metrics.f1 == _floor_percent(2 * inter, len(pred) + len(ref))


def test_empty_sides_score_zero_not_nan():
    _, reference = synthetic_sets(0, 0, 3)
    no_predictions = evaluate([], reference)
    assert (no_predictions.precision, no_predictions.recall, no_predictions.f1) == (0.0, 0.0, 0.0)
    predicted, _ = synthetic_sets(0, 3, 0)
    no_reference = evaluate(predicted, [])
    assert (no_reference.recall, no_reference.f1) == (0.0, 0.0)
    both = evaluate([], [])
    assert (both.inter, both.pred, both.ref) == (0, 0, 0)


def test_reference_argument_polymorphism():
    predicted, cells = synthetic_sets(2, 3, 4)
    as_cells = evaluate(predicted, cells)
    as_document = evaluate(predicted, AlignmentDocument(cells=tuple(cells)))
    as_correspondences = evaluate(
        predicted,
        [Correspondence(c.source, c.target, c.relation, c.score, "") for c in cells],
    )
    assert as_cells == as_document == as_correspondences


def test_metrics_to_dict_with_optional_seconds():
    metrics = evaluate(*synthetic_sets(1, 2, 2))
    plain = metrics.to_dict()
    assert plain == {"inter": 1, "pred": 2, "ref": 2, "precision": 50.0, "recall": 50.0, "f1": 50.0}
    timed = metrics.to_dict(seconds=1.5)
    assert timed["seconds"] == 1.5


def test_compare_ranks_by_f1_then_time_then_name():
    strong = evaluate(*synthetic_sets(9, 10, 10))
    weak = evaluate(*synthetic_sets(5, 10, 10))
    table = compare([("slow", strong, 9.0), ("weak", weak, 1.0), ("fast", strong, 2.0)])
    assert [row.name for row in table.rows] == ["fast", "slow", "weak"]


def test_comparison_text_table_layout():
    metrics = evaluate(*synthetic_sets(1, 2, 2))
    text = compare([("fuzzy-baseline", metrics, 0.4)]).to_text()
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["system", "P", "R", "F1", "inter", "pred", "ref", "time"]
    assert set(lines[1]) == {"-"}
    assert lines[2].split() == ["fuzzy-baseline", "50.0", "50.0", "50.0", "1", "2", "2", "0.4"]


def test_metrics_value_object_equality():
    assert evaluate(*synthetic_sets(1, 2, 2)) == Metrics(1, 2, 2, 50.0, 50.0, 50.0)
