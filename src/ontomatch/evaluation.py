"""Scoring predicted alignments against a reference.

A predicted correspondence matches a reference cell when the (source IRI,
target IRI) pair is identical and both carry the "=" relation.  Counts are
taken after de-duplication on (source, target, relation).  Reference cells
with other relations still count toward the reference size but can never
be matched, which penalizes recall, not precision.

Percentages are truncated (floored) to one decimal, not rounded.  Since
precision = inter/pred, recall = inter/ref, and F1 reduces to
2*inter/(pred + ref), all three are computed with integer arithmetic, so
no floating-point boundary case can flip the last digit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .mapping import Correspondence


@dataclass(frozen=True)
class Metrics:
    """Intersection/size counts and truncated percentage scores."""

    inter: int
    pred: int
    ref: int
    precision: float
    recall: float
    f1: float

    def to_dict(self, seconds: float | None = None) -> dict:
        out = asdict(self)
        if seconds is not None:
            out["seconds"] = seconds
        return out


def _truncate_percent(numerator: int, denominator: int) -> float:
    """Floor of 100 * numerator / denominator at one decimal, exactly."""
    if denominator <= 0:
        return 0.0
    return (1000 * numerator // denominator) / 10


def evaluate(
    predicted: Iterable[Correspondence],
    reference: Iterable[Correspondence],
) -> Metrics:
    """Precision, recall, and F1 of predictions against a reference.

    Empty-side conventions: precision is 0 with no predictions, recall is
    0 with an empty reference, and F1 is 0 whenever both are 0.
    """
    pred_keys = {corr.key() for corr in predicted}
    ref_keys = {cell.key() for cell in reference}
    inter = sum(1 for key in ref_keys if key[2] == "=" and key in pred_keys)
    pred = len(pred_keys)
    ref = len(ref_keys)

    return Metrics(
        inter=inter,
        pred=pred,
        ref=ref,
        precision=_truncate_percent(inter, pred),
        recall=_truncate_percent(inter, ref),
        f1=_truncate_percent(2 * inter, pred + ref),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One system in a side-by-side comparison."""

    name: str
    metrics: Metrics
    seconds: float


class ComparisonTable:
    """Systems ranked by F1 (descending), ties broken by elapsed time."""

    def __init__(self, rows: list[ComparisonRow]):
        self.rows = sorted(rows, key=lambda r: (-r.metrics.f1, r.seconds, r.name))

    def to_text(self) -> str:
        header = f"{'system':<28} {'P':>6} {'R':>6} {'F1':>6} {'inter':>6} {'pred':>6} {'ref':>6} {'time':>8}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            m = row.metrics
            lines.append(
                f"{row.name:<28} {m.precision:>6.1f} {m.recall:>6.1f} {m.f1:>6.1f}"
                f" {m.inter:>6d} {m.pred:>6d} {m.ref:>6d} {row.seconds:>8.1f}"
            )
        return "\n".join(lines)


def compare(runs: Sequence[tuple[str, Metrics, float]]) -> ComparisonTable:
    """Build a comparison table from (name, metrics, elapsed seconds) rows."""
    return ComparisonTable([ComparisonRow(name, metrics, seconds) for name, metrics, seconds in runs])
