"""Filters applied to an alignment after it is made.

* :func:`threshold_filter` drops correspondences below a score floor.
* :func:`cardinality_filter` optionally enforces one-to-one mappings with
  a greedy highest-score-first sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_choice, check_fraction
from .mapping import Correspondence

_CARDINALITIES = ("many_to_many", "one_to_one_greedy")


@dataclass(frozen=True)
class PostprocessConfig:
    """Which post-alignment filters run, and with what settings."""

    threshold: float | None = None
    cardinality: str = "many_to_many"

    def validate(self) -> None:
        if self.threshold is not None:
            check_fraction("postprocess threshold", self.threshold)
        check_choice("cardinality policy", self.cardinality, _CARDINALITIES)


def apply_postprocess(
    correspondences: list[Correspondence],
    cfg: PostprocessConfig,
) -> list[Correspondence]:
    """Run the configured threshold and cardinality filters in order."""
    cfg.validate()
    out = correspondences
    if cfg.threshold is not None:
        out = threshold_filter(out, cfg.threshold)
    return cardinality_filter(out, cfg.cardinality)


def threshold_filter(correspondences: list[Correspondence], threshold: float) -> list[Correspondence]:
    """Keep correspondences scoring at least ``threshold``, order preserved."""
    check_fraction("filter threshold", threshold)
    return [c for c in correspondences if c.score >= threshold]


def cardinality_filter(correspondences: list[Correspondence], policy: str) -> list[Correspondence]:
    """Constrain how many times each concept may be mapped.

    ``many_to_many`` passes everything through.  ``one_to_one_greedy``
    walks pairs by descending score (ties by source IRI then target IRI)
    and keeps a pair only when both endpoints are still unused, so no IRI
    appears twice on either side.
    """
    check_choice("cardinality policy", policy, _CARDINALITIES)
    if policy == "many_to_many":
        return list(correspondences)
    ranked = sorted(correspondences, key=lambda c: (-c.score, c.source, c.target))
    used_sources: set[str] = set()
    used_targets: set[str] = set()
    kept = []
    for corr in ranked:
        if corr.source in used_sources or corr.target in used_targets:
            continue
        used_sources.add(corr.source)
        used_targets.add(corr.target)
        kept.append(corr)
    return kept
