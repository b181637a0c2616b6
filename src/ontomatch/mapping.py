"""The alignment records shared by every reader, aligner, filter, and writer:
one :class:`Correspondence` per cell, one :class:`AlignmentDocument` per file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Correspondence:
    """One class-to-class mapping between two ontologies.

    Attributes:
        source: IRI of the source-ontology concept.
        target: IRI of the target-ontology concept.
        relation: relation string, "=" for equivalence.
        score: confidence in [0, 1].
        provenance: short tag naming the producing aligner, e.g. "fuzzy:simple".
    """

    source: str
    target: str
    relation: str = "="
    score: float = 1.0
    provenance: str = field(default="", compare=False)

    def key(self) -> tuple[str, str, str]:
        """Identity triple used for de-duplication and evaluation."""
        return (self.source, self.target, self.relation)


def valid_score(score: float) -> bool:
    """The score rule of every alignment reader and writer: a confidence in [0, 1], never NaN."""
    return 0.0 <= score <= 1.0


@dataclass(frozen=True)
class AlignmentDocument:
    """An alignment plus the header fields of the XML format."""

    cells: tuple[Correspondence, ...]
    onto1: str = ""
    onto2: str = ""
    level: str = "0"
    type: str = "??"

    @classmethod
    def from_correspondences(
        cls,
        correspondences: Iterable[Correspondence],
        onto1: str = "",
        onto2: str = "",
    ) -> "AlignmentDocument":
        return cls(cells=tuple(correspondences), onto1=onto1, onto2=onto2)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Correspondence]:
        return iter(self.cells)
