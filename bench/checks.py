"""Output checks run after every benchmark run.

* The alignment file's SHA-256 must equal the first run's digest in the
  same invocation and, for the pinned seed at full size, the pinned digest.
* Precision, recall and F1 are recomputed from the written XML against the
  planted pairs with integer arithmetic (truncated tenths of a percent,
  like the run report) and must equal the run report's numbers.
* For the pinned seed at full size, F1 must equal the pinned F1.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from xml.sax.saxutils import unescape

_CELL = re.compile(
    r'<entity1 rdf:resource="([^"]*)"/>\s*'
    r'<entity2 rdf:resource="([^"]*)"/>\s*'
    r"<relation>([^<]*)</relation>"
)
_ENTITIES = {"&quot;": '"', "&apos;": "'"}


def alignment_keys(xml_text: str) -> set[tuple[str, str, str]]:
    """(entity1, entity2, relation) of every cell in an alignment document."""
    return {
        (unescape(a, _ENTITIES), unescape(b, _ENTITIES), unescape(r, _ENTITIES))
        for a, b, r in _CELL.findall(xml_text)
    }


def _tenths(numerator: int, denominator: int) -> int:
    """Floor of 1000 * numerator / denominator: a percentage in tenths."""
    return 1000 * numerator // denominator if denominator > 0 else 0


def score(keys: set[tuple[str, str, str]], planted: set[tuple[str, str]]) -> dict:
    """Counts and truncated percentages of predicted keys against planted pairs."""
    inter = len({(s, t) for s, t, r in keys if r == "="} & planted)
    pred, ref = len(keys), len(planted)
    return {
        "inter": inter,
        "pred": pred,
        "ref": ref,
        "precision": _tenths(inter, pred),
        "recall": _tenths(inter, ref),
        "f1": _tenths(2 * inter, pred + ref),
    }


def report_path(output_path: str | Path) -> Path:
    return Path(str(output_path) + ".report.json")


class OutputChecker:
    """Checks each run's alignment file and report; remembers the digest."""

    def __init__(self, planted: list[tuple[str, str]], pin: dict | None = None):
        self.planted = set(planted)
        self.pin = pin
        self.digest: str | None = None
        self.f1: float | None = None

    def check(self, output_path: str | Path) -> list[str]:
        """Problems found with one run's output; empty when all checks pass."""
        data = Path(output_path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"alignment sha256 {digest} differs from the first run's {self.digest}")
        if self.pin is not None and digest != self.pin["sha256"]:
            problems.append(f"alignment sha256 {digest} differs from the pinned {self.pin['sha256']}")

        expected = score(alignment_keys(data.decode("utf-8")), self.planted)
        reported = json.loads(report_path(output_path).read_text(encoding="utf-8"))["metrics"]
        if reported is None:
            return problems + ["run report has no metrics"]
        for key in ("inter", "pred", "ref"):
            if reported[key] != expected[key]:
                problems.append(f"report {key}={reported[key]}, recomputed {expected[key]}")
        for key in ("precision", "recall", "f1"):
            # The report prints tenths as a float; compare in integer tenths.
            if round(reported[key] * 10) != expected[key]:
                problems.append(f"report {key}={reported[key]}, recomputed {expected[key] / 10}")
        self.f1 = expected["f1"] / 10
        if self.pin is not None and self.f1 != self.pin["f1"]:
            problems.append(f"f1 {self.f1} differs from the pinned {self.pin['f1']}")
        return problems
