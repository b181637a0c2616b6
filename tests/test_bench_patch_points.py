"""The benchmark's tracer wraps names the package still defines.

``bench/tracing.py`` swaps wrappers in by attribute name; a rename in
``src/`` that it does not follow would only fail a traced benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def test_every_patch_point_is_defined_by_its_owner():
    points = tracing.patch_points()
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in points if attr not in owner.__dict__
    ]
    assert points
    assert missing == []
