"""Smoke tests of the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import OutputChecker  # noqa: E402
from generate import generate  # noqa: E402
from workloads import STUB_LATENCY_MS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "3", "--seconds", "0.2", "--scale", "0.03"]


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_clean_and_reports_every_metric(workload, trace):
    proc, result = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    for name in expected:
        assert f"\n{name} " in proc.stdout  # printed by name with its unit
    if not trace:
        assert values["wall_s"] > 0 and values["setup_s"] > 0 and values["decisions_per_s"] > 0
        return
    assert values["trace.accounted_share"] == pytest.approx(1.0, abs=0.02)
    busy = {"fuzzy_simple": "fuzzy.pairs_scored", "retrieval_tfidf": "retrieval.tfidf_fit_s",
            "rag_http": "llm.decisions"}[workload]
    assert values[busy] > 0
    if workload == "rag_http":
        assert values["llm.fallback_decisions"] == 0
        assert values["transport.errors"] == 0
        assert values["transport.stub_service_ms_p50"] < STUB_LATENCY_MS / 5
    else:
        assert values["transport.post_json_calls"] == 0


def test_generator_is_seeded(tmp_path):
    sizes = WORKLOADS["fuzzy_simple"].sizes(0.03)
    first = generate(tmp_path / "a", 5, *sizes)
    again = generate(tmp_path / "b", 5, *sizes)
    other = generate(tmp_path / "c", 6, *sizes)
    for name in ("source", "target", "reference"):
        assert Path(first[name]).read_bytes() == Path(again[name]).read_bytes()
    assert Path(first["source"]).read_bytes() != Path(other["source"]).read_bytes()
    assert first["pairs"] == again["pairs"] and len(first["pairs"]) == sizes[2]


def test_checker_flags_changed_alignment_and_pin_mismatch(tmp_path):
    from ontomatch.pipeline import PipelineConfig, run_pipeline

    inputs = generate(tmp_path / "in", 7, *WORKLOADS["fuzzy_simple"].sizes(0.03))
    output = tmp_path / "alignment.xml"
    run_pipeline(PipelineConfig(
        source_path=inputs["source"], target_path=inputs["target"],
        reference_path=inputs["reference"], output_path=str(output),
    ))
    checker = OutputChecker(inputs["pairs"])
    assert checker.check(output) == []
    assert checker.check(output) == []

    text = output.read_text(encoding="utf-8")
    first_cell = text.index("    <map>")
    output.write_text(text[:first_cell] + text[text.index("</map>\n", first_cell) + 7:], encoding="utf-8")
    problems = checker.check(output)
    assert any("differs from the first run" in p for p in problems)
    assert any("report pred=" in p for p in problems)

    output.write_text(text, encoding="utf-8")
    pinned = OutputChecker(inputs["pairs"], pin={"sha256": "0" * 64, "f1": 0.0})
    problems = pinned.check(output)
    assert any("pinned" in p and "sha256" in p for p in problems)
    assert any(p.startswith("f1 ") for p in problems)


def test_failed_check_makes_the_run_fail(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "_pin", lambda *args: {"sha256": "0" * 64, "f1": 0.0})
    code = run.main(["--workload", "fuzzy_simple", "--trace", "0", *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, result = _bench("fuzzy_simple", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
