"""Every shipped align config, run offline, writes a pinned alignment file.

Each ``configs/*.json`` align config runs through the CLI with ``--endpoint
mock:`` on one small fixed pair, once writing XML and once JSON, and the
SHA-256 of each output must equal its pin in ``golden.json``.  The JSON
format carries each cell's provenance, so it tells apart configs whose XML
is the same, such as ``rag`` and ``fewshot_rag``.  An LLM config also pins
the number and SHA-256 of the prompts it sends the offline stand-in, so a
change in prompt rendering shows even where the decisions do not move.  The
pair is built here, not by the benchmark's generator, so a benchmark change
cannot move the pins; the paths are relative, so the XML headers name no
temporary directory.  A change that moves a pin changes what a run writes
or asks: say why, then update ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from conftest import ontology_from_labels

from ontomatch.cli import main
from ontomatch.llm import MockLLMClient
from ontomatch.parsing import parse_reference_alignment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PINS = Path(__file__).resolve().parent / "golden.json"

# Shared, near and unrelated labels under a small hierarchy, so the views
# render different texts and the similarity stand-in says both yes and no.
SOURCE_LABELS = ["metal", "alloy", "copper", "zinc", "quartz", "basalt", "bronze alloy"]
TARGET_LABELS = ["metal", "alloy", "copper ore", "zinc", "granite", "basalt rock", "bronze"]
HIERARCHY = {1: [0], 2: [0], 3: [0], 6: [1]}


def test_every_shipped_config_writes_its_pinned_alignment(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ontology_from_labels(Path("src.owl"), SOURCE_LABELS, "http://example.org/a#", HIERARCHY)
    ontology_from_labels(Path("tgt.owl"), TARGET_LABELS, "http://example.org/b#", HIERARCHY)
    sent: list[str] = []
    decide = MockLLMClient.binary_decision

    def record(self, prompt):
        sent.append(prompt)
        return decide(self, prompt)

    monkeypatch.setattr(MockLLMClient, "binary_decision", record)
    got = {}
    for config in sorted(p for p in CONFIG_DIR.glob("*.json") if not p.name.startswith("exemplars")):
        outs = [Path(config.stem + suffix) for suffix in (".xml", ".json")]
        for out in outs:
            sent.clear()
            code = main([
                "align", "--config", str(config), "--source", "src.owl", "--target", "tgt.owl",
                "--endpoint", "mock:", "--out", str(out),
            ])
            assert code == 0, capsys.readouterr().err
        got[config.name] = {
            "cells": len(parse_reference_alignment(outs[0]).cells),
            "sha256": hashlib.sha256(outs[0].read_bytes()).hexdigest(),
            "json_sha256": hashlib.sha256(outs[1].read_bytes()).hexdigest(),
        }
        if sent:
            got[config.name]["prompts"] = len(sent)
            got[config.name]["prompts_sha256"] = hashlib.sha256("\0".join(sent).encode("utf-8")).hexdigest()
    assert got == json.loads(PINS.read_text(encoding="utf-8"))
