"""The package's public surface: the names ``ontomatch.__all__`` promises,
and the modules importing it loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import ontology_from_labels, write_reference_xml

import ontomatch

# Loaded only by the paths that call them: TF-IDF retrieval (scipy), HTTP
# providers (urllib3, and http.client through it) and nothing (xml.sax, and
# xml.etree, since both XML readers stream expat events; multiprocessing,
# since every pool is a thread pool).
OPTIONAL_MODULES = ("scipy", "urllib3", "http.client", "xml.sax.saxutils", "xml.etree.ElementTree",
                    "multiprocessing")

_PROBE = """
import json, sys

import ontomatch, ontomatch.pipeline
from ontomatch.encoding import EncodingView, encode
from ontomatch.parsing import parse_ontology
from ontomatch.pipeline import PipelineConfig, run_pipeline
from ontomatch.retrieval import RetrievalConfig, align_retrieval

optional = sys.argv[1].split(",")
loaded = {}


def record(stage):
    loaded[stage] = [name for name in optional if name in sys.modules]


record("import")
source, target, reference, output = sys.argv[2:]
# what a benchmark set-up probe does: build and validate a TF-IDF config
PipelineConfig.from_dict({
    "source_path": source, "target_path": target, "method": "retrieval", "view": "CP",
    "retrieval": {"backend": "tfidf", "top_k": 10, "threshold": 0.2},
}).validate()
record("tfidf config")
_, report = run_pipeline(PipelineConfig(
    source_path=source, target_path=target, reference_path=reference, output_path=output,
))
record("fuzzy run")
corpus = encode(parse_ontology(source), EncodingView.C)
embedding = RetrievalConfig(backend="embedding", provider_endpoint="mock:?dim=8")
align_retrieval(corpus, corpus, embedding)
record("mock embedding retrieval")
align_retrieval(corpus, corpus, RetrievalConfig(backend="tfidf"))
record("tfidf retrieval")
print(json.dumps({"loaded": loaded, "f1": report.metrics.f1}))
"""


def test_every_exported_name_resolves():
    missing = [name for name in ontomatch.__all__ if not hasattr(ontomatch, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(set(ontomatch.__all__)) == len(ontomatch.__all__)


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from ontomatch import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ontomatch.__all__)


def test_optional_dependencies_load_only_on_the_paths_that_call_them(tmp_path):
    labels = ["alloy", "copper", "zinc"]
    source = ontology_from_labels(tmp_path / "src.owl", labels, base="http://a#")
    target = ontology_from_labels(tmp_path / "tgt.owl", labels, base="http://b#")
    reference = write_reference_xml(
        tmp_path / "reference.rdf", [(f"http://a#C{i:03d}", f"http://b#C{i:03d}") for i in range(3)],
    )
    package_root = str(Path(ontomatch.__file__).resolve().parent.parent)
    paths = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, ",".join(OPTIONAL_MODULES),
         str(source), str(target), str(reference), str(tmp_path / "out.xml")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["f1"] == 100.0
    assert probe["loaded"] == {
        "import": [],
        "tfidf config": [],
        "fuzzy run": [],
        "mock embedding retrieval": [],
        "tfidf retrieval": ["scipy"],
    }
