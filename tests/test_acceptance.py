"""Top-level acceptance suite.

Each test is one pass/fail gate: exact metric arithmetic, oracle
equivalence for the fuzzy and retrieval aligners, randomized monotonicity
properties, a fully mocked end-to-end RAG run with known ground truth,
serialization roundtrips, a desk-scale performance envelope, and the
shipped config fixtures running unchanged through the CLI.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import make_corpus, make_ontology, ontology_from_labels, write_reference_xml
from oracles import best_match_alignment, dot, lcs_dp, rank_candidates, tfidf_vectors

from ontomatch.cli import main
from ontomatch.encoding import tokenize
from ontomatch.evaluation import evaluate
from ontomatch.export import AlignmentDocument, export_json, export_xml
from ontomatch.fuzzy import FuzzyConfig, align_fuzzy, fuzzy_ratio
from ontomatch.llm import LLMConfig, MockLLMClient
from ontomatch.mapping import Correspondence
from ontomatch.parsing import load_json_alignment, parse_reference_alignment
from ontomatch.pipeline import PipelineConfig, run_pipeline
from ontomatch.postprocess import cardinality_filter
from ontomatch.rag import DEFAULT_EXEMPLARS, RAGConfig, align_rag, load_exemplars
from ontomatch.retrieval import (
    MockEmbeddingProvider,
    RetrievalConfig,
    VectorMatrix,
    align_retrieval,
    cosine_topk,
    normalize_rows,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RUN_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json") if not p.name.startswith("exemplars"))

WORDS = [
    "alloy", "steel", "iron", "copper", "zinc", "oxide", "heat", "melt",
    "quartz", "phase", "grain", "weld", "cast", "forge", "anneal", "crystal",
]


def random_texts(rng: random.Random, n: int, pool=WORDS, max_words: int = 3) -> list[str]:
    return [" ".join(rng.choices(pool, k=rng.randint(1, max_words))) for _ in range(n)]


def synthetic_counts(inter: int, pred: int, ref: int):
    shared = [(f"http://a#{i}", f"http://b#{i}") for i in range(inter)]
    predicted = [Correspondence(s, t, "=", 1.0, "x") for s, t in shared]
    predicted += [
        Correspondence(f"http://a#p{i}", f"http://b#p{i}", "=", 1.0, "x")
        for i in range(pred - inter)
    ]
    reference = [Correspondence(s, t) for s, t in shared]
    reference += [Correspondence(f"http://a#r{i}", f"http://b#r{i}") for i in range(ref - inter)]
    return predicted, reference


def test_metric_arithmetic_regression():
    started = time.monotonic()
    cases = [
        (102, 156, 302, 65.3, 33.7, 44.5),
        (61, 69, 63, 88.4, 96.8, 92.4),
        (13, 14, 15, 92.8, 86.6, 89.6),
        (1291, 1472, 1516, 87.7, 85.1, 86.4),
        (12, 16, 18, 75.0, 66.6, 70.5),
        (126, 129, 129, 97.6, 97.6, 97.6),
        (283, 285, 304, 99.2, 93.0, 96.0),
        (667, 900, 696, 74.1, 95.8, 83.5),
    ]
    for inter, pred, ref, precision, recall, f1 in cases:
        metrics = evaluate(*synthetic_counts(inter, pred, ref))
        assert (metrics.inter, metrics.pred, metrics.ref) == (inter, pred, ref)
        # zero tolerance: integer truncation must reproduce each percentage
        assert metrics.precision == precision
        assert metrics.recall == recall
        assert metrics.f1 == f1
    assert time.monotonic() - started < 1.0


def test_fuzzy_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(101)
    alphabet = "abcdefg "
    for _ in range(200):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        expected = (
            1.0 if not a and not b
            else 2.0 * lcs_dp(a, b) / (len(a) + len(b)) if a and b
            else 0.0
        )
        assert abs(fuzzy_ratio(a, b) - expected) <= 1e-12

    src = make_corpus(random_texts(rng, 50))
    tgt = make_corpus(random_texts(rng, 50), prefix="http://example.org/b#")
    got = align_fuzzy(src, tgt, FuzzyConfig(threshold=0.3))
    expected_pairs = best_match_alignment(
        list(zip(src.iris, src.texts)), list(zip(tgt.iris, tgt.texts)), threshold=0.3
    )
    assert [(c.source, c.target) for c in got] == [(s, t) for s, t, _ in expected_pairs]
    for corr, (_, _, score) in zip(got, expected_pairs):
        assert abs(corr.score - score) <= 1e-12
    assert time.monotonic() - started < 5.0


def test_retrieval_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(102)
    src_texts = random_texts(rng, 30)
    tgt_texts = random_texts(rng, 30)
    src = make_corpus(src_texts)
    tgt = make_corpus(tgt_texts, prefix="http://example.org/b#")

    vectors = tfidf_vectors([tokenize(t) for t in src_texts + tgt_texts])
    tfidf_sims = [
        [dot(srow, trow) for trow in vectors[30:]] for srow in vectors[:30]
    ]
    provider = MockEmbeddingProvider(dim=32, seed=1)
    src_rows = provider.embed(src_texts).tolist()
    tgt_rows = provider.embed(tgt_texts).tolist()
    embed_sims = [
        [sum(x * y for x, y in zip(srow, trow)) for trow in tgt_rows] for srow in src_rows
    ]

    for backend, sims in (("tfidf", tfidf_sims), ("embedding", embed_sims)):
        for k in (1, 3, 10):
            for threshold in (0.0, 0.2, 0.5):
                cfg = RetrievalConfig(backend=backend, top_k=k, threshold=threshold,
                                      provider_endpoint="mock:?dim=32&seed=1")
                got = align_retrieval(src, tgt, cfg)
                expected = []
                for i, row in enumerate(rank_candidates(sims, k, threshold)):
                    for j, sim in row:
                        expected.append((src.iris[i], tgt.iris[j], sim))
                assert [(c.source, c.target) for c in got] == [(s, t) for s, t, _ in expected]
                for corr, (_, _, sim) in zip(got, expected):
                    assert corr.score == pytest.approx(min(1.0, max(0.0, sim)), abs=1e-9)
    assert time.monotonic() - started < 5.0


def test_monotonicity_property_suites():
    started = time.monotonic()
    rng = random.Random(103)

    # fuzzy: raising the threshold can only shrink the result
    for _ in range(100):
        src = make_corpus(random_texts(rng, rng.randint(1, 8)))
        tgt = make_corpus(random_texts(rng, rng.randint(1, 8)), prefix="http://example.org/b#")
        low, high = sorted((rng.random(), rng.random()))
        loose = {(c.source, c.target) for c in align_fuzzy(src, tgt, FuzzyConfig(threshold=low))}
        tight = {(c.source, c.target) for c in align_fuzzy(src, tgt, FuzzyConfig(threshold=high))}
        assert tight <= loose

    # retrieval: same property for the similarity threshold
    for _ in range(100):
        src = make_corpus(random_texts(rng, rng.randint(1, 8)))
        tgt = make_corpus(random_texts(rng, rng.randint(1, 8)), prefix="http://example.org/b#")
        low, high = sorted((rng.random(), rng.random()))
        cfg_low = RetrievalConfig(top_k=3, threshold=low)
        cfg_high = RetrievalConfig(top_k=3, threshold=high)
        loose = {(c.source, c.target) for c in align_retrieval(src, tgt, cfg_low)}
        tight = {(c.source, c.target) for c in align_retrieval(src, tgt, cfg_high)}
        assert tight <= loose

    # RAG: the yes-confidence threshold behaves the same way
    for _ in range(100):
        source = make_ontology(random_texts(rng, rng.randint(1, 5)), base="http://example.org/a#")
        target = make_ontology(random_texts(rng, rng.randint(1, 5)), base="http://example.org/b#")
        low, high = sorted((rng.random(), rng.random()))
        client = MockLLMClient()
        base = dict(retrieval=RetrievalConfig(top_k=3, threshold=0.0))
        loose = {
            (c.source, c.target)
            for c in align_rag(source, target, RAGConfig(llm_threshold=low, **base), client=client)
        }
        tight = {
            (c.source, c.target)
            for c in align_rag(source, target, RAGConfig(llm_threshold=high, **base), client=client)
        }
        assert tight <= loose

    # top-k candidate lists nest as k grows
    np_rng = __import__("numpy").random.default_rng(104)
    for _ in range(100):
        src = VectorMatrix(values=normalize_rows(np_rng.standard_normal((rng.randint(1, 12), 6))))
        tgt = VectorMatrix(values=normalize_rows(np_rng.standard_normal((rng.randint(1, 12), 6))))
        k = rng.randint(1, 6)
        small = cosine_topk(src, tgt, k)
        large = cosine_topk(src, tgt, k + 1)
        for small_row, large_row in zip(small, large):
            assert [j for j, _ in small_row] == [j for j, _ in large_row][: len(small_row)]

    # greedy one-to-one output never repeats an endpoint
    for _ in range(100):
        corrs = [
            Correspondence(f"s{rng.randint(0, 9)}", f"t{rng.randint(0, 9)}", "=", rng.random(), "x")
            for _ in range(rng.randint(0, 30))
        ]
        kept = cardinality_filter(corrs, "one_to_one_greedy")
        sources = [c.source for c in kept]
        targets = [c.target for c in kept]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)

    assert time.monotonic() - started < 10.0


def test_end_to_end_mock_rag_on_known_ground_truth(tmp_path):
    started = time.monotonic()
    # 30 ground-truth labels: every ordered pair of distinct letters from a
    # six-letter alphabet, rendered as five repeats of each letter.  Any two
    # distinct labels then share a subsequence of at most 5 of 20 characters
    # (similarity 0.5, below the 0.6 confidence threshold), while identical
    # labels score exactly 1.0.
    gt_labels = [x * 5 + y * 5 for x, y in itertools.permutations("abcdef", 2)]
    assert len(gt_labels) == 30 and len(set(gt_labels)) == 30
    for a, b in itertools.combinations(gt_labels, 2):
        assert fuzzy_ratio(a, b) <= 0.5

    src_extra = [x * 5 + y * 5 for x, y in itertools.permutations("mnopqr", 2)][:10]
    tgt_extra = [x * 5 + y * 5 for x, y in itertools.permutations("stuvwx", 2)][:15]
    src_labels = gt_labels + src_extra
    tgt_labels = gt_labels + tgt_extra
    random.Random(7).shuffle(tgt_labels)
    assert len(src_labels) == 40 and len(tgt_labels) == 45

    src_base, tgt_base = "http://example.org/a#", "http://example.org/b#"
    source = ontology_from_labels(tmp_path / "src.owl", src_labels, base=src_base)
    target = ontology_from_labels(tmp_path / "tgt.owl", tgt_labels, base=tgt_base)
    reference = write_reference_xml(
        tmp_path / "reference.rdf",
        [
            (f"{src_base}C{i:03d}", f"{tgt_base}C{tgt_labels.index(label):03d}")
            for i, label in enumerate(gt_labels)
        ],
    )

    for method in ("rag", "fewshot_rag"):
        output = tmp_path / f"{method}.xml"
        cfg = PipelineConfig(
            source_path=str(source),
            target_path=str(target),
            reference_path=str(reference),
            method=method,
            rag=RAGConfig(
                retrieval=RetrievalConfig(top_k=5, threshold=0.4),
                llm=LLMConfig(endpoint="mock:", batch_size=64),
                llm_threshold=0.6,
            ),
            output_path=str(output),
        )
        _, first = run_pipeline(cfg)
        assert first.metrics.precision == 100.0
        assert first.metrics.recall == 100.0
        assert first.metrics.f1 == 100.0
        assert first.correspondences == 30
        first_bytes = output.read_bytes()
        run_pipeline(cfg)
        assert output.read_bytes() == first_bytes
    assert time.monotonic() - started < 10.0


def test_serialization_roundtrips(tmp_path):
    started = time.monotonic()
    cells = [
        Correspondence("http://a#Alloy", "http://b#MetalAlloy", "=", 0.92, "fuzzy:simple"),
        Correspondence("http://a#Heat", "http://b#HeatTreatment", "=", 0.561234, "retrieval:tfidf"),
        Correspondence("http://a#Zinc", "http://b#Zn", "<", 1.0, "rag"),
    ]
    document = AlignmentDocument.from_correspondences(cells, onto1="http://a", onto2="http://b")

    xml_path = tmp_path / "alignment.xml"
    first = export_xml(document)
    xml_path.write_text(first, encoding="utf-8")
    parsed = parse_reference_alignment(xml_path)
    rebuilt = AlignmentDocument.from_correspondences(
        [Correspondence(c.source, c.target, c.relation, c.score) for c in parsed.cells],
        onto1=parsed.onto1, onto2=parsed.onto2,
    )
    assert export_xml(rebuilt) == first

    json_path = tmp_path / "alignment.json"
    json_path.write_text(export_json(document), encoding="utf-8")
    assert load_json_alignment(json_path) == cells
    assert time.monotonic() - started < 1.0


def test_desk_scale_retrieval_alignment(tmp_path):
    rng = random.Random(105)
    pool = [f"term{i}" for i in range(60)]
    src_labels = random_texts(rng, 5000, pool=pool, max_words=3)
    tgt_labels = random_texts(rng, 5000, pool=pool, max_words=3)
    source = ontology_from_labels(tmp_path / "large_src.owl", src_labels, base="http://example.org/a#")
    target = ontology_from_labels(tmp_path / "large_tgt.owl", tgt_labels, base="http://example.org/b#")

    started = time.monotonic()
    cfg = PipelineConfig(
        source_path=str(source),
        target_path=str(target),
        method="retrieval",
        retrieval=RetrievalConfig(backend="tfidf", top_k=10, threshold=0.2),
        output_path=str(tmp_path / "large.xml"),
    )
    correspondences, report = run_pipeline(cfg)
    elapsed = time.monotonic() - started

    assert report.correspondences == len(correspondences) > 0
    assert (tmp_path / "large.xml").exists()
    assert elapsed < 120.0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 1024 * 1024  # stay under 2 GB at peak


def test_shipped_config_fixtures_run_unchanged(tmp_path, capsys):
    expected = {
        "fuzzy-simple-c.json": {"method": "fuzzy", "view": "C", "fuzzy.threshold": 0.1},
        "retrieval-sbert-c.json": {
            "method": "retrieval", "view": "C", "retrieval.backend": "embedding",
            "retrieval.top_k": 10, "retrieval.threshold": 0.2,
        },
        "retrieval-sbert-cc.json": {
            "method": "retrieval", "view": "CC", "retrieval.backend": "embedding",
            "retrieval.top_k": 20, "retrieval.threshold": 0.2,
        },
        "retrieval-tfidf-cp.json": {
            "method": "retrieval", "view": "CP", "retrieval.backend": "tfidf",
            "retrieval.top_k": 20, "retrieval.threshold": 0.2,
        },
        "llm-pairwise-b2048.json": {"method": "llm", "view": "C", "rag.llm.batch_size": 2048},
        "llm-pairwise-b1024.json": {"method": "llm", "view": "C", "rag.llm.batch_size": 1024},
        "rag-c.json": {
            "method": "rag", "view": "C", "rag.llm_threshold": 0.6,
            "rag.retrieval.threshold": 0.4, "rag.retrieval.top_k": 5, "rag.llm.batch_size": 64,
        },
        "fewshot-rag-c-strict.json": {
            "method": "fewshot_rag", "view": "C", "rag.llm_threshold": 0.6, "rag.shots": 2,
            "rag.retrieval.threshold": 0.4, "rag.retrieval.top_k": 5, "rag.llm.batch_size": 64,
        },
        "fewshot-rag-c.json": {
            "method": "fewshot_rag", "view": "C", "rag.llm_threshold": 0.4, "rag.shots": 2,
            "rag.retrieval.threshold": 0.4, "rag.retrieval.top_k": 5, "rag.llm.batch_size": 64,
        },
        "fewshot-rag-cc.json": {
            "method": "fewshot_rag", "view": "CC", "rag.llm_threshold": 0.4, "rag.shots": 2,
            "rag.retrieval.threshold": 0.4, "rag.retrieval.top_k": 5, "rag.llm.batch_size": 32,
        },
        "fewshot-rag-cp.json": {
            "method": "fewshot_rag", "view": "CP", "rag.llm_threshold": 0.4, "rag.shots": 2,
            "rag.retrieval.threshold": 0.4, "rag.retrieval.top_k": 5, "rag.llm.batch_size": 64,
        },
    }
    for name, knobs in expected.items():
        data = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
        cfg = PipelineConfig.from_dict(data)
        for dotted, value in knobs.items():
            node = cfg
            for part in dotted.split("."):
                node = getattr(node, part)
            assert node == value, f"{name}: {dotted}"

    # every fixture runs offline through the CLI with mock endpoints
    labels = ["alloy", "copper", "zinc"]
    source = ontology_from_labels(tmp_path / "src.owl", labels, base="http://example.org/a#")
    target = ontology_from_labels(tmp_path / "tgt.owl", labels, base="http://example.org/b#")
    for name in expected:
        out = tmp_path / (name + ".xml")
        code = main([
            "align", "--config", str(CONFIG_DIR / name),
            "--source", str(source), "--target", str(target),
            "--endpoint", "mock:", "--out", str(out),
        ])
        assert code == 0, f"{name} failed to run"
        assert out.exists()
        capsys.readouterr()


@pytest.fixture(scope="module")
def four_concept_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("pair")
    labels = ["alloy", "copper", "zinc", "quartz"]
    source = ontology_from_labels(root / "src.owl", labels, base="http://example.org/a#")
    target = ontology_from_labels(root / "tgt.owl", labels, base="http://example.org/b#")
    return source, target


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=lambda path: path.name)
def test_every_shipped_config_validates_and_runs(config, four_concept_pair, tmp_path, capsys):
    source, target = four_concept_pair
    cfg = PipelineConfig.from_dict(json.loads(config.read_text(encoding="utf-8")))
    replace(cfg, source_path=str(source), target_path=str(target)).validate()
    code = main([
        "align", "--config", str(config), "--source", str(source), "--target", str(target),
        "--endpoint", "mock:", "--out", str(tmp_path / "out.xml"),
    ])
    assert code == 0, capsys.readouterr().err


def test_shipped_exemplars_load():
    assert load_exemplars(CONFIG_DIR / "exemplars-example.json") == DEFAULT_EXEMPLARS
