"""End-to-end alignment runs: parse, encode, align, filter, score, export.

:class:`PipelineConfig` mirrors the JSON config-file schema one to one;
:func:`run_pipeline` executes it and writes the alignment plus a run
report (config echo, counts, metrics, per-stage seconds) next to the
output file.  An LLM method needs an endpoint: a URL, or ``mock:`` for
the offline stand-ins (``mock:?seed=N`` seeds the embedding one), with
which a run is deterministic: repeated runs produce byte-identical
alignment files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .encoding import EncodingView, encode
from .errors import ConfigError, check_choice, check_count
from .evaluation import Metrics, evaluate
from .export import atomic_write, write_alignment
from .fuzzy import FuzzyConfig, align_fuzzy
from .mapping import AlignmentDocument, Correspondence
from .parsing import parse_ontology, parse_reference_alignment
from .postprocess import PostprocessConfig, apply_postprocess
from .rag import DEFAULT_PAIR_CAP, RAGConfig, align_llm_pairwise, align_rag, exemplars_from_json
from .retrieval import RetrievalConfig, align_retrieval

_METHODS = ("fuzzy", "retrieval", "llm", "rag", "fewshot_rag")
_DEFAULT_FEWSHOT = 2


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one alignment run needs.

    The JSON config file uses exactly these field names; nested sections
    (fuzzy, retrieval, rag, postprocess) map to the corresponding config
    dataclasses.  CLI flags override individual values.
    """

    source_path: str = ""
    target_path: str = ""
    reference_path: str | None = None
    method: str = "fuzzy"
    view: str = "C"
    fuzzy: FuzzyConfig = field(default_factory=FuzzyConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    rag: RAGConfig = field(default_factory=RAGConfig)
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    output_path: str = "alignment.xml"
    pair_cap: int = DEFAULT_PAIR_CAP

    def validate(self) -> None:
        if not self.source_path:
            raise ConfigError("source_path is required")
        if not self.target_path:
            raise ConfigError("target_path is required")
        check_choice("method", self.method, _METHODS)
        EncodingView.parse(self.view)
        check_count("pair_cap", self.pair_cap)
        if self.rag.shots and self.method != "fewshot_rag":
            raise ConfigError(f"method {self.method} takes no shots; for {self.rag.shots} shots use method fewshot_rag")
        if self.method == "fewshot_rag" and self.rag.shots == 0:
            raise ConfigError("method fewshot_rag needs at least 1 shot; for zero-shot use method rag")
        self.fuzzy.validate()
        self.retrieval.validate()
        self.rag.validate()
        self.postprocess.validate()

    # -- config file plumbing -------------------------------------------

    @classmethod
    def from_dict(cls, *layers: dict[str, Any]) -> "PipelineConfig":
        """Build a config from JSON-schema layers, rejecting unknown keys.

        Each layer is read over the config built so far, starting from the
        default: every section is its current value plus the keys the layer
        sets, so a key left out (or a null section) keeps that value.
        """
        cfg = cls()
        for data in layers:
            cfg = _read_section(cfg, data, "")
        return cfg

    def to_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["rag"]["exemplars"] = [dataclasses.asdict(e) for e in self.rag.exemplars]
        return out


def _read_section(default, data: Any, where: str):
    """``default`` with the keys of the JSON object ``data`` applied.

    Fields whose default is a dataclass are read recursively; a null or
    absent section keeps its default.  Every other value must have its
    field's JSON type (:func:`_fits`).  ``where`` is the dotted section
    name ("" for the top level) used in error messages.
    """
    if data is None:
        return default
    if not isinstance(data, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    declared = {f.name: f.type for f in dataclasses.fields(default)}
    unknown = set(data) - set(declared)
    if unknown:
        place = f"in section {where!r}" if where else "at the top level"
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r} {place}")
    hints = get_type_hints(type(default))
    values = {}
    for name, value in data.items():
        path = f"{where}.{name}" if where else name
        current = getattr(default, name)
        if dataclasses.is_dataclass(current):
            value = _read_section(current, value, path)
        elif path == "rag.exemplars":
            value = exemplars_from_json(value, path)
        elif not _fits(value, hints[name]):
            raise ConfigError(f"config key {path!r} must be {declared[name]}, got {json.dumps(value)}")
        values[name] = value
    return replace(default, **values)


def _fits(value: Any, hint: Any) -> bool:
    """Whether a decoded JSON value fits a field's type: null only where it
    says ``| None``, an integer where it says float, any object where it
    says ``dict[...]``, and never a bool for a number."""
    members = get_args(hint) if type(None) in get_args(hint) else (hint,)
    kinds = {get_origin(m) or m for m in members}
    return type(value) in kinds or (type(value) is int and float in kinds)


@dataclass(frozen=True)
class RunReport:
    """What happened during one pipeline run."""

    method: str
    view: str
    correspondences: int
    seconds: dict[str, float]
    output_path: str
    metrics: Metrics | None = None
    config: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def report_path_for(output_path: str | Path) -> Path:
    return Path(str(output_path) + ".report.json")


class _StageClock:
    """Monotonic per-stage timing, reported in seconds at one decimal."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._start = time.monotonic()

    @contextlib.contextmanager
    def time(self, stage: str):
        begin = time.monotonic()
        try:
            yield
        finally:
            self.seconds[stage] = self.seconds.get(stage, 0.0) + (time.monotonic() - begin)

    def finish(self) -> dict[str, float]:
        total = time.monotonic() - self._start
        out = {name: round(value, 1) for name, value in self.seconds.items()}
        out["total"] = round(total, 1)
        return out


def run_pipeline(
    cfg: PipelineConfig,
    *,
    llm_client=None,
    embedding_provider=None,
) -> tuple[list[Correspondence], RunReport]:
    """Execute one alignment run and write its output and report files.

    Args:
        cfg: validated pipeline settings.
        llm_client: optional injected client (otherwise built from
            ``rag.llm.endpoint``; "mock:" selects the offline mock).
        embedding_provider: optional injected embedding backend.

    Returns:
        The final correspondences and the run report.
    """
    if cfg.method == "fewshot_rag" and cfg.rag.shots is None:
        cfg = replace(cfg, rag=replace(cfg.rag, shots=_DEFAULT_FEWSHOT))
    cfg.validate()
    view = EncodingView.parse(cfg.view)
    clock = _StageClock()

    with clock.time("parse"):
        source = parse_ontology(cfg.source_path)
        target = parse_ontology(cfg.target_path)

    corpora = None
    if cfg.method in ("fuzzy", "retrieval", "llm"):
        with clock.time("encode"):
            corpora = (encode(source, view), encode(target, view))
    else:
        clock.seconds["encode"] = 0.0  # rag encodes inside the aligner

    with clock.time("align"):
        if cfg.method == "fuzzy":
            correspondences = align_fuzzy(corpora[0], corpora[1], cfg.fuzzy)
        elif cfg.method == "retrieval":
            correspondences = align_retrieval(
                corpora[0], corpora[1], cfg.retrieval, provider=embedding_provider,
            )
        elif cfg.method == "llm":
            correspondences = align_llm_pairwise(
                corpora[0], corpora[1], cfg.rag.llm,
                template=cfg.rag.template, pair_cap=cfg.pair_cap,
                journal_path=cfg.rag.journal_path, client=llm_client,
            )
        else:
            correspondences = align_rag(
                source, target, cfg.rag, view=view,
                client=llm_client, provider=embedding_provider,
            )

    with clock.time("postprocess"):
        correspondences = apply_postprocess(correspondences, cfg.postprocess)

    metrics = None
    if cfg.reference_path:
        with clock.time("evaluate"):
            metrics = evaluate(correspondences, parse_reference_alignment(cfg.reference_path))

    with clock.time("export"):
        document = AlignmentDocument.from_correspondences(
            correspondences, onto1=cfg.source_path, onto2=cfg.target_path,
        )
        write_alignment(document, cfg.output_path)

    report = RunReport(
        method=cfg.method,
        view=view.value,
        correspondences=len(correspondences),
        seconds=clock.finish(),
        output_path=str(cfg.output_path),
        metrics=metrics,
        config=cfg.to_dict(),
    )
    atomic_write(report_path_for(cfg.output_path), report.to_json())
    return correspondences, report
