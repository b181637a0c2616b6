"""Command-line interface.

Subcommands:

* ``align``    run an alignment pipeline (config file and/or flags);
* ``eval``     score a predicted alignment against a reference;
* ``convert``  translate alignment files between XML and JSON;
* ``compare``  rank run reports side by side.

``align`` reads the default config, then the ``--config`` file, then its
flags as one more layer (``_ALIGN_FLAGS`` names each flag's config paths),
so a flag lands on a null or absent section as on its default.

Exit codes: 0 on success; 1 for configuration problems, including usage
errors and a config or report file that cannot be read as a JSON object;
2 for runtime failures, including an OS error on an input or output file.
Diagnostics go to stderr as one line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from .errors import ConfigError, OntomatchError
from .evaluation import Metrics, compare, evaluate
from .export import write_alignment
from .parsing import parse_reference_alignment
from .pipeline import PipelineConfig, report_path_for, run_pipeline


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message: str):
        raise ConfigError(message)


# One row per ``align`` flag: name, type, help, and the config paths (dotted
# into nested sections) that receive its value.
_ALIGN_FLAGS: tuple[tuple[str, type, str, tuple[str, ...]], ...] = (
    ("source", str, "source ontology file", ("source_path",)),
    ("target", str, "target ontology file", ("target_path",)),
    ("reference", str, "reference alignment for evaluation", ("reference_path",)),
    ("method", str, "fuzzy | retrieval | llm | rag | fewshot_rag", ("method",)),
    ("view", str, "C | CC | CP", ("view",)),
    ("threshold", float, "fuzzy/retrieval score threshold", ("fuzzy.threshold", "retrieval.threshold")),
    ("tr", float, "RAG retriever similarity threshold", ("rag.retrieval.threshold",)),
    ("tl", float, "RAG yes-confidence threshold", ("rag.llm_threshold",)),
    ("topk", int, "retrieval candidates per concept", ("retrieval.top_k", "rag.retrieval.top_k")),
    ("ns", int, "few-shot examples per prompt", ("rag.shots",)),
    ("batch", int, "provider batch size", ("retrieval.batch_size", "rag.llm.batch_size")),
    ("endpoint", str, "provider URL ('mock:' for offline mocks)",
     ("retrieval.provider_endpoint", "rag.retrieval.provider_endpoint", "rag.llm.endpoint")),
    ("model", str, "provider model identifier", ("retrieval.model", "rag.llm.model_id")),
    ("out", str, "output alignment path (.json for JSON, else XML)", ("output_path",)),
    ("config", str, "JSON config file", ()),
    ("seed", int, "seed for mock providers", ("seed",)),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ontomatch", description="Align OWL/RDF ontologies.")
    sub = parser.add_subparsers(dest="command", required=True)

    align = sub.add_parser("align", help="run an alignment pipeline")
    for name, kind, text, _ in _ALIGN_FLAGS:
        align.add_argument(f"--{name}", type=kind, help=text)

    evl = sub.add_parser("eval", help="score predictions against a reference")
    evl.add_argument("--pred", required=True, help="predicted alignment (XML or JSON)")
    evl.add_argument("--ref", required=True, help="reference alignment (XML or JSON)")

    conv = sub.add_parser("convert", help="translate between XML and JSON alignments")
    conv.add_argument("--in", dest="input", required=True, help="input alignment file")
    conv.add_argument("--out", required=True, help="output alignment file (.json for JSON, else XML)")

    comp = sub.add_parser("compare", help="rank run reports")
    comp.add_argument("reports", nargs="+", help="run report JSON files")
    return parser


def _read_json_object(path: str | Path, what: str) -> dict[str, Any]:
    """The JSON object in ``path``; a file that cannot be read as one is a ConfigError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


# --------------------------------------------------------------------------
# align
# --------------------------------------------------------------------------


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config file's settings with the flags read over them as one more layer."""
    flags: dict[str, Any] = {}
    for name, _, _, paths in _ALIGN_FLAGS:
        value = getattr(args, name)
        if value is None:
            continue
        for dotted in paths:
            *sections, key = dotted.split(".")
            node = flags
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = value
    data = _read_json_object(args.config, "config file") if args.config else {}
    return PipelineConfig.from_dict(data, flags)


def _cmd_align(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    correspondences, report = run_pipeline(cfg)
    summary: dict[str, Any] = {
        "correspondences": len(correspondences),
        "output_path": report.output_path,
        "report_path": str(report_path_for(report.output_path)),
    }
    if report.metrics is not None:
        summary["metrics"] = report.metrics.to_dict(seconds=report.seconds.get("total"))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# --------------------------------------------------------------------------
# eval / convert / compare
# --------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    started = time.monotonic()
    metrics = evaluate(parse_reference_alignment(args.pred), parse_reference_alignment(args.ref))
    seconds = round(time.monotonic() - started, 1)
    print(json.dumps(metrics.to_dict(seconds=seconds), indent=2, sort_keys=True))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    write_alignment(parse_reference_alignment(args.input), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    runs = []
    for report_file in args.reports:
        path = Path(report_file)
        data = _read_json_object(path, "report file")
        metrics_data = data.get("metrics") or {}
        seconds_data = data.get("seconds") or {}
        if not isinstance(metrics_data, dict) or not isinstance(seconds_data, dict):
            raise ConfigError(f"report file {path}: 'metrics' and 'seconds' must be objects")
        try:
            metrics = Metrics(
                inter=int(metrics_data.get("inter", 0)),
                pred=int(metrics_data.get("pred", 0)),
                ref=int(metrics_data.get("ref", 0)),
                precision=float(metrics_data.get("precision", 0.0)),
                recall=float(metrics_data.get("recall", 0.0)),
                f1=float(metrics_data.get("f1", 0.0)),
            )
            seconds = float(seconds_data.get("total", 0.0))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"report file {path} holds a non-numeric count, score or time") from None
        runs.append((path.stem, metrics, seconds))
    table = compare(runs)
    print(table.to_text())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        commands = {"align": _cmd_align, "eval": _cmd_eval, "convert": _cmd_convert, "compare": _cmd_compare}
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"ontomatch: config error: {exc}", file=sys.stderr)
        return 1
    except (OntomatchError, OSError) as exc:
        print(f"ontomatch: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
