"""Command-line interface.

Subcommands:

* ``align``    run an alignment pipeline (config file and/or flags);
* ``eval``     score a predicted alignment against a reference;
* ``convert``  translate alignment files between XML and JSON;
* ``compare``  rank run reports side by side.

Exit codes: 0 on success, 1 for configuration problems (including usage
errors), 2 for runtime failures.  Diagnostics go to stderr as one line.
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="ontomatch", description="Align OWL/RDF ontologies.")
    sub = parser.add_subparsers(dest="command", required=True)

    align = sub.add_parser("align", help="run an alignment pipeline")
    align.add_argument("--source", help="source ontology file")
    align.add_argument("--target", help="target ontology file")
    align.add_argument("--reference", help="reference alignment for evaluation")
    align.add_argument("--method", help="fuzzy | retrieval | llm | rag | fewshot_rag")
    align.add_argument("--view", help="C | CC | CP")
    align.add_argument("--threshold", type=float, help="fuzzy/retrieval score threshold")
    align.add_argument("--tr", type=float, help="RAG retriever similarity threshold")
    align.add_argument("--tl", type=float, help="RAG yes-confidence threshold")
    align.add_argument("--topk", type=int, help="retrieval candidates per concept")
    align.add_argument("--ns", type=int, help="few-shot examples per prompt")
    align.add_argument("--batch", type=int, help="provider batch size")
    align.add_argument("--endpoint", help="provider URL ('mock:' for offline mocks)")
    align.add_argument("--model", help="provider model identifier")
    align.add_argument("--out", help="output alignment path")
    align.add_argument("--format", help="xml | json")
    align.add_argument("--config", help="JSON config file")
    align.add_argument("--seed", type=int, help="seed for mock providers")

    evl = sub.add_parser("eval", help="score predictions against a reference")
    evl.add_argument("--pred", required=True, help="predicted alignment (XML or JSON)")
    evl.add_argument("--ref", required=True, help="reference alignment (XML or JSON)")

    conv = sub.add_parser("convert", help="translate between XML and JSON alignments")
    conv.add_argument("--in", dest="input", required=True, help="input alignment file")
    conv.add_argument("--out", required=True, help="output alignment file")
    conv.add_argument("--format", required=True, help="xml | json (output format)")

    comp = sub.add_parser("compare", help="rank run reports")
    comp.add_argument("reports", nargs="+", help="run report JSON files")
    return parser


# --------------------------------------------------------------------------
# align
# --------------------------------------------------------------------------

# flag -> config paths receiving its value (dotted into nested sections)
_FLAG_PATHS = {
    "source": ("source_path",),
    "target": ("target_path",),
    "reference": ("reference_path",),
    "method": ("method",),
    "view": ("view",),
    "threshold": ("fuzzy.threshold", "retrieval.threshold"),
    "tr": ("rag.retrieval.threshold",),
    "tl": ("rag.llm_threshold",),
    "topk": ("retrieval.top_k", "rag.retrieval.top_k"),
    "ns": ("rag.shots",),
    "batch": ("retrieval.batch_size", "rag.llm.batch_size"),
    "endpoint": ("retrieval.provider_endpoint", "rag.retrieval.provider_endpoint", "rag.llm.endpoint"),
    "model": ("retrieval.model", "rag.llm.model_id"),
    "out": ("output_path",),
    "format": ("output_format",),
    "seed": ("seed",),
}


def _set_path(data: dict[str, Any], dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config section {key!r} must be an object")
    node[keys[-1]] = value


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    data: dict[str, Any] = {}
    if args.config:
        path = Path(args.config)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    for flag, paths in _FLAG_PATHS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        for dotted in paths:
            _set_path(data, dotted, value)
    return PipelineConfig.from_dict(data)


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
    if args.format not in ("xml", "json"):
        raise ConfigError(f"unknown output format: {args.format!r}")
    write_alignment(parse_reference_alignment(args.input), args.out, args.format)
    print(f"wrote {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    runs = []
    for report_file in args.reports:
        path = Path(report_file)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"report file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"report file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"report file {path} must hold a JSON object")
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
        if args.command == "align":
            return _cmd_align(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "convert":
            return _cmd_convert(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        print(f"ontomatch: config error: {exc}", file=sys.stderr)
        return 1
    except OntomatchError as exc:
        print(f"ontomatch: error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"ontomatch: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
