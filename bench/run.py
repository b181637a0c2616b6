"""Offline end-to-end and per-layer benchmark of the ontomatch align pipeline.

    python3 bench/run.py --workload fuzzy_simple --seed 1 --seconds 20 --trace 0

Each invocation generates the workload's ontology pair and planted
reference from ``--seed`` (``generate.py``), then drives
``ontomatch.pipeline.run_pipeline``, the call the CLI makes, in a closed
loop with one caller for ``--seconds``, and checks every run's output
(``checks.py``).  The ``rag_http`` workload talks to a local provider stub
in its own process (``stub.py``).

With ``--trace 0`` it reports the end-to-end metrics:

* ``wall_s``: median wall time of one warm ``run_pipeline`` call (parse,
  encode, align, postprocess, evaluate, export, report write);
* ``setup_s``: median, over fresh interpreters, of importing ontomatch and
  building and validating the workload's config;
* ``peak_rss_mb``: peak RSS of a fresh process making one run;
* ``f1``: F1 of the run report, checked against the benchmark's own count;
* ``decisions_per_s``: decisions made per second of ``wall_s``; what a
  decision is depends on the workload (see ``workloads.py``).

With ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics of ``tracing.py``, medians over the traced runs.
``--workload all`` runs every workload both ways.

The error rate (failed / attempted operations, where an operation is a run,
a set-up probe or a provider request) is printed and carried by the result's
``attempted`` and ``failed`` fields.  The last stdout line is the result as
JSON; the exit code is non-zero when any check failed.  Details (raw
samples, the machine record, the output digest) and the spans go to
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
SETUP_PROBES = 5
MIN_TIMED_RUNS = 3
# Stop looping once this many operations failed; the result is wrong anyway.
MAX_FAILURES = 3
CHILD_TIMEOUT_S = 150

from checks import OutputChecker  # noqa: E402
from generate import generate  # noqa: E402
from workloads import STUB_LATENCY_MS, WORKLOADS, pipeline_config  # noqa: E402


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _child_env() -> dict[str, str]:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def machine_record() -> dict:
    import numpy
    import requests
    import scipy

    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "requests": requests.__version__,
        "machine": platform.machine(),
    }


# -- provider stub ---------------------------------------------------------


class Stub:
    def __init__(self, url: str):
        self.url = url

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=10) as response:
            return json.loads(response.read())


NO_STUB = {"connections": 0, "requests": 0, "errors": 0, "service_ms": []}


def stub_delta(before: dict, after: dict) -> dict:
    return {
        "connections": after["connections"] - before["connections"],
        "requests": after["requests"] - before["requests"],
        "errors": after["errors"] - before["errors"],
        "service_ms": after["service_ms"][len(before["service_ms"]):],
    }


@contextlib.contextmanager
def provider_stub(latency_ms: float):
    """Start stub.py in its own process; stop it and wait for it on exit."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "stub.py"), "--latency-ms", str(latency_ms)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"provider stub did not start: {line!r}")
        yield Stub(f"http://127.0.0.1:{int(line.split()[1])}")
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# -- runs --------------------------------------------------------------------


class Runner:
    """Makes checked pipeline runs and keeps the operation counts."""

    def __init__(self, run_pipeline, cfg, checker: OutputChecker):
        self.run_pipeline = run_pipeline
        self.cfg = cfg
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.decisions: set[int] = set()
        self.samples: dict[str, list[float]] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        _log(f"FAILED: {what}")

    def check(self, output_path: str) -> bool:
        problems = self.checker.check(output_path)
        for problem in problems:
            self.fail(problem)
        return not problems

    def run(self, call=None) -> float | None:
        """One checked run; its wall seconds, or None when it failed."""
        journal = self.cfg.rag.journal_path if self.cfg.method == "fewshot_rag" else None
        if journal:
            Path(journal).unlink(missing_ok=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            (call or self.run_pipeline)(self.cfg)
        except Exception:
            self.fail(f"run raised\n{traceback.format_exc()}")
            return None
        wall = time.perf_counter() - start
        if journal:
            with open(journal, encoding="utf-8") as fh:
                self.decisions.add(sum(1 for _ in fh))
        return wall if self.check(self.cfg.output_path) else None

    def child(self, mode: str, config_path: Path) -> float | None:
        """One fresh-interpreter probe; the number it prints, or None."""
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "probe.py"), mode, str(config_path)],
                env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.fail(f"probe {mode} timed out")
            return None
        try:
            if proc.returncode == 0:
                return float(proc.stdout.split()[-1])
        except (IndexError, ValueError):
            pass
        self.fail(f"probe {mode} exited {proc.returncode}: {proc.stdout!r}\n{proc.stderr}")
        return None


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def end_to_end(runner: Runner, workload, seconds: float, rss_config: Path, config_path: Path,
               n_source: int) -> dict[str, float]:
    rss_kib = runner.child("run", rss_config)
    if rss_kib is not None:
        runner.check(json.loads(rss_config.read_text())["output_path"])

    # No separate warm-up: ontomatch is imported, the inputs are in the page
    # cache and the peak-RSS child has just run, so the first run is warm.
    walls, setups = [], []
    measured = 0.0
    # A set-up probe after each timed run spreads the probes over the whole
    # loop, so one burst of machine noise cannot move them all.
    while (len(walls) < MIN_TIMED_RUNS or measured < seconds) and runner.failed <= MAX_FAILURES:
        start = time.perf_counter()
        wall = runner.run()
        measured += time.perf_counter() - start
        if wall is not None:
            walls.append(wall)
        setups.append(runner.child("setup", config_path))
    while len(setups) < SETUP_PROBES and runner.failed <= MAX_FAILURES:
        setups.append(runner.child("setup", config_path))
    setups = [s for s in setups if s is not None]
    if len(runner.decisions) > 1:
        runner.fail(f"LLM decision counts differ between runs: {sorted(runner.decisions)}")

    if workload.name == "rag_http":
        decisions = max(runner.decisions, default=0)
    elif workload.name == "retrieval_tfidf":
        decisions = n_source * runner.cfg.retrieval.top_k
    else:
        decisions = n_source
    wall_s = statistics.median(walls) if walls else float("nan")
    runner.samples = {"wall_s": walls, "setup_s": setups}
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": rss_kib / 1024 if rss_kib is not None else float("nan"),
        "f1": runner.checker.f1 if runner.checker.f1 is not None else float("nan"),
        "decisions_per_s": decisions / wall_s,
    }


def per_layer(runner: Runner, seconds: float, stub: Stub | None, spans_path: Path) -> dict[str, float]:
    from tracing import Tracer, layer_metrics

    untraced, traced, per_run = [], [], []
    measured = 0.0
    with spans_path.open("w", encoding="utf-8") as spans_out:
        run_id = 0
        while (run_id < 1 or measured < seconds) and runner.failed <= MAX_FAILURES:
            run_id += 1
            start = time.perf_counter()
            wall = runner.run()
            if wall is not None:
                untraced.append(wall)
            tracer = Tracer(run_id)
            before = stub.stats() if stub else NO_STUB
            with tracer.installed():
                wall = runner.run(tracer.wrap(runner.run_pipeline, "pipeline.run_pipeline"))
            after = stub.stats() if stub else NO_STUB
            measured += time.perf_counter() - start
            tracer.count()
            for span in tracer.spans:
                spans_out.write(json.dumps(span.to_dict()) + "\n")
            if wall is None:
                continue
            traced.append(wall)
            metrics = layer_metrics(tracer.spans, wall, STUB_LATENCY_MS if stub else 0.0,
                                    stub_delta(before, after))
            metrics["export.bytes"] = os.path.getsize(runner.cfg.output_path)
            per_run.append(metrics)
            if metrics["llm.fallback_decisions"]:
                runner.fail(f"{metrics['llm.fallback_decisions']} fallback LLM decisions")
            if metrics["transport.errors"]:
                runner.fail(f"{metrics['transport.errors']} transport errors")
    if not per_run:
        return {}
    out = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced) if untraced else 0.0
    return out


# -- entry point -----------------------------------------------------------


def _pin(workload: str, seed: int, scale: float) -> dict | None:
    pins = json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))
    if seed != pins["seed"] or scale != 1.0:
        return None
    return pins["workloads"].get(workload)


def _metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def benchmark(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> tuple[dict, dict]:
    """Run one workload; return (result line, details for .bench_work)."""
    from ontomatch.pipeline import PipelineConfig, run_pipeline

    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    n_source, n_target, planted, words = workload.sizes(scale)
    inputs = generate(work / "inputs", seed, n_source, n_target, planted, words)
    checker = OutputChecker(inputs["pairs"], _pin(name, seed, scale))

    needs_stub = name == "rag_http"
    with provider_stub(STUB_LATENCY_MS) if needs_stub else contextlib.nullcontext() as stub:
        def config(tag: str) -> dict:
            return pipeline_config(
                workload, inputs, str(work / f"alignment{tag}.xml"),
                stub_url=stub.url if stub else None,
                journal_path=str(work / f"journal{tag}.jsonl"),
                llm_concurrency=_nproc(),
            )

        config_path = _write_config(work / "config.json", config(""))
        rss_config = _write_config(work / "config-rss.json", config("-rss"))
        runner = Runner(run_pipeline, PipelineConfig.from_dict(config("")), checker)
        if trace:
            metrics = per_layer(runner, seconds, stub, work / "spans.jsonl")
        else:
            metrics = end_to_end(runner, workload, seconds, rss_config, config_path, n_source)
        provider = stub.stats() if stub else NO_STUB

    units = _metric_units(trace)
    if set(metrics) != set(units):
        runner.fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    attempted = runner.attempted + provider["requests"]
    failed = runner.failed + provider["errors"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units if key in metrics},
    }
    details = {
        "workload": name, "why": workload.why, "decision": workload.decision_unit,
        "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "sizes": {"source": n_source, "target": n_target, "planted": planted, "words": words},
        "machine": machine_record(), "sha256": checker.digest, "f1": checker.f1,
        "error_rate": failed / attempted if attempted else 0.0,
        "samples": runner.samples,
        "provider_service_ms_p50": statistics.median(provider["service_ms"]) if provider["service_ms"] else None,
        **result,
    }
    return result, details


def _print_block(result: dict, details: dict) -> None:
    machine = details["machine"]
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload {details['workload']} seed={details['seed']} trace={int(details['trace'])}: "
          f"{details['why']}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    print(f"error_rate {details['error_rate']!r} ratio "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    print(f"sha256 {details['sha256']}")
    if details["provider_service_ms_p50"] is not None:
        print(f"provider service_ms_p50 {details['provider_service_ms_p50']!r} ms "
              f"(injected latency {STUB_LATENCY_MS} ms)")
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ontomatch align-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them with and without tracing")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the full input sizes (smoke tests); pins apply at 1.0 only")
    args = parser.parse_args(argv)

    if not (SRC / "ontomatch" / "__init__.py").is_file():
        _log(f"no ontomatch sources at {SRC}; run from a full checkout")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    correct = True
    for name, trace in runs:
        result, details = benchmark(name, args.seed, args.seconds, trace, args.scale)
        WORK.mkdir(exist_ok=True)
        out_file = WORK / f"BENCH_{name}{'_trace' if trace else ''}.json"
        out_file.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
        _print_block(result, details)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
