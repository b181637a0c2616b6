"""Fresh-interpreter probes for the benchmark.

    python3 bench/probe.py setup CONFIG.json   # seconds to import ontomatch and
                                               # build + validate the config
    python3 bench/probe.py run CONFIG.json     # one run_pipeline call; prints
                                               # the process's peak RSS in KiB

ontomatch must be importable (the benchmark sets PYTHONPATH to the
checkout's ``src``).
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    mode, config_path = argv
    import ontomatch  # noqa: F401
    from ontomatch.pipeline import PipelineConfig, run_pipeline

    with open(config_path, encoding="utf-8") as fh:
        cfg = PipelineConfig.from_dict(json.load(fh))
    cfg.validate()
    if mode == "setup":
        print(repr(time.perf_counter() - _START))
        return 0
    import resource

    run_pipeline(cfg)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
