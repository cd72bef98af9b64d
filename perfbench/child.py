"""One benchmark invocation: run ``mfg_sandbox.cli.main`` on a generated config.

Usage: python3 child.py SRC_DIR CONFIG TIMING_JSON TRACE(0|1) [SPANS_JSON]

Imports the package from SRC_DIR, stamps the monotonic clock when the first
learner step or the first probe pair starts (the entry of ``run_sandbox`` or
``probe_contraction``), runs the CLI with the config as its only input, and
writes the stamps, the process's peak RSS and, with TRACE=1, the tracer's
per-function statistics to TIMING_JSON and its spans to SPANS_JSON.
The exit code is the CLI's.
"""

import json
import resource
import sys
import time


def main() -> int:
    src, config, timing_path, trace = sys.argv[1:5]
    spans_path = sys.argv[5] if len(sys.argv) > 5 else None
    sys.path.insert(0, src)
    import mfg_sandbox
    from mfg_sandbox import cli

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mfg_sandbox)

    stamps = {}

    def stamp_first_step(fn):
        def wrapper(*args, **kwargs):
            stamps.setdefault("first_step", time.monotonic())
            return fn(*args, **kwargs)

        return wrapper

    cli.run_sandbox = stamp_first_step(cli.run_sandbox)
    cli.probe_contraction = stamp_first_step(cli.probe_contraction)

    stamps["main"] = time.monotonic()
    code = cli.main(["--config", config, "--quiet"])
    stamps["end"] = time.monotonic()

    timing = {
        "exit_code": code,
        "stamps": stamps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        timing["stats"] = tracer.stats()
        spans = tracer.spans()
        timing["num_spans"] = len(spans)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "thread", "cpu_s"], "spans": spans},
                fh,
            )
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
