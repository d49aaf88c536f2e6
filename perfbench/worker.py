"""Run a job list through ``mctwist.cli.main`` in this one fresh process.

    python3 worker.py JOBS.json RESULTS.json [--trace SPANS.jsonl]

Closed loop, one client: one thread issues each job when the previous one
has returned, as a user running subcommands in turn would.  The working
directory holds the job inputs.  Imports happen before the clock starts;
stdout and stderr of each job are captured in memory.  The host's speed
is probed before each job and after the last (``hostspeed.probe``), and
every ``hostspeed.INTERVAL_S`` during a job (``hostspeed.Sampler``); the
sampler's time is taken off the job's.  Each job record carries the probes
before, during and after it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

PROBES_BETWEEN = 3          # host probes between two jobs


def main(argv) -> int:
    jobs_path, results_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    with open(jobs_path) as fh:
        jobs = json.load(fh)

    import hostspeed
    import tracing
    for layer in tracing.TARGETS:          # the same modules loaded in both modes
        importlib.import_module("mctwist." + layer)
    import mctwist.cli as cli
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracer.install()

    records = []
    before = [hostspeed.probe() for _ in range(PROBES_BETWEEN)]
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.job = job["id"]
        with hostspeed.Sampler() as sampler:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(job["argv"])
            except SystemExit as exc:          # argparse rejects its arguments
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - a job that raises counts as failed
                code = "raised %s: %s" % (type(exc).__name__, exc)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = [hostspeed.probe() for _ in range(PROBES_BETWEEN)]
        records.append({"id": job["id"], "code": code, "seconds": wall - sampler.spent,
                        "cpu_s": cpu - sampler.spent,
                        "probes": before + sampler.probes + after,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-500:]})
        before = after

    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "jobs": records}
    if tracer:
        result["restored"] = tracer.uninstall()
        result["bindings"] = tracer.bindings()
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(results_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
