"""Print a digest of what every benchmark job prints, one line per job.

    python3 tools/job_bytes.py SEED

Builds the job list of each of the four workloads for SEED at the default
run length with ``perfbench/workloads.py``, in a temporary directory, and
runs it through ``perfbench/run.py``'s ``run_worker``: one fresh
``perfbench/worker.py`` process per workload, which runs each job through
``mctwist.cli.main`` as the benchmark does.  Each line is the workload, the
job id and the sha256 of the JSON list [exit code, stdout, stderr], with
stderr as the worker keeps it (its last 500 characters); a job that raises
has the exception as its exit code.  Two trees print the same bytes for
every job exactly when ``diff`` of their outputs is empty.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].lstrip("-").isdigit():
        print("usage: python3 tools/job_bytes.py SEED", file=sys.stderr)
        return 1
    seed = int(argv[0])
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            jobs = workloads.build_jobs(name, workloads.instances(name, seed, 1.0), workdir)
            for rec in run.run_worker(workdir, jobs, name, False)["jobs"]:
                payload = json.dumps([rec["code"], rec["stdout"], rec["stderr"]])
                print(name, rec["id"], hashlib.sha256(payload.encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
