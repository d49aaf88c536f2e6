"""Record the reference hashes of every input a workload can draw.

    python3 perfbench/record_reference.py WORKLOAD [WORKLOAD ...]

For each instance in the universe of each job class: the argv, the SHA-256
of every input file, and the SHA-256 of the job's stdout.  Run it from the
root of a source checkout at the commit whose outputs are the reference.
Nothing is written unless every answer passes its check and no two
instances of the workload ask the same question (``run.input_key``): a
run, which draws from these universes, then never repeats an input.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def dumps_one_per_line(reference) -> str:
    """JSON with one instance per line, so that a diff shows which changed."""
    lines = ["%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True, separators=(",", ":")))
             for k, v in sorted(reference.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def record(workload) -> int:
    import workloads
    reference, failures, first_of = {}, 0, {}
    for cls in workloads.WORKLOADS[workload]:
        workdir = os.path.join(run.ROOT, ".perfbench", "reference-%s-%s" % (workload, cls.name))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            picks = [(cls, k) for k in range(cls.universe)]
            jobs = workloads.build_jobs(workload, picks, workdir)
            result = run.run_worker(workdir, jobs, "plain", trace=False)
            for job, rec in zip(jobs, result["jobs"]):
                reason = run.judge(job, rec)
                if reason is not None:
                    print("FAIL %s: %s" % (job.id, reason))
                    failures += 1
                record = run.input_record(job, workdir)
                key = run.input_key(job, record)
                if key in first_of:
                    print("REPEAT %s asks what %s asks" % (job.id, first_of[key]))
                    failures += 1
                first_of.setdefault(key, job.id)
                reference[job.id] = {"input": record,
                                     "stdout": run.sha256_text(rec["stdout"])}
            print("%s/%s: %d instances, %.1f s" % (workload, cls.name, len(jobs),
                                                   sum(r["seconds"] for r in result["jobs"])))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print("%d answers failed their checks or repeat an input; reference not written"
              % failures)
        return 1
    with open(run.reference_path(workload), "w") as fh:
        fh.write(dumps_one_per_line(reference))
    return 0


def main(argv) -> int:
    sys.path.insert(0, run.SRC)
    return max([record(w) for w in argv] or [2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
