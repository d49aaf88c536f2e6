"""Seeded end-to-end benchmark of the mctwist command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
``src/`` and writes only under ``.perfbench/``.  Set-up draws the run's
inputs from the seed, checks each input file against the reference hash
recorded for it (a mismatch means the generator drifted, and the run
stops with exit code 3) and checks that no two jobs ask the same question.
The job list runs in three rounds.  Each round runs the whole list, in an
order of its own, in a fresh worker process through ``mctwist.cli.main``,
as a closed loop with one client, and every answer goes through the checks
in ``oracles.py``.  The host's speed swings in phases that can outlast a
run, so every time is scaled to a fixed host speed by ``hostspeed.py``,
from a probe of the host timed next to each job.  Each job's time is the
median of its three scaled times: ``wall_s`` and ``cpu_s`` sum these
per-job times, and the job percentiles are taken over them.  ``setup_s``
is the median of set-up times measured before each round.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the list
twice, untraced and then with the wrappers of ``tracing.py`` installed,
and reports the per-layer metrics.  Both print one metric per line and end
with a JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

import hostspeed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SECONDS = 25          # the job counts in workloads.py fill about this long
SETUP_REPEATS = 4            # per round, so 12 per run
WORKER_TIMEOUT = 160

SETUP_PROBE = ("import time\nt = time.perf_counter()\nimport mctwist.cli as cli\n"
               "cli.build_parser()\nprint(time.perf_counter() - t)\n")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "job_s.p50": "s", "job_s.p90": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric units by quantity; any other quantity is a count
UNITS = {"self_s": "s", "wall_s": "s", "max_bits": "bits", "bytes": "B",
         "snf_per_cohomology": "ratio", "decided_ratio": "ratio", "overhead_ratio": "ratio"}
HIGHER_IS_BETTER = {"equivalent", "distinguished", "decided_ratio"}
PER_LAYER = [(fn, q, UNITS.get(q, "count"), "higher" if q in HIGHER_IS_BETTER else "lower")
             for fn, qs in tracing.QUANTITIES.items() for q in qs.split()]


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_path(workload) -> str:
    return os.path.join(HERE, "reference", workload + ".json")


def input_record(job, workdir) -> dict:
    return {"argv": job.argv,
            "files": {os.path.basename(f): sha256_file(os.path.join(workdir, f))
                      for f in job.files}}


def input_key(job, record) -> str:
    """What the program is asked: the argv with each input path replaced by
    its file's hash and the per-job ``--seed`` left out.  Two jobs with one
    key would let a result cache answer the second."""
    argv, out = list(job.argv), []
    while argv:
        arg = argv.pop(0)
        if arg == "--seed":
            argv.pop(0)
        else:
            out.append(record["files"].get(os.path.basename(arg), arg)
                       if arg in job.files else arg)
    return json.dumps(out)


def repeated_share(jobs, records) -> float:
    keys = [input_key(j, rec) for j, rec in zip(jobs, records)]
    return 1 - len(set(keys)) / len(keys)


def run_worker(workdir, jobs, name, trace: bool) -> dict:
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump([{"id": j.id, "argv": j.argv} for j in jobs], fh)
    results = os.path.join(workdir, name + ".json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), jobs_path, results]
    if trace:
        cmd += ["--trace", os.path.join(workdir, "spans-%s.jsonl" % name)]
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("worker failed:\n" + proc.stderr[-2000:])
    with open(results) as fh:
        return json.load(fh)


def judge(job, record):
    """None when the job ran and its answer passed its check, else a reason."""
    if record["code"] != 0:
        return "exit code %r: %s" % (record["code"], record["stderr"].strip()[-200:])
    try:
        payload = json.loads(record["stdout"])
    except ValueError as exc:
        return "stdout is not JSON: %s" % exc
    try:
        return job.check(payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "answer lacks an expected field: %r" % (exc,)


def measure_setup(repeats) -> list:
    """Times in fresh interpreters to import the CLI and build its parser.

    They are not scaled: the time of an import follows the host's speed
    less closely than the probe's does, and scaling made it spread more."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def percentile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def raw_seconds(result) -> float:
    """The unscaled time of a round's jobs, probes left out."""
    return sum(r["seconds"] for r in result["jobs"])


def layer_metrics(spans, traced_wall, overhead, stdout_changed) -> dict:
    agg = tracing.aggregate(spans)
    search = agg.get("mc.search_homotopy_gauge", {})
    z_cohomology = agg.get("exactlinalg.cohomology", {}).get("z", 0)
    derived = {
        ("exactlinalg", "snf_per_cohomology"):
            agg["snf_under_z_cohomology"] / z_cohomology if z_cohomology else 0.0,
        ("mc.search_homotopy_gauge", "decided_ratio"):
            (search.get("equivalent", 0) + search.get("distinguished", 0)) /
            search["calls"] if search.get("calls") else 0.0,
        ("cli", "stdout_changed"): stdout_changed,
        ("trace", "wall_s"): traced_wall,
        ("trace", "overhead_ratio"): overhead,
    }
    out = {}
    for fn, q, unit, _ in PER_LAYER:
        value = derived.get((fn, q), agg.get(fn, {}).get(q, 0))
        out["%s.%s" % (fn, q)] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mctwist", "cli.py")):
        sys.stderr.write("no mctwist sources under %s: run from a source checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    workdir = os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (args.workload, args.seed,
                                                              os.getpid()))
    os.makedirs(workdir)
    # on SIGTERM, unwind: subprocess.run kills and reaps the worker, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_rounds(workdir, jobs, orders, name, trace: bool, setup_times=None) -> list:
    """One fresh worker per order, each running every job; set-up probes (if
    asked) before each.  Each round's job records come back in list order,
    each with its times scaled by the host probes around it."""
    results = []
    for r, order in enumerate(orders):
        if setup_times is not None:
            setup_times += measure_setup(SETUP_REPEATS)
        result = run_worker(workdir, [jobs[i] for i in order], "%s-%d" % (name, r), trace)
        records = [None] * len(jobs)
        for i, rec in zip(order, result["jobs"]):
            rec["scaled_s"] = hostspeed.scaled(rec["seconds"], rec["probes"])
            rec["scaled_cpu_s"] = hostspeed.scaled(rec["cpu_s"], rec["probes"])
            records[i] = rec
        result["jobs"] = records
        results.append(result)
    return results


def run(args, workloads, workdir) -> int:
    picks = workloads.instances(args.workload, args.seed, args.seconds / DEFAULT_SECONDS)
    jobs = workloads.build_jobs(args.workload, picks, workdir)
    with open(reference_path(args.workload)) as fh:
        reference = json.load(fh)
    records = [input_record(j, workdir) for j in jobs]
    drifted = [j.id for j, rec in zip(jobs, records)
               if reference.get(j.id, {}).get("input") != rec]
    if drifted:
        sys.stderr.write("generator drift: %d inputs differ from the reference, first %s\n"
                         % (len(drifted), drifted[0]))
        return 3
    repeated = repeated_share(jobs, records)

    rounds = workloads.ROUNDS if args.trace == 0 else 1
    orders = [workloads.round_order(args.workload, args.seed, r, len(jobs))
              for r in range(rounds)]
    setup_times = [] if args.trace == 0 else None
    plain = run_rounds(workdir, jobs, orders, "plain", False, setup_times)
    attempted = failed = changed = 0
    for i, job in enumerate(jobs):
        verdicts = {}                      # (code, stdout) -> reason: each answer checked once
        for result in plain:
            rec = result["jobs"][i]
            key = (repr(rec["code"]), rec["stdout"])
            if key not in verdicts:
                verdicts[key] = judge(job, rec)
            attempted += 1
            if verdicts[key] is not None:
                failed += 1
                print("FAIL %s: %s" % (job.id, verdicts[key]))
        changed += any(sha256_text(out) != reference[job.id]["stdout"] for _, out in verdicts)
    correct = failed == 0 and repeated == 0

    def per_job(key):                      # each job's median over the rounds
        return [statistics.median(p["jobs"][i][key] for p in plain) for i in range(len(jobs))]
    job_wall, job_cpu = per_job("scaled_s"), per_job("scaled_cpu_s")
    print("workload %s seed %d: %d jobs, each run in %d rounds, each round a fresh process; "
          "closed loop, one client" % (args.workload, args.seed, len(jobs), rounds))
    print("fail_rate %.6f ratio (%d of %d)" % (failed / attempted, failed, attempted))
    print("repeated_input_share %.6f ratio" % repeated)
    print("cli.stdout_changed %d count (of %d compared with the reference)"
          % (changed, len(jobs)))
    print("job_s samples %d count" % len(job_wall))
    print("unscaled job time per round %s s; median host probe per round %s ms"
          % (" ".join("%.4f" % raw_seconds(p) for p in plain),
             " ".join("%.4f" % (1000 * statistics.median(q for r in p["jobs"]
                                                         for q in r["probes"]))
                      for p in plain)))

    if args.trace == 0:
        metrics = {"wall_s": sum(job_wall), "cpu_s": sum(job_cpu),
                   "job_s.p50": statistics.median(job_wall),
                   "job_s.p90": percentile(job_wall, 90),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": max(p["peak_rss_mb"] for p in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        traced = run_rounds(workdir, jobs, orders, "traced", True)[0]
        differ = sum(a["stdout"] != b["stdout"]
                     for a, b in zip(plain[0]["jobs"], traced["jobs"]))
        print("trace.stdout_differs %d count" % differ)
        print("trace.bindings_restored %s (%d bindings wrapped)"
              % (traced["restored"], len(traced["bindings"])))
        correct = correct and differ == 0 and traced["restored"]
        keep = os.path.join(ROOT, ".perfbench", "spans-%s.jsonl" % args.workload)
        shutil.copyfile(os.path.join(workdir, "spans-traced-0.jsonl"), keep)
        with open(keep) as fh:
            spans = [json.loads(line) for line in fh]
        wall = raw_seconds(traced)
        overhead = (sum(r["scaled_s"] for r in traced["jobs"]) /
                    sum(r["scaled_s"] for r in plain[0]["jobs"]))
        metrics = layer_metrics(spans, wall, overhead, changed)
        layers = {}
        for name, m in metrics.items():
            if name.endswith(".self_s"):
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + m["value"]
        for layer, s in sorted(layers.items()):
            print("share %s.self_s / trace.wall_s %.4f" % (layer, s / wall))
        for name in ("exactlinalg.smith_normal_form.self_s", "dgcore.check_dga.self_s",
                     "holonomy.solve_transport.self_s"):
            print("share %s / trace.wall_s %.4f" % (name, metrics[name]["value"] / wall))
        print("spans %d written to %s" % (len(spans), os.path.relpath(keep, ROOT)))
    for name, m in metrics.items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
