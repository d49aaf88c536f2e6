"""Show that every answer check fires on a deliberately wrong answer.

    python3 perfbench/check_oracles.py

For each workload, runs a few real jobs, confirms that their answers pass,
then feeds each check a corrupted copy (a dropped torsion factor, a wrong
rank, a flipped check-dga verdict, a flipped gauge verdict, a tampered
certificate, a perturbed holonomy matrix, ...) and confirms it is rejected.
Exits 1 if any corruption slips through.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run


def _first(jobs, records, prefix, want=None):
    for job, rec in zip(jobs, records):
        if job.id.startswith(prefix) and (want is None or want(json.loads(rec["stdout"]))):
            return job, json.loads(rec["stdout"])
    raise LookupError("no %s job in the sample" % prefix)


def _drop_torsion(p):
    for e in p["H"]:
        if e.get("torsion"):
            e["torsion"] = e["torsion"][1:]
            if not e["torsion"]:
                del e["torsion"]
            return p
    raise LookupError("no torsion to drop")


def _bump_rank(p):
    p["H"][0]["rank"] += 1
    return p


def _flip_ok(p):
    p["ok"] = not p["ok"]
    return p


def _tamper_certificate(p):
    label, coeff = p["certificate"]["g"][0]
    p["certificate"]["g"][0] = [label, str(int(coeff.split("/")[0]) + 1)]
    return p


def _set(key, value):
    def corrupt(p):
        p[key] = value
        return p
    return corrupt


def _perturb_holonomy(p):
    p["result"][0][0] += 1e-6
    return p


def _perturb_condition(p):
    p["condition_number"] *= 1.001
    return p


def _bump(key):
    def corrupt(p):
        p[key] += 1
        return p
    return corrupt


def _wrong(corrupt):
    """Feed the job's own check a corrupted answer."""
    return lambda job, payload: job.check(corrupt(payload))


def _table_agrees(corrupt):
    """Corrupt the answer and the known-answer table alike, so that only the
    Euler characteristic or the mod-p identity can catch it."""
    def judge(job, payload):
        bad = corrupt(payload)
        table = [(e["rank"], e.get("torsion", [])) for e in bad["H"]]
        return job.check.func(bad, **dict(job.check.keywords, expected=table))
    return judge


# workload -> (class, keys to run, [(name, predicate on the answer or None, judge)])
CASES = {
    "cohomology_z": ("torus3-r2", range(3), [
        ("dropped torsion factor", None, _wrong(_drop_torsion)),
        ("rank off by one", None, _wrong(_bump_rank)),
        ("dropped torsion, table too (mod-p identity)", None, _table_agrees(_drop_torsion)),
        ("rank off by one, table too (Euler)", None, _table_agrees(_bump_rank)),
    ]),
    "axioms": ("end-small", range(6), [
        ("flipped verdict on a valid algebra", lambda p: p["ok"], _wrong(_flip_ok)),
        ("flipped verdict on a mutated algebra", lambda p: not p["ok"], _wrong(_flip_ok)),
    ]),
    "gauge": ("search-circle", range(8), [
        ("tampered certificate", lambda p: p["result"] == "equivalent",
         _wrong(_tamper_certificate)),
        ("equivalent claimed for a distinguished pair",
         lambda p: p["result"] == "distinguished", _wrong(_set("result", "equivalent"))),
        ("distinguished claimed for y = g.x", lambda p: p["result"] == "equivalent",
         _wrong(_set("result", "distinguished"))),
    ]),
    "transport": ("pexp-constant", range(3), [
        ("perturbed holonomy matrix", None, _wrong(_perturb_holonomy)),
    ]),
}
EXTRA = {
    "gauge": [("minimal-model", range(2), "minimal rank off by one",
               _wrong(_bump("minimal_rank"))),
              ("truncate", range(2), "truncation rank off by one", _wrong(_bump("rank")))],
    "transport": [("backward", range(2), "condition number of the gauge off by 0.1%",
                   _wrong(_perturb_condition))],
}


def check(workload) -> int:
    import workloads
    classes = {c.name: c for c in workloads.WORKLOADS[workload]}
    cls_name, keys, cases = CASES[workload]
    plan = [(cls_name, keys, [(n, pred, fn) for n, pred, fn in cases])]
    plan += [(c, k, [(n, None, fn)]) for c, k, n, fn in EXTRA.get(workload, [])]
    workdir = os.path.join(run.ROOT, ".perfbench", "oracles-" + workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bad = 0
    try:
        picks = [(classes[c], k) for c, ks, _ in plan for k in ks]
        jobs = workloads.build_jobs(workload, picks, workdir)
        records = run.run_worker(workdir, jobs, "plain", trace=False)["jobs"]
        for job, rec in zip(jobs, records):
            reason = run.judge(job, rec)
            if reason is not None:
                print("FAIL %s: the true answer is rejected: %s" % (job.id, reason))
                bad += 1
        for cls_name, _, cases in plan:
            for name, pred, wrong_answer in cases:
                job, payload = _first(jobs, records, cls_name, pred)
                reason = wrong_answer(job, copy.deepcopy(payload))
                print("%-12s %-45s %s" % (workload, name,
                                           "rejected: " + reason if reason else "ACCEPTED"))
                bad += reason is None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return bad


def main() -> int:
    sys.path.insert(0, run.SRC)
    bad = sum(check(w) for w in CASES)
    print("%d corrupted answers accepted" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
