"""Universal coefficients at the command line, on the cohomology_z job lists.

Every ``local-system`` and ``cohomology`` job of the benchmark's seed-1 and
seed-20261017 ``cohomology_z`` lists (built by ``perfbench/workloads.py``,
read-only) is run over Z, then again over Q and over F_p: with ``--ring`` for
``local-system``, and with the file's ring tokens rewritten for
``cohomology``.  The primes are those dividing a printed torsion factor, and
one spare prime that divides none.  For a finite free cochain complex C over
Z, H^k(C (x) Q) has dimension the free rank of H^k(C), and
H^k(C (x) F_p) = H^k(C) (x) F_p (+) Tor(H^{k+1}(C), F_p) has dimension the
free rank plus the number of torsion factors of H^k and H^{k+1} divisible by
p.  This oracle reads the printed Z report only, and shares no code with
the Smith kernel that computed it.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

from mctwist import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    return {e.get("degree", i): (e["rank"], e.get("torsion", []))
            for i, e in enumerate(json.loads(out.getvalue())["H"])}


def _prime_factors(n: int) -> set:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


def _over(job, token: str, tmp_path: Path) -> list:
    # the job's argv over the ring named by token
    if job.argv[0] == "local-system":
        return job.argv + ["--ring", token]
    spec = json.loads(Path(job.files[0]).read_text())
    spec["ring"] = token
    for m in spec["maps"].values():
        m["ring"] = token
    path = tmp_path / ("%s-%s.json" % (job.id.replace("/", "-"), token))
    path.write_text(json.dumps(spec))
    return ["cohomology", str(path)]


@pytest.mark.parametrize("seed", [1, 20261017])
def test_field_cohomology_follows_from_the_integral_report(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    jobs = workloads.build_jobs("cohomology_z", workloads.instances("cohomology_z", seed, 1.0),
                                str(tmp_path))
    monkeypatch.chdir(tmp_path)
    with_torsion = compared = 0
    for job in jobs:
        z = _run(job.argv)
        factors = [t for _, tor in z.values() for t in tor]
        with_torsion += bool(factors)
        primes = set().union(*map(_prime_factors, factors))
        spare = next(p for p in range(2, 100) if _prime_factors(p) == {p} and p not in primes)
        degrees = range(min(z), max(z) + 2)
        free = {k: z.get(k, (0, []))[0] for k in degrees}
        dims = {"Q": free}
        for p in sorted(primes) + [spare]:
            dims["F%d" % p] = {k: free[k] + sum(t % p == 0 for d in (k, k + 1)
                                                 for t in z.get(d, (0, []))[1])
                               for k in degrees}
        for token, want in dims.items():
            got = _run(_over(job, token, tmp_path))
            assert set(got) <= set(degrees) and not any(tor for _, tor in got.values())
            assert {k: got.get(k, (0, []))[0] for k in degrees} == want, (job.id, token)
            compared += len(degrees)
    assert len(jobs) > 100 and with_torsion > 50 and compared > 500
