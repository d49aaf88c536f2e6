"""The benchmark's assumptions about the package, checked without its harness.

``perfbench/tracing.py`` resolves each ``<layer>.<function>`` key of its
``QUANTITIES`` table by attribute lookup on ``mctwist.<layer>``.  A refactor
that deletes or renames one of those functions fails here, instead of
crashing the traced benchmark run.  And every job of the seed-1 ``gauge``,
``cohomology_z`` and ``axioms`` lists, and the first six backward jobs and
the six pexp jobs of 1000 steps of the ``transport`` list, run in-process,
must print the bytes its recorded reference holds.  Every argv the four
reference files record is read by ``cli``'s own reader, not by argparse.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    keys = [k for k in _load_tracing().QUANTITIES if "." in k]
    assert keys
    for key in keys:
        layer, function = key.split(".")
        module = importlib.import_module("mctwist." + layer)
        assert callable(getattr(module, function, None)), key


def _print_reference_bytes(workload, select, tmp_path, monkeypatch) -> int:
    # perfbench/workloads.py builds the inputs (read-only, as run.py does) of
    # the jobs ``select`` keeps of the seed-1 list; each job's input files and
    # stdout must hash as the reference records.  Returns the job count.
    from mctwist import cli
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = json.loads((PERFBENCH / "reference" / ("%s.json" % workload)).read_text())
    picks = select(workloads.instances(workload, 1, 1.0))
    jobs = workloads.build_jobs(workload, picks, str(tmp_path))
    monkeypatch.chdir(tmp_path)

    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()
    for job in jobs:
        files = {Path(f).name: sha256(Path(f).read_bytes()) for f in job.files}
        assert reference[job.id]["input"] == {"argv": job.argv, "files": files}, job.id
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(job.argv) == 0, job.id
        assert sha256(out.getvalue().encode()) == reference[job.id]["stdout"], job.id
    return len(jobs)


@pytest.mark.parametrize("workload", ["gauge", "cohomology_z", "axioms"])
def test_the_seed_one_list_prints_its_reference_bytes(workload, tmp_path, monkeypatch):
    assert _print_reference_bytes(workload, lambda picks: picks, tmp_path, monkeypatch) > 100


def test_the_first_backward_transport_jobs_print_their_reference_bytes(tmp_path, monkeypatch):
    # one job per (n, p) option: consecutive keys cycle through the six
    def first_backward(picks):
        return [(cls, key) for cls, key in picks if cls.name == "backward"][:6]
    assert _print_reference_bytes("transport", first_backward, tmp_path, monkeypatch) == 6


def test_the_shortest_pexp_transport_jobs_print_their_reference_bytes(tmp_path, monkeypatch):
    # m = 1000 samples: the first of six consecutive keys that hold each m,
    # so three per pexp class, one for each n
    def shortest_pexp(picks):
        return [(cls, key) for cls, key in picks if cls.name != "backward" and key % 6 == 0]
    assert _print_reference_bytes("transport", shortest_pexp, tmp_path, monkeypatch) == 6


def test_every_reference_argv_is_read_without_argparse():
    # every job of the four workloads runs as a plain "<cmd> ..." that
    # cli._read_argv takes, so none falls back to building argparse's parser
    # (which would show only as a slowdown); each namespace equals argparse's
    from mctwist.cli import _read_argv, build_parser
    argvs = [job["input"]["argv"] for path in sorted((PERFBENCH / "reference").glob("*.json"))
             for job in json.loads(path.read_text()).values()]
    assert len(argvs) == 1650
    for argv in argvs:
        got = _read_argv(argv)
        assert got is not None, argv
        assert got == build_parser(argv).parse_args(argv), argv
