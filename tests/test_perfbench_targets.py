"""The benchmark's assumptions about the package, checked without its harness.

``perfbench/tracing.py`` resolves each ``<layer>.<function>`` key of its
``QUANTITIES`` table by attribute lookup on ``mctwist.<layer>``.  A refactor
that deletes or renames one of those functions fails here, instead of
crashing the traced benchmark run.  And every job of the seed-1 ``gauge``,
``cohomology_z`` and ``axioms`` lists, and the first six backward jobs and
the six pexp jobs of 1000 steps of the ``transport`` list, run in-process,
must print the bytes its recorded reference holds.  Every argv the four
reference files record is read by ``cli``'s own reader, not by argparse.
The seed-1 ``local-system`` jobs make no product with, and read no F - 1
off, the one identity each local system shares among its plain edges.
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


def test_local_systems_work_only_on_their_edges_with_monodromy(tmp_path, monkeypatch):
    # every seed-1 cohomology_z local-system job, run in-process with
    # ExactMatrix.identity, ExactMatrix.__mul__ and _minus_identity wrapped:
    # each LocalSystem makes one identity, shared by its edges without a
    # matrix, no product has it as a factor and no F - 1 is read off it.  A
    # return to per-edge identities fails here, not only in the bench times
    from mctwist import cli, simplicial
    from mctwist.exactlinalg import ExactMatrix
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    jobs = [job for job in workloads.build_jobs("cohomology_z", workloads.instances(
        "cohomology_z", 1, 1.0), str(tmp_path)) if job.argv[0] == "local-system"]
    monkeypatch.chdir(tmp_path)
    made, systems, products, read = [], [], [], []
    identity, mul, init = ExactMatrix.identity, ExactMatrix.__mul__, simplicial.LocalSystem.__init__
    minus_identity = simplicial._minus_identity

    def counted_init(self, *args):
        before = len(made)
        init(self, *args)
        assert made[before:] == [self.identity]
        systems.append(self)

    monkeypatch.setattr(ExactMatrix, "identity",
                        staticmethod(lambda *args: made.append(identity(*args)) or made[-1]))
    monkeypatch.setattr(ExactMatrix, "__mul__",
                        lambda self, other: products.append((self, other)) or mul(self, other))
    monkeypatch.setattr(simplicial.LocalSystem, "__init__", counted_init)
    monkeypatch.setattr(simplicial, "_minus_identity",
                        lambda ring, labels, e, m: read.append(m) or minus_identity(ring, labels, e, m))
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(job.argv) == 0, job.id
    assert len(systems) == len(jobs) == 97
    shared = [ls.identity for ls in systems]
    is_shared = lambda m: any(m is one for one in shared)
    assert sum(m is ls.identity for ls in systems for m in ls.monodromy.values()) > 900
    assert products and not any(is_shared(a) or is_shared(b) for a, b in products)
    assert read and not any(map(is_shared, read))
