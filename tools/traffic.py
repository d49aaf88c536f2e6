"""Print which functions of the package the benchmark jobs call, and how often.

    python3 tools/traffic.py SEED

Builds the job list of each of the four workloads for SEED at the default
run length with ``perfbench/workloads.py``, in a temporary directory, and
runs every job in this process through ``mctwist.cli.main``, with its
stdout and stderr captured, under a ``sys.setprofile`` hook that is on only
while a job runs, so building the inputs counts nothing.

The hook counts the calls of every function and method defined in
``src/mctwist``, nested ones included, named ``<module>.<qualname>`` as
``exactlinalg.ExactMatrix.get`` or ``mc._homotopy_solver.<locals>.solve``;
lambdas and comprehensions are not counted.  A generator counts once per
call, not once per resumption.  Output, sorted by name:

    <module>.<qualname> <calls> <subcommand>=<calls> ...

for each function that some job called, the calls split by subcommand, then

    unreached <module>.<qualname>

for each function that no job called.  Unlike a search of the sources for
names, this tells apart two methods of one name, such as ``ConvOp.scale``
and ``ExactMatrix.scale``.  Only the standard library is used beside the
benchmark's own modules; the program is imported from ``src/``.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import inspect
import io
import os
import sys
import tempfile
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def defined(paths) -> dict:
    """{(file, first line, name): "<module>.<qualname>"} for every function
    and method of the source files ``paths``; the first line is that of the
    first decorator, as ``co_firstlineno`` gives it."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first, child.name)] = prefix + child.name
                visit(child, path, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in paths:
        path = os.path.realpath(path)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        stem = os.path.splitext(os.path.basename(path))[0]
        visit(tree, path, stem + ".")
    return out


def _start(code) -> int:
    # where a generator's frame stands when it first runs: at its first
    # RESUME (Python 3.11 on), or before its first instruction (-1)
    return next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), -1)


class CallCounter:
    """A ``sys.setprofile`` hook counting the calls of the functions that
    :func:`defined` lists, under the key ``self.key`` of the moment."""

    def __init__(self, functions: dict):
        self.functions = functions
        self.calls = defaultdict(Counter)  # name -> Counter({key: calls})
        self.key = None
        self._codes = {}  # code -> (name or None, start offset or None)

    def _lookup(self, code):
        where = (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
        name = self.functions.get(where)
        return name, _start(code) if name and code.co_flags & inspect.CO_GENERATOR else None

    def __call__(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        seen = self._codes.get(code)
        if seen is None:
            seen = self._codes[code] = self._lookup(code)
        name, start = seen
        if name and (start is None or frame.f_lasti <= start):
            self.calls[name][self.key] += 1

    @contextlib.contextmanager
    def counting(self, key):
        self.key = key
        sys.setprofile(self)
        try:
            yield
        finally:
            sys.setprofile(None)

    def report(self) -> list:
        lines = []
        for name in sorted(self.calls):
            split = self.calls[name]
            lines.append(" ".join(["%s %d" % (name, sum(split.values()))] +
                                  ["%s=%d" % kv for kv in sorted(split.items())]))
        called = set(self.calls)
        lines += ["unreached " + n for n in sorted(set(self.functions.values()) - called)]
        return lines


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].lstrip("-").isdigit():
        print("usage: python3 tools/traffic.py SEED", file=sys.stderr)
        return 1
    seed = int(argv[0])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    import mctwist.cli as cli
    package = os.path.join(ROOT, "src", "mctwist")
    counter = CallCounter(defined(sorted(os.path.join(package, f) for f in os.listdir(package)
                                         if f.endswith(".py"))))
    here = os.getcwd()
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            jobs = workloads.build_jobs(name, workloads.instances(name, seed, 1.0), workdir)
            os.chdir(workdir)  # the job arguments name files relative to it
            try:
                for job in jobs:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        with counter.counting(job.argv[0]):
                            try:
                                cli.main(job.argv)
                            except (SystemExit, Exception):  # noqa: BLE001 - counted all the same
                                pass
            finally:
                os.chdir(here)
    print("\n".join(counter.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
