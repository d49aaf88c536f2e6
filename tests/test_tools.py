import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DEMO = '''import functools


def plain(n):
    return [square(k) for k in range(n)]


def square(k):
    return (lambda x: x * x)(k)


@functools.lru_cache(maxsize=None)
def cached(k):
    return k


def gen(n):
    for k in range(n):
        yield k


def outer():
    def inner():
        return 1
    return inner() + inner()


class C:
    @property
    def size(self):
        return 2

    def scale(self):
        return self.size


class D:
    def scale(self):
        return 0


def never():
    pass
'''


def test_traffic_counts_the_calls_of_each_function_by_its_qualname(tmp_path, monkeypatch):
    traffic = _tool("traffic")
    (tmp_path / "demo.py").write_text(DEMO)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "demo", raising=False)
    import demo
    functions = traffic.defined([str(tmp_path / "demo.py")])
    path = os.path.realpath(tmp_path / "demo.py")
    assert sorted(functions.values()) == [
        "demo.C.scale", "demo.C.size", "demo.D.scale", "demo.cached", "demo.gen", "demo.never",
        "demo.outer", "demo.outer.<locals>.inner", "demo.plain", "demo.square"]
    assert functions[(path, 12, "cached")] == "demo.cached"  # the decorator's line
    counter = traffic.CallCounter(functions)
    demo.plain(3)                       # not counted: no key is open
    with counter.counting("first"):
        demo.plain(3)
        assert list(demo.gen(4)) == [0, 1, 2, 3]
        demo.cached(1), demo.cached(1)  # the second is served by the cache
    with counter.counting("second"):
        demo.outer()
        demo.C().scale()
        demo.plain(1)
    assert sys.getprofile() is None
    assert counter.report() == [
        "demo.C.scale 1 second=1",
        "demo.C.size 1 second=1",
        "demo.cached 1 first=1",
        "demo.gen 1 first=1",       # once per call, however often it resumes
        "demo.outer 1 second=1",
        "demo.outer.<locals>.inner 2 second=2",
        "demo.plain 2 first=1 second=1",
        "demo.square 4 first=3 second=1",
        "unreached demo.D.scale",
        "unreached demo.never",
    ]


def test_traffic_wants_one_seed(capsys):
    traffic = _tool("traffic")
    assert traffic.main([]) == 1 and traffic.main(["x"]) == 1
    assert "usage: python3 tools/traffic.py SEED" in capsys.readouterr().err
