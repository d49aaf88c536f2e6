import contextlib
import io as stdio
import json
import os
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mctwist import io
from mctwist.cli import main
from mctwist.exactlinalg import Ring
from mctwist.interval import build_interval_algebra

Z, Q = Ring.Z(), Ring.Q()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def fixture_dir(tmp_path, capsys):
    d = str(tmp_path / "fx")
    code, out, _ = run_cli(capsys, "emit-fixtures", "--dir", d)
    assert code == 0
    return d


def test_emit_and_mc_check(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "mc-check", os.path.join(fixture_dir, "kx-fixture.json"))
    assert code == 0
    assert json.loads(out)["mc"] is True


def test_mc_check_rejects_non_mc(fixture_dir, capsys):
    path = os.path.join(fixture_dir, "kx-fixture.json")
    obj = io.load_json_file(path)
    obj["value"] = [[["x", 1], "2"]]
    bad = os.path.join(fixture_dir, "bad.json")
    with open(bad, "w") as fh:
        json.dump(obj, fh)
    code, out, _ = run_cli(capsys, "mc-check", bad)
    assert code == 0
    assert json.loads(out)["mc"] is False


def test_local_system_matches_spec_shape(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "local-system",
                           os.path.join(fixture_dir, "circle3.json"),
                           os.path.join(fixture_dir, "sign.json"), "--ring", "Z")
    assert code == 0
    payload = json.loads(out)
    assert payload["H"] == [{"rank": 0}, {"rank": 0, "torsion": [2]}]


# the boundary of the 3-simplex, and A = [[2, 1], [1, 1]] on the edges at
# vertex 0: the coboundary of g with g_0 = A, g_1 = g_2 = g_3 = 1
SPHERE = {"vertices": [0, 1, 2, 3],
          "simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}
UNIMODULAR = [[2, 1], [1, 1]]


def _write_local_system(tmp_path, edges):
    (tmp_path / "c.json").write_text(json.dumps(SPHERE))
    (tmp_path / "s.json").write_text(json.dumps(
        {"ring": "Z", "rank": 2, "monodromy": [[e, UNIMODULAR] for e in edges]}))
    return str(tmp_path / "c.json"), str(tmp_path / "s.json")


def _counted(original, calls):
    def counted(*args):
        calls.append(args)
        return original(*args)
    return counted


def test_one_local_system_job_builds_and_checks_once(tmp_path, capsys, monkeypatch):
    from mctwist import simplicial
    built, inverted, functor = [], [], []
    for owner, name, calls in ((simplicial, "cochain_algebra", built),
                               (simplicial, "is_invertible", inverted),
                               (simplicial.LocalSystem, "functor_condition_failures", functor)):
        monkeypatch.setattr(owner, name, _counted(getattr(owner, name), calls))
    code, out, err = run_cli(capsys, "local-system",
                             *_write_local_system(tmp_path, [[0, 1], [0, 2], [0, 3]]))
    assert code == 0, err
    assert json.loads(out)["H"] == [{"rank": 2}, {"rank": 0}, {"rank": 2}]
    assert len(built) == 1
    # the three given monodromies are checked for an inverse; the three
    # implicit identities are not
    assert [args[0].row_list(0) + args[0].row_list(1) for args in inverted] == [[2, 1, 1, 1]] * 3
    assert len(functor) == 1


def test_local_system_job_builds_no_rows_of_mult(tmp_path, capsys, monkeypatch):
    from mctwist import dgcore
    built = []
    monkeypatch.setattr(dgcore, "_index", _counted(dgcore._index, built))
    code, _, err = run_cli(capsys, "local-system",
                           *_write_local_system(tmp_path, [[0, 1], [0, 2], [0, 3]]))
    assert code == 0, err
    assert built == []


# argv -> twisted modules the job builds (the input module and its truncation
# or minimal model), each checked against the MC equation once
TWISTED_MODULE_JOBS = {
    "local-system": 1,
    "truncate": 2,
    "minimal-model": 2,
}


@pytest.mark.parametrize("command", sorted(TWISTED_MODULE_JOBS))
def test_twisted_module_jobs_build_no_end_algebra(command, tmp_path, capsys, monkeypatch):
    from mctwist import dgcore, mc
    built, elementwise, convolved = [], [], []
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "mctwist"]:
        if getattr(module, "endomorphism_dga", None) is dgcore.endomorphism_dga:
            monkeypatch.setattr(module, "endomorphism_dga",
                                _counted(dgcore.endomorphism_dga, built))
    monkeypatch.setattr(mc, "mc_residual", _counted(mc.mc_residual, elementwise))
    monkeypatch.setattr(mc.ConvOp, "mc_residual", _counted(mc.ConvOp.mc_residual, convolved))
    if command == "local-system":
        argv = [command, *_write_local_system(tmp_path, [[0, 1], [0, 2], [0, 3]])]
    else:
        (tmp_path / "m.json").write_text(io.dumps(_module_payload(Q)))
        argv = [command, str(tmp_path / "m.json")] + (["--i", "1"] if command == "truncate" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert (len(built), len(elementwise), len(convolved)) == (0, 0, TWISTED_MODULE_JOBS[command])


# extra MC terms added to _module_payload()'s d0 -> the one line both
# truncate and minimal-model print for them
BAD_MC_TERMS = {
    "not-mc": ([[[["p"], ["p"], [0, 1]], "1"]],
               "input error: not Maurer-Cartan; residual 1*('E', ('p',), ('q',), (0, 1))\n"),
    "inhomogeneous": ([[[["q"], ["p"], [0]], "1"]],
                      "input error: an MC candidate must be homogeneous of degree 1\n"),
    "unknown-v-label": ([[[["p"], ["s"], [0, 1]], "2"]],
                        "input error: unknown basis labels [('E', ('p',), ('s',), (0, 1))]\n"),
    "unknown-algebra-label": (
        [[[["p"], ["q"], [5, 7]], "2"]],
        "input error: unknown basis labels [('E', ('p',), ('q',), (5, 7))]\n"),
}


@pytest.mark.parametrize("argv", [["truncate", "--i", "0"], ["minimal-model"]],
                         ids=lambda a: a[0])
@pytest.mark.parametrize("case", sorted(BAD_MC_TERMS))
def test_bad_twisting_is_refused_with_one_line(case, argv, tmp_path, capsys):
    terms, message = BAD_MC_TERMS[case]
    obj = _module_payload(Q if argv[0] == "minimal-model" else Z)
    obj["mc"] = obj["mc"] + terms
    path = tmp_path / "mod.json"
    path.write_text(io.dumps(obj))
    assert run_cli(capsys, argv[0], str(path), *argv[1:]) == (1, "", message)


def test_local_system_failing_cocycle_exits_one(tmp_path, capsys):
    code, out, err = run_cli(capsys, "local-system", *_write_local_system(tmp_path, [[0, 1]]))
    assert (code, out) == (1, "")
    assert err.startswith("input error: functor condition fails on 2-simplices: ")
    assert "(0, 1, 2)" in err and "(0, 1, 3)" in err and "(1, 2, 3)" not in err


def test_kn_presentation(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "kn", "--n", "2", "--ring", "Q")
    assert code == 0
    payload = json.loads(out)
    ranks = {}
    for label, deg in payload["basis"]:
        ranks[deg] = ranks.get(deg, 0) + 1
    assert [ranks[d] for d in (0, 1, 2)] == [2, 2, 2]


def test_determinism_byte_identical(fixture_dir, capsys):
    k0 = build_interval_algebra(0, Q)
    alg = str(os.path.join(fixture_dir, "k0.json"))
    with open(alg, "w") as fh:
        fh.write(io.dumps(io.dga_to_json(k0.dga)))
    x = os.path.join(fixture_dir, "x0.json")
    y = os.path.join(fixture_dir, "y0.json")
    with open(x, "w") as fh:
        fh.write(io.dumps({"value": []}))
    with open(y, "w") as fh:
        fh.write(io.dumps({"value": [[io.encode_label(k0.word_label("s", 1)), "1"]]}))
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "gauge-search", alg, x, y, "--seed", "11")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["result"] == "equivalent"


def test_gauge_search_distinguished_over_z(fixture_dir, capsys):
    k0 = build_interval_algebra(0, Z)
    alg = os.path.join(fixture_dir, "k0z.json")
    with open(alg, "w") as fh:
        fh.write(io.dumps(io.dga_to_json(k0.dga)))
    x = os.path.join(fixture_dir, "xz.json")
    y = os.path.join(fixture_dir, "yz.json")
    with open(x, "w") as fh:
        fh.write(io.dumps({"value": []}))
    with open(y, "w") as fh:
        fh.write(io.dumps({"value": [[io.encode_label(k0.word_label("s", 1)), "1"]]}))
    code, out, _ = run_cli(capsys, "gauge-search", alg, x, y, "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "distinguished"
    assert payload["report"]["differs"] == "algebra_twist"


def test_k2_dict_roundtrip_via_cli(fixture_dir, capsys):
    k0 = build_interval_algebra(0, Q)
    alg = os.path.join(fixture_dir, "k0q.json")
    with open(alg, "w") as fh:
        fh.write(io.dumps(io.dga_to_json(k0.dga)))
    s_label = io.encode_label(k0.word_label("s", 1))
    cert_input = {
        "x": [],
        "x1": [[s_label, "1"]],
        "certificate": {
            "g": [[io.encode_label(k0.e), "1"], [io.encode_label(k0.f), "2"]],
            "h": [[io.encode_label(k0.e), "1"], [io.encode_label(k0.f), "1/2"]],
            "wx": [], "wy": []},
    }
    inp = os.path.join(fixture_dir, "cert.json")
    with open(inp, "w") as fh:
        fh.write(io.dumps(cert_input))
    code, out, _ = run_cli(capsys, "k2-dict", alg, inp, "--direction", "to-homotopy")
    assert code == 0
    hom = json.loads(out)["homotopy"]
    hom_input = os.path.join(fixture_dir, "hom.json")
    with open(hom_input, "w") as fh:
        fh.write(io.dumps({"homotopy": hom}))
    code, out, _ = run_cli(capsys, "k2-dict", alg, hom_input,
                           "--direction", "to-certificate")
    assert code == 0
    back = json.loads(out)
    as_dict = lambda pairs: {json.dumps(l): c for l, c in pairs}
    assert as_dict(back["certificate"]["g"]) == as_dict(cert_input["certificate"]["g"])


def test_kinfty_table(capsys):
    code, out, _ = run_cli(capsys, "kinfty", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["presentation"]["differential"]["x_1"] == "y_0x_0 - 1"


def test_check_dga_command(fixture_dir, capsys):
    path = os.path.join(fixture_dir, "kx-fixture.json")
    alg = io.load_json_file(path)["algebra"]
    alg_path = os.path.join(fixture_dir, "alg.json")
    with open(alg_path, "w") as fh:
        json.dump(alg, fh)
    code, out, _ = run_cli(capsys, "check-dga", alg_path)
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run_cli(capsys, "check-dga", alg_path, "--ring", "F7")
    assert code == 0 and json.loads(out)["ok"]


def test_cohomology_command(tmp_path, capsys):
    spec = {"ring": "Z", "dims": {"0": 1, "1": 1},
            "maps": {"0": {"ring": "Z", "rows": 1, "cols": 1, "entries": [["2"]]}}}
    path = str(tmp_path / "cx.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    code, out, _ = run_cli(capsys, "cohomology", path)
    assert code == 0
    assert json.loads(out)["H"] == [{"degree": 0, "rank": 0},
                                    {"degree": 1, "rank": 0, "torsion": [2]}]


def test_exit_code_one_on_bad_input(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    code, out, err = run_cli(capsys, "mc-check", path)
    assert code == 1
    assert "input error" in err
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{\"ring\": \"Z\"}")
    code, _, err = run_cli(capsys, "check-dga", bad)
    assert code == 1


def test_large_prime_fields(tmp_path, capsys):
    p = 2 ** 61 - 1
    spec = {"ring": "F%d" % p, "dims": {"0": 1, "1": 1},
            "maps": {"0": {"ring": "F%d" % p, "rows": 1, "cols": 1, "entries": [["2"]]}}}
    path = str(tmp_path / "cx.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    code, out, _ = run_cli(capsys, "cohomology", path)
    assert code == 0 and json.loads(out)["H"] == [{"degree": 0, "rank": 0}]
    code, out, err = run_cli(capsys, "kn", "--n", "1", "--ring", "F%d" % (2 ** 89 - 1))
    assert code == 1 and out == ""
    assert "input error" in err and "p < " in err
    for token in ("Fx", "F" + "9" * 5000):
        code, out, err = run_cli(capsys, "kn", "--n", "1", "--ring", token)
        assert code == 1 and out == "" and "cannot parse ring token" in err


def test_minimal_model_command(tmp_path, capsys):
    from mctwist.simplicial import circle, cochain_algebra
    ca = cochain_algebra(circle(3), Q)
    payload = {
        "algebra": io.dga_to_json(ca),
        "v": [[["p"], 0], [["q"], 1]],
        "mc": [[[["p"], ["q"], al], io.encode_scalar(c)]
               for al, c in ((io.encode_label(l), c) for l, c in ca.unit.items())],
    }
    path = str(tmp_path / "mod.json")
    with open(path, "w") as fh:
        fh.write(io.dumps(payload))
    code, out, _ = run_cli(capsys, "minimal-model", path)
    assert code == 0
    res = json.loads(out)
    assert res["minimal_rank"] == 0 and res["is_minimal"]


def test_truncate_command(tmp_path, capsys):
    from mctwist.simplicial import circle, cochain_algebra
    ca = cochain_algebra(circle(3), Z)
    payload = {
        "algebra": io.dga_to_json(ca),
        "v": [[["p"], 0], [["q"], 1]],
        "mc": [[[["p"], ["q"], io.encode_label(l)], io.encode_scalar(c)]
               for l, c in ca.unit.items()],
    }
    path = str(tmp_path / "mod.json")
    with open(path, "w") as fh:
        fh.write(io.dumps(payload))
    code, out, _ = run_cli(capsys, "truncate", path, "--i", "0")
    assert code == 0
    res = json.loads(out)
    assert res["rank"] == 0  # d0 = 1 has zero kernel in degree 0


def _module_payload(ring=Z):
    # V = p (degree 0) + q, r (degree 1) over C*(S^1_3), d0 = p -> q: a
    # nonzero truncation at 1 and a nonzero minimal model
    from mctwist.simplicial import circle, cochain_algebra
    ca = cochain_algebra(circle(3), ring)
    return {"algebra": io.dga_to_json(ca), "v": [[["p"], 0], [["q"], 1], [["r"], 1]],
            "mc": [[[["p"], ["q"], io.encode_label(l)], io.encode_scalar(c)]
                   for l, c in ca.unit.items()]}


BAD_MODULE_JSON = {
    "empty": lambda obj: {},
    "not-an-object": lambda obj: [obj],
    "no-v": lambda obj: {k: v for k, v in obj.items() if k != "v"},
    "no-mc": lambda obj: {k: v for k, v in obj.items() if k != "mc"},
    # open(0) is standard input, which holds a valid algebra in this test
    "algebra-0": lambda obj: dict(obj, algebra=0),
    "algebra-5": lambda obj: dict(obj, algebra=5),
}


@pytest.mark.parametrize("argv", [["truncate", "--i", "0"], ["minimal-model"]],
                         ids=lambda a: a[0])
@pytest.mark.parametrize("case", sorted(BAD_MODULE_JSON))
def test_module_json_without_its_parts_is_one_input_error_line(case, argv, tmp_path):
    import mctwist
    obj = _module_payload()
    path = tmp_path / "mod.json"
    path.write_text(io.dumps(BAD_MODULE_JSON[case](obj)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mctwist.__file__)))
    proc = subprocess.run([sys.executable, "-m", "mctwist.cli", argv[0], str(path), *argv[1:]],
                          input=io.dumps(obj["algebra"]), env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.startswith("input error: ") and proc.stderr.count("\n") == 1


def _k0_algebra():
    return io.dga_to_json(build_interval_algebra(0, Q).dga)


def _circle3_algebra(first_degree):
    # emit-fixtures' circle3-algebra.json, its first basis label in first_degree
    from mctwist.simplicial import circle, cochain_algebra
    obj = io.dga_to_json(cochain_algebra(circle(3), Z))
    obj["basis"][0][1] = first_degree
    return obj


EDGE = {"vertices": [0, 1], "simplices": [[0, 1]]}


def _resolution(basis=None, edge_action=()):
    # a resolve input over the edge: W = w_-1 -> w_0 in degrees -1, 0, d = 2
    return {"ring": "Z", "complex": EDGE,
            "resolution": {"basis": basis or [[["w", -1], -1], [["w", 0], 0]],
                           "d": [[["w", -1], ["w", 0], "2"]]},
            "edge_action": list(edge_action)}


# (argv, {file name: JSON payload}) for input files of the wrong shape
BAD_INPUT_FILES = {
    "mc-check-list": (["mc-check", "e.json"], {"e.json": []}),
    "mc-check-no-value": (["mc-check", "e.json"], {"e.json": {"algebra": _k0_algebra()}}),
    "resolve-list": (["resolve", "r.json"], {"r.json": []}),
    "gauge-search-x-list": (["gauge-search", "a.json", "x.json", "y.json", "--seed", "1"],
                            {"a.json": _k0_algebra(), "x.json": [], "y.json": {"value": []}}),
    "gauge-search-y-list": (["gauge-search", "a.json", "x.json", "y.json", "--seed", "1"],
                            {"a.json": _k0_algebra(), "x.json": {"value": []}, "y.json": []}),
    "gauge-search-x-empty": (["gauge-search", "a.json", "x.json", "y.json", "--seed", "1"],
                             {"a.json": _k0_algebra(), "x.json": {}, "y.json": {"value": []}}),
    "gauge-search-y-empty": (["gauge-search", "a.json", "x.json", "y.json", "--seed", "1"],
                             {"a.json": _k0_algebra(), "x.json": {"value": []}, "y.json": {}}),
    "k2-dict-to-certificate-list": (
        ["k2-dict", "a.json", "i.json", "--direction", "to-certificate"],
        {"a.json": _k0_algebra(), "i.json": []}),
    "k2-dict-to-homotopy-list": (
        ["k2-dict", "a.json", "i.json", "--direction", "to-homotopy"],
        {"a.json": _k0_algebra(), "i.json": []}),
    "k2-dict-homotopy-number": (
        ["k2-dict", "a.json", "i.json", "--direction", "to-certificate"],
        {"a.json": _k0_algebra(), "i.json": {"homotopy": 5}}),
    "k2-dict-homotopy-short-entry": (
        ["k2-dict", "a.json", "i.json", "--direction", "to-certificate"],
        {"a.json": _k0_algebra(), "i.json": {"homotopy": [["e"]]}}),
    "k2-dict-certificate-number": (
        ["k2-dict", "a.json", "i.json", "--direction", "to-homotopy"],
        {"a.json": _k0_algebra(), "i.json": {"x": [], "x1": [], "certificate": 5}}),
    # a ring token that is not a string
    "cohomology-ring-number": (["cohomology", "c.json"],
                               {"c.json": {"ring": 5, "dims": {"0": 1}, "maps": {}}}),
    "resolve-ring-number": (["resolve", "r.json"], {"r.json": {"ring": 5}}),
    "check-dga-ring-number": (["check-dga", "a.json"], {"a.json": dict(_k0_algebra(), ring=5)}),
    "local-system-ring-number": (
        ["local-system", "c.json", "s.json"],
        {"c.json": {"vertices": [0, 1], "simplices": [[0, 1]]},
         "s.json": {"ring": 5, "rank": 1, "monodromy": []}}),
    # "dims" and "maps" that are not objects
    "cohomology-dims-number": (["cohomology", "c.json"],
                               {"c.json": {"ring": "Z", "dims": -1, "maps": {}}}),
    "cohomology-maps-list": (["cohomology", "c.json"],
                             {"c.json": {"ring": "Z", "dims": {"0": 1}, "maps": [None]}}),
    # a rank that would build 2**70 labels: not the size of the monodromy,
    # or above the ceiling when there is none
    "local-system-rank-not-the-monodromy-size": (
        ["local-system", "c.json", "s.json"],
        {"c.json": {"vertices": [0, 1], "simplices": [[0, 1]]},
         "s.json": {"ring": "Z", "rank": 2 ** 70, "monodromy": [[[0, 1], UNIMODULAR]]}}),
    "local-system-rank-above-the-ceiling": (
        ["local-system", "c.json", "s.json"],
        {"c.json": {"vertices": [0, 1], "simplices": [[0, 1]]},
         "s.json": {"ring": "Z", "rank": 2 ** 70}}),
    # an integer of more digits than Python parses (a payload given as text
    # is written as it is)
    "cohomology-5000-digit-integer": (
        ["cohomology", "c.json"],
        {"c.json": '{"ring": "Z", "dims": {"0": %s}, "maps": {}}' % ("9" * 5000)}),
    "check-dga-nested-100000-deep": (["check-dga", "a.json"],
                                     {"a.json": "[" * 100000 + "]" * 100000}),
    "check-dga-label-nested-600-deep": (["check-dga", "a.json"], {"a.json": (
        '{"ring": "Z", "basis": [[%s, 0]], "unit": [[%s, "1"]]}' % ((
            "[" * 600 + "0" + "]" * 600,) * 2))}),
    # NaN and +-Infinity are not JSON (RFC 8259), though json.load reads them
    "check-dga-label-infinity": (["check-dga", "a.json"], {"a.json": (
        '{"ring": "Z", "basis": [[["y", Infinity], 0]], "unit": [[["y", Infinity], "1"]]}')}),
    "gauge-search-coefficient-nan": (
        ["gauge-search", "a.json", "x.json", "y.json", "--seed", "1"],
        {"a.json": _k0_algebra(), "x.json": '{"value": [["e", NaN]]}', "y.json": {"value": []}}),
    # integers a file declares are exact: no float or bool is rounded
    "local-system-rank-float": (["local-system", "c.json", "s.json"],
                                {"c.json": EDGE, "s.json": {"ring": "Z", "rank": 1.5}}),
    "local-system-rank-bool": (["local-system", "c.json", "s.json"],
                               {"c.json": EDGE, "s.json": {"ring": "Z", "rank": True}}),
    "check-dga-basis-degree-float": (["check-dga", "a.json"],
                                     {"a.json": _circle3_algebra(0.5)}),
    "cohomology-dims-float-and-bool": (
        ["cohomology", "c.json"],
        {"c.json": {"ring": "Z", "dims": {"0": 1.5, "1": True}, "maps": {}}}),
    "local-system-system-list": (["local-system", "c.json", "s.json", "--ring", "Q"],
                                 {"c.json": EDGE, "s.json": [1]}),
    # what no data in the file bounds is at most io.CEILING: degrees, a
    # dimension that no map's entries carry, and the search budget
    "cohomology-degrees-spread-apart": (
        ["cohomology", "c.json"],
        {"c.json": {"ring": "Z", "dims": {"0": 1, "2000000": 1}, "maps": {}}}),
    "cohomology-dimension-above-the-ceiling": (
        ["cohomology", "c.json"], {"c.json": {"ring": "Z", "dims": {"0": 2000}, "maps": {}}}),
    "cohomology-dimension-of-a-zero-row-map": (
        ["cohomology", "c.json"],
        {"c.json": {"ring": "Z", "dims": {"0": 2 ** 70, "1": 0}, "maps": {
            "0": {"ring": "Z", "rows": 0, "cols": 2 ** 70, "entries": []}}}}),
    "cohomology-matrix-without-entries": (
        ["cohomology", "c.json"],
        {"c.json": {"ring": "Z", "dims": {"0": 1}, "maps": {
            "0": {"ring": "Z", "rows": 2 ** 70, "cols": 1, "entries": None}}}}),
    # a resolution's degrees, and each edge action of the size of W
    "resolve-basis-degree-not-a-number": (["resolve", "r.json"], {"r.json": _resolution(
        basis=[[["w", -1], "x"], [["w", 0], 0]])}),
    "resolve-edge-action-1x1": (["resolve", "r.json"], {"r.json": _resolution(
        edge_action=[[[0, 1], [[1]]]])}),
    "resolve-edge-action-3x3": (["resolve", "r.json"], {"r.json": _resolution(
        edge_action=[[[0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]])}),
    # an edge action preserves degree: w_-1 -> w_0 is not dropped in silence
    "resolve-edge-action-across-degrees": (["resolve", "r.json"], {"r.json": _resolution(
        edge_action=[[[0, 1], [[1, 7], [5, 1]]]])}),
    # a module over an algebra whose unit is zero is not reduced
    "truncate-algebra-unit-zero": (["truncate", "m.json", "--i", "0"], {"m.json": dict(
        _module_payload(), algebra=dict(_module_payload()["algebra"], unit=[]))}),
    "gauge-search-budget-above-the-ceiling": (
        ["gauge-search", "a.json", "x.json", "y.json", "--seed", "1", "--budget", "2000"],
        {"a.json": _k0_algebra(), "x.json": {"value": []}, "y.json": {"value": []}}),
    # command-line integers far out of range, refused before any work
    "kn-n-negative": (["kn", "--n", "-1", "--ring", "Z"], {}),
    "kn-n-10**20": (["kn", "--n", str(10 ** 20), "--ring", "Z"], {}),
    "kinfty-n-10**6": (["kinfty", "--n", str(10 ** 6)], {}),
    "holonomy-grid-10**20": (
        ["holonomy", "--mode", "backward", "x.csv", "y.csv", "--grid", str(10 ** 20)],
        {"x.csv": "1.0\n" * 24, "y.csv": "1.0\n" * 24}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_FILES))
def test_input_file_of_the_wrong_shape_is_one_input_error_line(case, tmp_path, capsys):
    argv, files = BAD_INPUT_FILES[case]
    for name, payload in files.items():
        (tmp_path / name).write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run_cli(capsys, *[str(tmp_path / a) if a in files else a for a in argv])
    assert (code, out) == (1, ""), err
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("far, near", [(str(10 ** 30), "2"), (str(-10 ** 30), "-1")])
def test_truncate_beyond_every_degree_answers_at_once(far, near, tmp_path, capsys):
    # V has degrees 0 and 1: --i 10**30 keeps all of it, as --i 2 does, and
    # --i -10**30 none of it; the level is compared, never iterated up to
    path = str(tmp_path / "m.json")
    (tmp_path / "m.json").write_text(io.dumps(_module_payload(Z)))
    assert run_cli(capsys, "truncate", path, "--i", far) == \
        run_cli(capsys, "truncate", path, "--i", near)


@pytest.fixture(scope="module")
def fuzz_jobs(tmp_path_factory):
    """(argv, {file name: JSON text}): a valid job per subcommand that reads a
    JSON file, on every file emit-fixtures writes that a subcommand reads."""
    fx = tmp_path_factory.mktemp("fx")
    k0 = build_interval_algebra(0, Q)
    e, f, s = (io.encode_label(l) for l in (k0.e, k0.f, k0.word_label("s", 1)))
    cert = {"x": [], "x1": [[s, "1"]], "certificate": {
        "g": [[e, "1"], [f, "2"]], "h": [[e, "1"], [f, "1/2"]], "wx": [], "wy": []}}
    (fx / "a.json").write_text(json.dumps(_k0_algebra()))
    (fx / "i.json").write_text(json.dumps(cert))
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["emit-fixtures", "--dir", str(fx)]) == 0
        out.seek(0)
        out.truncate()
        assert main(["k2-dict", str(fx / "a.json"), str(fx / "i.json"),
                     "--direction", "to-homotopy"]) == 0
    homotopy = json.loads(out.getvalue())["homotopy"]

    def emitted(name):
        return json.loads((fx / name).read_text())

    jobs = [(["check-dga", "a.json"], {"a.json": emitted(a)})
            for a in ("circle3-algebra.json", "torus7-algebra.json")]
    jobs += [(["local-system", "c.json", "s.json", "--ring", "Z"],
              {"c.json": emitted(c), "s.json": emitted("sign.json")})
             for c in ("circle3.json", "circle4.json")]
    jobs += [
        (["local-system", "c.json", "s.json"],
         {"c.json": emitted("torus7.json"), "s.json": {"ring": "Q", "rank": 1}}),
        (["mc-check", "e.json"], {"e.json": emitted("kx-fixture.json")}),
        (["cohomology", "c.json"], {"c.json": {"ring": "Z", "dims": {"0": 1, "1": 2}, "maps": {
            "0": {"ring": "Z", "rows": 2, "cols": 1, "entries": [["2"], ["0"]]}}}}),
        (["gauge-search", "a.json", "x.json", "y.json", "--seed", "1"],
         {"a.json": _k0_algebra(), "x.json": {"value": []}, "y.json": {"value": []}}),
        (["k2-dict", "a.json", "i.json", "--direction", "to-homotopy"],
         {"a.json": _k0_algebra(), "i.json": cert}),
        (["k2-dict", "a.json", "i.json", "--direction", "to-certificate"],
         {"a.json": _k0_algebra(), "i.json": {"homotopy": homotopy}}),
        (["minimal-model", "m.json"], {"m.json": _module_payload(Q)}),
        (["truncate", "m.json", "--i", "1"], {"m.json": _module_payload(Z)}),
        (["resolve", "r.json"], {"r.json": _resolution(edge_action=[[[0, 1], [[1, 0], [0, 1]]]])}),
    ]
    return [(argv, {name: json.dumps(obj) for name, obj in files.items()})
            for argv, files in jobs]


def _json_nodes(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from _json_nodes(child, path + (key,))


class _Timeout(BaseException):
    """Not an Exception, so that cli.main does not turn it into exit 2."""


class _Rename(str):
    """A new name for the key of an object member, its value kept."""


DELETE = object()
MUTATIONS = [DELETE, None, 0, -1, 1, 2 ** 70, -(2 ** 70), 1.5, True, "x", "1/0", "0.5",
             "2", "Q", [], {}, [[]], [1], {"0": 1}]
# renamed keys: a top-level key, or a degree key of "dims" or "maps", that
# is unknown, not an integer, out of range or another key of the file
RENAMES = [_Rename(k) for k in ("x", "", "-1", "2", "1.5", "+1", " 7", "1e3", "2000000",
                                str(2 ** 70), "ring", "value", "rank")]


@given(st.data())
@settings(max_examples=1000)
def test_one_json_node_mutated_exits_zero_or_with_one_input_error_line(fuzz_jobs, data):
    argv, files = data.draw(st.sampled_from(fuzz_jobs))
    name = data.draw(st.sampled_from(sorted(files)))
    doc = json.loads(files[name])
    path = data.draw(st.sampled_from(list(_json_nodes(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    choices = MUTATIONS + RENAMES if path and isinstance(parent, dict) else \
        MUTATIONS if path else MUTATIONS[1:]
    value = data.draw(st.sampled_from(choices))
    if not path:
        doc = value
    elif value is DELETE:
        del parent[path[-1]]
    elif isinstance(value, _Rename):
        parent[str(value)] = parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    out, err = stdio.StringIO(), stdio.StringIO()

    def timeout(signum, frame):
        raise _Timeout("%s on %s with %r at %r" % (argv[0], name, value, path))

    with tempfile.TemporaryDirectory() as d:
        for f, text in files.items():
            with open(os.path.join(d, f), "w") as fh:
                fh.write(json.dumps(doc) if f == name else text)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([os.path.join(d, a) if a in files else a for a in argv])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("input error: ") and err.getvalue().count("\n") == 1


def test_resolve_command(tmp_path, capsys):
    payload = {
        "ring": "Z",
        "complex": {"vertices": [0, 1, 2], "simplices": [[0, 1], [1, 2], [0, 2]]},
        "resolution": {"basis": [[["w", -1], -1], [["w", 0], 0]],
                       "d": [[["w", -1], ["w", 0], "2"]]},
        "edge_action": [],
    }
    path = str(tmp_path / "res.json")
    with open(path, "w") as fh:
        fh.write(io.dumps(payload))
    code, out, _ = run_cli(capsys, "resolve", path)
    assert code == 0
    res = json.loads(out)
    assert {"degree": 0, "rank": 0, "torsion": [2]} in res["H"]


def test_holonomy_pexp_command(tmp_path, capsys):
    ts = np.linspace(0, 1, 401)
    rows = []
    for t in ts:
        m = np.array([[0.0, t], [0.0, 0.0]])
        rows.append(",".join(str(v) for v in m.reshape(-1)))
    path = str(tmp_path / "y.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "holonomy", "--mode", "pexp", path)
    assert code == 0
    res = json.loads(out)
    assert abs(res["result"][0][1] - 0.5) <= 1e-8
    assert "order_estimate" in res


def test_holonomy_backward_command(tmp_path, capsys):
    from mctwist.holonomy import CircleForm, homotopy_from_gauge_path

    def mexp(m):
        out = np.eye(m.shape[0])
        term = np.eye(m.shape[0])
        for k in range(1, 40):
            term = term @ m / k
            out = out + term
        return out

    p, mz = 16, 100
    a = np.array([[0.0, 0.3], [-0.3, 0.0]])
    b = np.array([[0.1, 0.0], [0.0, -0.1]])
    x0 = CircleForm.constant(a, p)
    zs = np.linspace(0, 1, mz + 1)
    gpath = np.stack([np.repeat(mexp(z * b)[None], p, axis=0) for z in zs])
    xs, ys, _ = homotopy_from_gauge_path(x0, gpath)

    def dump(path, arr):
        flat = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])
        with open(path, "w") as fh:
            for row in flat:
                fh.write(",".join(str(v) for v in row) + "\n")

    xs_path = str(tmp_path / "xs.csv")
    ys_path = str(tmp_path / "ys.csv")
    dump(xs_path, xs)
    dump(ys_path, ys)
    code, out, _ = run_cli(capsys, "holonomy", "--mode", "backward",
                           xs_path, ys_path, "--grid", str(p))
    assert code == 0
    res = json.loads(out)
    assert res["endpoint_error"] <= 1e-5


def test_holonomy_backward_rejects_bad_grid(tmp_path, capsys):
    rows = ["0.0,0.0,0.0,0.0"] * 10
    path = str(tmp_path / "xs.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "holonomy", "--mode", "backward",
                           path, path, "--grid", "3")
    assert code == 1
    assert "grid" in err


def _rows(count, row="0.1,0.2,0.0,-0.1"):
    return "".join(row + "\n" for _ in range(count))


# (argv after "holonomy", {file name: CSV text}) for malformed holonomy input
BAD_HOLONOMY_INPUT = {
    "nan-sample": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(4) + "nan,0,0,0\n"}),
    "odd-steps": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(4)}),
    "two-samples": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(2)}),
    "one-step": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(3)}),
    "two-paths": (["--mode", "pexp", "y.csv", "y.csv"], {"y.csv": _rows(9)}),
    "empty": (["--mode", "pexp", "y.csv"], {"y.csv": ""}),
    "ragged": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(4) + "0.1,0.2,0.3\n"}),
    "non-square": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(5, "0.1,0.2,0.3")}),
    "trailing-comma": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(5, "0.1,0.2,0.0,-0.1,")}),
    "comment-line": (["--mode", "pexp", "y.csv"], {"y.csv": "# samples\n" + _rows(5)}),
    "digit-separator": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(4) + "1_0,0,0,0\n"}),
    "grid-0": (["--mode", "backward", "x.csv", "x.csv", "--grid", "0"], {"x.csv": _rows(3)}),
    "grid-negative": (["--mode", "backward", "x.csv", "x.csv", "--grid", "-1"],
                      {"x.csv": _rows(3)}),
    "grid-1": (["--mode", "backward", "x.csv", "x.csv", "--grid", "1"], {"x.csv": _rows(3)}),
    "grid-3": (["--mode", "backward", "x.csv", "x.csv", "--grid", "3"], {"x.csv": _rows(3)}),
    "no-z-step": (["--mode", "backward", "x.csv", "x.csv", "--grid", "8"], {"x.csv": _rows(8)}),
    "odd-z-steps": (["--mode", "backward", "x.csv", "x.csv", "--grid", "8"],
                    {"x.csv": _rows(32)}),
    # finite samples whose transport overflows
    "pexp-overflow-1e200": (["--mode", "pexp", "y.csv"],
                            {"y.csv": _rows(9, "1e200,-1e200,1e200,1e200")}),
    "pexp-overflow-1e300": (["--mode", "pexp", "y.csv"],
                            {"y.csv": _rows(9, "1e300,-1e300,1e300,1e300")}),
    "backward-overflow": (["--mode", "backward", "x.csv", "y.csv", "--grid", "8"],
                          {"x.csv": _rows(40, "0,0,0,0"),
                           "y.csv": _rows(40, "1e200,-1e200,1e200,1e200")}),
    # a nilpotent y: finite transport, an infinite endpoint condition number
    "nilpotent-1.4e154": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(9, "0,1.4e154,0,0")}),
    "nilpotent-1e200": (["--mode", "pexp", "y.csv"], {"y.csv": _rows(9, "0,1e200,0,0")}),
    # the same y on the circle: a finite gauge, an infinite condition number
    "backward-nilpotent-1e200": (["--mode", "backward", "x.csv", "y.csv", "--grid", "8"],
                                 {"x.csv": _rows(40, "0,0,0,0"),
                                  "y.csv": _rows(40, "0,1e200,0,0")}),
}


def _run_bad_holonomy(case, tmp_path, capsys):
    argv, files = BAD_HOLONOMY_INPUT[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    return run_cli(capsys, "holonomy", *argv)


@pytest.mark.parametrize("case", sorted(BAD_HOLONOMY_INPUT))
def test_holonomy_rejects_malformed_input_with_exit_one(case, tmp_path, capsys, recwarn):
    code, out, err = _run_bad_holonomy(case, tmp_path, capsys)
    assert code == 1, err
    assert out == "" and err.startswith("input error: ")
    assert len(recwarn) == 0


@pytest.mark.parametrize("case", sorted(c for c in BAD_HOLONOMY_INPUT if "overflow" in c))
def test_holonomy_overflow_is_one_input_error_line(case, tmp_path, capsys):
    code, _, err = _run_bad_holonomy(case, tmp_path, capsys)
    assert (code, err) == (1, "input error: non-finite transport values\n")


def test_holonomy_backward_infinite_condition_number_is_one_input_error_line(tmp_path, capsys):
    code, out, err = _run_bad_holonomy("backward-nilpotent-1e200", tmp_path, capsys)
    assert (code, out, err) == (1, "", "input error: non-finite gauge condition number\n")


def test_holonomy_pexp_on_five_samples_skips_the_halving_estimate(tmp_path, capsys):
    path = tmp_path / "y.csv"
    path.write_text(_rows(5))
    code, out, _ = run_cli(capsys, "holonomy", "--mode", "pexp", str(path))
    assert code == 0
    assert "order_estimate" not in json.loads(out)


IMPORT_BOUNDARY = """
import contextlib, io, json, sys
import mctwist.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.partition(".")[0] == "mctwist")

steps, out = [], io.StringIO()
cli.build_parser()
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    cli.main([sys.argv[1], "--help"])
steps.append(loaded())
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
steps.append(loaded())
print(json.dumps([code, steps, out.getvalue()]))
"""


def _first_jobs(fuzz_jobs, tmp_path) -> dict:
    """{subcommand: argv} of the first fuzz job of each, its files written
    to a directory of its own."""
    jobs = {}
    for argv, files in fuzz_jobs:
        if argv[0] not in jobs:
            (tmp_path / argv[0]).mkdir()
            for name, text in files.items():
                (tmp_path / argv[0] / name).write_text(text)
            jobs[argv[0]] = [str(tmp_path / argv[0] / a) if a in files else a for a in argv]
    return jobs


# what `import mctwist.cli; build_parser()` loads, and so every subcommand
CLI_LOADS = ["mctwist", "mctwist.cli", "mctwist.dgcore", "mctwist.exactlinalg", "mctwist.io"]
# subcommand -> what one small run of it loads beyond CLI_LOADS
RUN_LOADS = {
    "check-dga": [], "cohomology": [],
    "gauge-search": ["mc"], "mc-check": ["mc"],
    "minimal-model": ["mc", "perturbation"], "truncate": ["mc", "perturbation"],
    "local-system": ["mc", "simplicial"], "resolve": ["mc", "perturbation", "simplicial"],
    **dict.fromkeys(["k2-dict", "kinfty", "kn", "emit-fixtures"],
                    ["fixtures", "interval", "mc", "simplicial"]),
    "holonomy": ["holonomy"],
}


def test_only_the_holonomy_subcommand_imports_numpy(fuzz_jobs, tmp_path):
    """In a fresh interpreter per subcommand: importing the CLI and building
    its parser, then `--help`, load CLI_LOADS alone; one small run adds
    RUN_LOADS, and numpy for holonomy alone."""
    import mctwist
    from mctwist.cli import COMMANDS
    jobs = _first_jobs(fuzz_jobs, tmp_path)
    (tmp_path / "y.csv").write_text(_rows(9))
    jobs.update({"kinfty": ["kinfty", "--n", "2"], "kn": ["kn", "--n", "1", "--ring", "Q"],
                 "holonomy": ["holonomy", "--mode", "pexp", str(tmp_path / "y.csv")],
                 "emit-fixtures": ["emit-fixtures", "--dir", str(tmp_path / "fx")]})
    assert sorted(jobs) == sorted(RUN_LOADS) == sorted(COMMANDS)
    # the fresh interpreter imports the package under test
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mctwist.__file__)))
    for command, argv in sorted(jobs.items()):
        proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, (parser, helped, ran), out = json.loads(proc.stdout)
        assert code == 0, (command, out)
        assert parser == helped == CLI_LOADS, command
        extra = ["mctwist." + m for m in RUN_LOADS[command]]
        assert ran == sorted(CLI_LOADS + extra + ["numpy"] * (command == "holonomy")), command
        if command == "cohomology":
            assert json.loads(out)["H"]
        if command == "holonomy":
            assert "halving_difference" in out


# subcommand -> (module, a function of it the subcommand calls, the module's
# error class): the classes cli.main finds in sys.modules once raised
RAISED = {
    "local-system": ("simplicial", "local_system_cohomology", "SimplicialError"),
    "resolve": ("simplicial", "cochain_algebra", "SimplicialError"),
    "mc-check": ("mc", "is_mc", "MCError"),
    "gauge-search": ("mc", "search_homotopy_gauge", "MCError"),
    "minimal-model": ("perturbation", "minimal_model", "PerturbationError"),
    "truncate": ("perturbation", "truncate_twisted", "PerturbationError"),
    "check-dga": ("dgcore", "check_dga", "DgError"),
    "cohomology": ("exactlinalg", "cohomology", "ExactLinalgError"),
}


@pytest.mark.parametrize("plain", [False, True], ids=["own-class", "plain-ValueError"])
@pytest.mark.parametrize("command", sorted(RAISED))
def test_an_error_raised_in_a_subcommand_exits_as_its_class_says(command, plain, fuzz_jobs,
                                                                  tmp_path, capsys,
                                                                  monkeypatch):
    """An input error class exits 1 with one line; a plain ValueError is a bug (exit 2)."""
    import importlib
    from mctwist import cli
    module, function, error = RAISED[command]
    mod = importlib.import_module("mctwist." + module)
    exc = ValueError if plain else getattr(mod, error)

    def fail(*args, **kwargs):
        raise exc("raised in %s" % function)

    # the handler's own binding, where it has one, and the module's
    for owner in (cli, mod):
        if hasattr(owner, function):
            monkeypatch.setattr(owner, function, fail)
    code, out, err = run_cli(capsys, *_first_jobs(fuzz_jobs, tmp_path)[command])
    assert out == ""
    if plain:
        assert (code, err) == (2, "internal error: ValueError: raised in %s\n" % function)
    else:
        assert (code, err) == (1, "input error: raised in %s\n" % function)


def _lazy_error_job(error) -> tuple:
    """(module, argv, {file: JSON}, message) of a job that raises the
    module's error class, once the subcommand alone has loaded the module."""
    k0 = build_interval_algebra(0, Q)
    return {
        "SimplicialError": ("simplicial", ["local-system", "c.json", "s.json"], {
            "c.json": SPHERE, "s.json": {"ring": "Z", "rank": 2,
                                         "monodromy": [[[0, 1], UNIMODULAR]]}},
            "functor condition fails on 2-simplices: [(0, 1, 2), (0, 1, 3)]"),
        "MCError": ("mc", ["gauge-search", "a.json", "x.json", "x.json", "--seed", "1"], {
            "a.json": _k0_algebra(), "x.json": {"value": [[io.encode_label(k0.e), "1"]]}},
            "an MC candidate must be homogeneous of degree 1"),
        "PerturbationError": ("perturbation", ["minimal-model", "m.json"],
                              {"m.json": _module_payload(Z)},
                              "minimal models are computed over fields"),
    }[error]


@pytest.mark.parametrize("error", ["MCError", "PerturbationError", "SimplicialError"])
def test_a_lazily_loaded_error_class_exits_one_in_a_fresh_interpreter(error, tmp_path):
    import mctwist
    module, argv, files, message = _lazy_error_job(error)
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    script = ("import sys, mctwist.cli as cli\ncode = cli.main(sys.argv[1:])\n"
              "assert 'mctwist.%s' in sys.modules\nsys.exit(code)" % module)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mctwist.__file__)))
    proc = subprocess.run([sys.executable, "-c", script,
                           *[str(tmp_path / a) if a in files else a for a in argv]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "input error: %s\n" % message)


SAMPLE_ARGV = [
    ["check-dga", "a.json", "--ring", "F5"],
    ["cohomology", "c.json"],
    ["local-system", "c.json", "s.json", "--ring", "Z"],
    ["mc-check", "e.json"],
    ["gauge-search", "a.json", "x.json", "y.json", "--seed", "3", "--budget", "7"],
    ["k2-dict", "a.json", "i.json", "--direction", "to-homotopy"],
    ["kinfty", "--n", "3"],
    ["kn", "--n", "2", "--ring", "Q"],
    ["minimal-model", "m.json"],
    ["resolve", "r.json"],
    ["truncate", "m.json", "--i", "1"],
    ["holonomy", "--mode", "backward", "x.csv", "y.csv", "--grid", "16",
     "--tolerance", "1e-3"],
    ["emit-fixtures", "--dir", "out"],
]


def test_sample_argv_cover_every_subcommand():
    from mctwist.cli import COMMANDS
    assert sorted(argv[0] for argv in SAMPLE_ARGV) == sorted(COMMANDS)


@pytest.mark.parametrize("argv", SAMPLE_ARGV, ids=lambda argv: argv[0])
def test_parser_for_one_subcommand_parses_like_the_full_parser(argv):
    from mctwist.cli import build_parser
    assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv)
    other = "kn" if argv[0] != "kn" else "kinfty"
    with pytest.raises(SystemExit):  # only the named subparser was built
        build_parser(argv).parse_args([other])


@pytest.mark.parametrize("argv", SAMPLE_ARGV, ids=lambda argv: argv[0])
def test_main_parses_a_named_subcommand_with_its_parser_alone(argv, monkeypatch):
    from mctwist import cli
    seen = []
    monkeypatch.setattr(cli, "COMMANDS", {name: (seen.append, text, arguments)
                                          for name, (_, text, arguments) in cli.COMMANDS.items()})
    full = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", None)  # the full parser is not built
    assert main(argv) is None
    assert seen == [full.parse_args(argv)]


PARSER_ERRORS = [  # the texts the full parser writes
    (["local-system", "a", "b", "--bogus"],
     "usage: mctwist [-h] {local-system} ...\n"
     "mctwist: error: unrecognized arguments: --bogus\n"),
    (["truncate", "m", "--i", "1", "extra"],
     "usage: mctwist [-h] {truncate} ...\n"
     "mctwist: error: unrecognized arguments: extra\n"),
    (["kn", "--n", "x"],
     "usage: mctwist kn [-h] --n N --ring RING\n"
     "mctwist kn: error: argument --n: invalid int value: 'x'\n"),
    (["kn"],
     "usage: mctwist kn [-h] --n N --ring RING\n"
     "mctwist kn: error: the following arguments are required: --n, --ring\n"),
]


@pytest.mark.parametrize("argv,text", PARSER_ERRORS, ids=lambda v: " ".join(v)[:24])
def test_parser_errors_keep_the_full_parsers_text(argv, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", text)


def test_subcommand_help_is_the_subparsers(capsys):
    from mctwist.cli import build_parser
    with pytest.raises(SystemExit) as exc:
        main(["kn", "-h"])
    assert exc.value.code == 0
    sub = build_parser(["kn"])._subparsers._group_actions[0].choices["kn"]
    assert capsys.readouterr().out == sub.format_help()


def test_help_and_unknown_command_list_every_subcommand(capsys):
    from mctwist.cli import COMMANDS, build_parser
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == build_parser().format_help()
    assert all(name in out for name in COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err and all(name in err for name in COMMANDS)


def test_dga_json_roundtrip_preserves_structure():
    from mctwist.simplicial import circle, cochain_algebra
    for ring in (Z, Q, Ring.GF(5)):
        ca = cochain_algebra(circle(3), ring)
        again = io.dga_from_json(io.dga_to_json(ca))
        assert again.gm.basis() == ca.gm.basis()
        assert again.unit == ca.unit
        assert again.diff == ca.diff
        assert again.mult == ca.mult


@pytest.mark.parametrize("coeff", [0.5, True, "nan", "x", "1/0"])
def test_check_dga_rejects_inexact_coefficients(tmp_path, capsys, coeff):
    # over Z, 0.5 must not round to 0 and true must not become 1
    from mctwist.simplicial import circle, cochain_algebra
    obj = io.dga_to_json(cochain_algebra(circle(3), Z))
    obj["mult"][0][3] = coeff
    path = str(tmp_path / "alg.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    code, out, err = run_cli(capsys, "check-dga", path)
    assert code == 1 and out == ""
    assert "input error" in err and "not an exact scalar" in err


@pytest.mark.parametrize("token, where", [
    ("Infinity", "label"), ("-Infinity", "label"), ("NaN", "label"),
    ("NaN", "coefficient"), ("Infinity", "degree")])
def test_check_dga_refuses_non_finite_json_constants(token, where, tmp_path, capsys):
    # json.load reads NaN and +-Infinity, which RFC 8259 does not have: a label
    # holding one would come back in a witness as ["y",Infinity], not JSON
    label = '["y", %s]' % token if where == "label" else '"y"'
    text = '{"ring": "Z", "basis": [[%s, %s]], "unit": [[%s, %s]], "mult": []}' % (
        label, token if where == "degree" else "0", label,
        token if where == "coefficient" else '"1"')
    path = tmp_path / "a.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check-dga", str(path))
    assert (code, out) == (1, "")
    assert err == "input error: cannot read %s: %s is not a JSON number\n" % (path, token)
    if where == "label":  # with the constant as a string, the label is read
        path.write_text(text.replace(token, '"%s"' % token))
        code, out, _ = run_cli(capsys, "check-dga", str(path))
        assert code == 0 and json.loads(out)["failures"]


def test_minimal_model_rejects_non_numeric_coefficient(tmp_path, capsys):
    # MC coefficients are read outside the algebra loader, so the ring's own
    # coercion must turn "nan" into an input error (exit 1), not exit 2
    from mctwist.simplicial import circle, cochain_algebra
    ca = cochain_algebra(circle(3), Q)
    payload = {"algebra": io.dga_to_json(ca), "v": [[["p"], 0], [["q"], 1]],
               "mc": [[[["p"], ["q"], io.encode_label(l)], "nan"] for l in ca.unit]}
    path = str(tmp_path / "mod.json")
    with open(path, "w") as fh:
        fh.write(io.dumps(payload))
    code, out, err = run_cli(capsys, "minimal-model", path)
    assert code == 1 and out == ""
    assert "not an exact scalar" in err


def test_ring_coerce_accepts_exact_and_refuses_inexact_scalars():
    from fractions import Fraction
    from mctwist.exactlinalg import ExactLinalgError
    F5 = Ring.GF(5)
    assert Z.coerce(np.int64(-3)) == -3 and Z.coerce("6/3") == 2
    assert Q.coerce("3/4") == Fraction(3, 4) and Q.coerce(Fraction(1, 3)) == Fraction(1, 3)
    assert F5.coerce("1/2") == 3 and F5.coerce(-1) == 4
    for ring in (Z, Q, F5):
        for bad in (2.5, 2.0, np.float64(1.0), np.float32(0.5), True, np.bool_(False),
                    "nan", "inf", "x", "1/0", "1e10000000", "2E3", None, [1]):
            with pytest.raises(ExactLinalgError):
                ring.coerce(bad)
    assert [Z.sign(k) for k in (-3, -2, 0, 1)] == [-1, 1, 1, -1]
    assert F5.sign(-1) == 4


def test_mc_check_residual_over_q_prints_integral_products_as_ints(tmp_path, capsys):
    # x = 1/2 a + 1/3 b with a a = 4 c and b b = e: the residual x^2 is
    # (1/4)(4 c) + (1/9) e, so a product of Fractions comes out integral
    labels = ["1", "a", "b", "c", "e"]
    algebra = {"ring": "Q", "basis": [["1", 0], ["a", 1], ["b", 1], ["c", 2], ["e", 2]],
               "unit": "1",
               "mult": [["1", l, l, "1"] for l in labels] + [[l, "1", l, "1"] for l in labels[1:]]
               + [["a", "a", "c", "4"], ["b", "b", "e", "1"]]}
    path = str(tmp_path / "x.json")
    with open(path, "w") as fh:
        json.dump({"algebra": algebra, "value": [["a", "1/2"], ["b", "1/3"]]}, fh)
    code, out, _ = run_cli(capsys, "mc-check", path)
    assert code == 0
    assert out == ('{"checks":["degree","mc-residual"],"mc":false,'
                   '"residual":[["c","1"],["e","1/9"]]}\n')
    from mctwist.mc import is_mc
    a = io.dga_from_json(algebra)
    _, res = is_mc(a, a.element(io.element_from_json(a, [["a", "1/2"], ["b", "1/3"]])))
    assert type(res.coeffs["c"]) is int and res.coeffs["e"].denominator == 9
