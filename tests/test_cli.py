import json
import os

import numpy as np
import pytest

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


def test_dga_json_roundtrip_preserves_structure():
    from mctwist.simplicial import circle, cochain_algebra
    for ring in (Z, Q, Ring.GF(5)):
        ca = cochain_algebra(circle(3), ring)
        again = io.dga_from_json(io.dga_to_json(ca))
        assert again.gm.basis() == ca.gm.basis()
        assert again.unit == ca.unit
        assert again.diff == ca.diff
        assert again.mult == ca.mult


def test_matrix_text_format_ring_tokens():
    from mctwist.exactlinalg import ExactMatrix
    m = ExactMatrix.from_rows(Ring.GF(7), [[3, 5], [0, 1]])
    text = m.to_text()
    assert text.splitlines()[0] == "2 2 F7"
    assert ExactMatrix.from_text(text) == m
