import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mctwist.dgcore import (DgError, Element, GradedModule, complex_of, endomorphism_dga,
                            ground_dga, ground_module, tensor_dga)
from mctwist.exactlinalg import ExactMatrix, Ring, cohomology, is_invertible, kernel_basis, rank
from mctwist.fixtures import homotopy_gauge_universal_dga, universal_mc_dga
from mctwist.interval import build_interval_algebra, tensor_mc_residual
from mctwist.mc import (
    ConvOp,
    HomotopyGaugeCertificate,
    MCElement,
    MCError,
    TwistedModule,
    algebra_inverse,
    closed_degree_zero,
    gauge_act,
    hom_twist,
    hom_twist_d,
    is_gauge_pair,
    is_mc,
    mc_category_h0,
    search_homotopy_gauge,
    twist_algebra,
    twist_invariants,
    twist_module,
    verify_homotopy_gauge,
    zero_mc,
)
from mctwist.mc import _degree_matrix, _hom_diff, _homotopy_solver, _twisted_diff
from mctwist.simplicial import (LocalSystem, circle, cochain_algebra, rep_to_mc, simplex, torus7,
                                two_sided_twisted)

Z, Q = Ring.Z(), Ring.Q()


def test_is_mc_on_the_universal_algebra():
    kx = universal_mc_dga(Z, 4)
    ok, res = is_mc(kx, kx.element(("x", 1)))
    assert ok and res.is_zero()
    ok, _ = is_mc(kx, kx.zero())
    assert ok
    # the only MC elements of k[x] are 0 and x
    for c in (-2, -1, 2, 3):
        ok, res = is_mc(kx, kx.element({("x", 1): c}))
        assert not ok and not res.is_zero()
    with pytest.raises(MCError):
        is_mc(kx, kx.element(("x", 2)))


def test_is_mc_in_tensor_with_k2():
    kx = universal_mc_dga(Q, 4)
    k2 = build_interval_algebra(2, Q)
    t = tensor_dga(kx, k2.dga)
    # an arbitrary degree-1 combination is generally not MC
    bad = t.element({(("x", 1), k2.e): 1, (("x", 0), k2.word_label("s", 1)): 1})
    ok, res = is_mc(t, bad)
    assert not ok and not res.is_zero()


def test_twist_by_zero_is_identity():
    ca = cochain_algebra(circle(3), Z)
    m = twist_module(ca, zero_mc(ca))
    assert m.diff == ca.diff
    a2 = twist_algebra(ca, zero_mc(ca))
    assert a2.diff == ca.diff


def test_example_51_convention_pinning():
    # all four twisting conventions on the K_0* fixture, over Z and Q
    k0 = build_interval_algebra(0, Z)
    a = k0.dga
    s = MCElement(a, a.element(k0.word_label("s", 1)))
    module_left = twist_module(a, s).cohomology()
    module_right = hom_twist(a, s, zero_mc(a)).cohomology()
    algebra = twist_algebra(a, s).cohomology()
    two_sided = hom_twist(a, s, s).cohomology()
    assert module_left.torsion(1) == () and module_right.torsion(1) == ()
    assert algebra.torsion(1) == (2,) and algebra.rank(1) == 0
    assert two_sided.torsion(1) == (2,)
    # over Q the torsion dies
    k0q = build_interval_algebra(0, Q)
    sq = MCElement(k0q.dga, k0q.dga.element(k0q.word_label("s", 1)))
    assert twist_algebra(k0q.dga, sq).cohomology().rank(1) == 0


def test_mc_elements_are_equal_on_one_algebra_and_equal_values():
    # the algebra is compared by identity: an equal algebra built again is
    # another algebra; anything but an MCElement is unequal, an Element too
    # (Element.__eq__ would read an MCElement as a scalar, and refuse it)
    kx, again = universal_mc_dga(Q, 4), universal_mc_dga(Q, 4)
    x = MCElement(kx, kx.element(("x", 1)))
    assert x == MCElement(kx, {("x", 1): 1}) and not x != MCElement(kx, {("x", 1): 1})
    assert x != zero_mc(kx) and zero_mc(kx) == zero_mc(kx)
    assert x != MCElement(again, again.element(("x", 1)))
    assert zero_mc(kx) != zero_mc(again)
    assert x != x.value and not x == kx.element(("x", 1))
    for other in (0, None, "x"):
        assert x != other and other != x and not x == other


def test_conv_ops_are_equal_on_one_algebra_and_equal_coefficients():
    # as for Elements, the algebra is compared by identity: the identities of
    # C*(S^1_3; Z) on V and of C*(S^1_3; F2) on W have equal coefficient dicts
    over_z, over_f2 = cochain_algebra(circle(3), Z), cochain_algebra(circle(3), Ring.GF(2))
    v, w = GradedModule(Z, [("a", 0)]), GradedModule(Ring.GF(2), [("a", 0)])
    one, other = ConvOp.identity(over_z, v), ConvOp.identity(over_f2, w)
    assert one.coeffs == other.coeffs
    assert one != other and not one == other and other != one
    assert one == ConvOp.identity(over_z, v) and not one != ConvOp.identity(over_z, v)
    assert one != ConvOp.identity(cochain_algebra(circle(3), Z), v)
    for value in (one.coeffs, None, 1):
        assert one != value and not one == value


def test_twist_refuses_non_mc():
    # an MCElement is verified once, when it is made; the twists take only those
    kx = universal_mc_dga(Z, 4)
    fake = kx.element({("x", 1): 2})
    with pytest.raises(MCError, match="not Maurer-Cartan"):
        MCElement(kx, fake)
    with pytest.raises(MCError, match="expected an MCElement"):
        twist_module(kx, fake)
    with pytest.raises(MCError, match="expected an MCElement"):
        twist_algebra(kx, fake)


def test_twisted_module_d_squared_iff_mc():
    ca = cochain_algebra(circle(3), Q)
    v = GradedModule(Q, [("a", 0), ("b", 0)])
    end = endomorphism_dga(ca, v)
    rng = random.Random(4)
    deg1 = list(end.gm.labels_of_degree(1))
    for _ in range(6):
        coeffs = {l: rng.randint(-2, 2) for l in rng.sample(deg1, 3)}
        x = end.element(coeffs)
        ok, res = is_mc(end, x)
        if ok:
            tw = TwistedModule(v, ca, ConvOp.from_mc(MCElement(end, x), ca, v))
            assert tw.module().check()["ok"]
        else:
            with pytest.raises(MCError, match="not Maurer-Cartan"):
                TwistedModule(v, ca, ConvOp(ca, v, v, {k[1:]: c for k, c in coeffs.items()}))


def test_hom_twist_zero_zero_and_compose():
    ca = cochain_algebra(circle(3), Q)
    tw = hom_twist(ca, zero_mc(ca), zero_mc(ca))
    assert tw.diff == ca.diff
    # composition pairing is a chain map: d(g f) = d(g) f + (-1)^{|g|} g d(f)
    kx = universal_mc_dga(Q, 4)
    x = MCElement(kx, kx.element(("x", 1)))
    z = zero_mc(kx)
    ab = hom_twist(kx, x, z)   # maps A^[x] -> A^[0]
    bc = hom_twist(kx, z, x)   # maps A^[0] -> A^[x]
    cc = hom_twist(kx, x, x)
    f = kx.element(("x", 1))
    g = kx.element(("x", 2))
    lhs = kx.element(bc.d_dict({("x", 2): 1})) * f  # not meaningful alone
    # direct identity check on elements: d_{x,x}(g f) vs d_{0,x}(g) f + g d_{x,0}(f)
    gf = g * f
    left = kx.element(cc.d_dict(gf.coeffs))
    right = kx.element(bc.d_dict(g.coeffs)) * f + g * kx.element(ab.d_dict(f.coeffs))
    assert left == right


def test_gauge_act_basics():
    ca = cochain_algebra(simplex(2), Q)
    v = GradedModule(Q, [("a", 0), ("b", 0)])
    end = endomorphism_dga(ca, v)
    x0 = zero_mc(end)
    assert gauge_act(end, end.one(), x0).value.is_zero()
    g = _random_gauge(end, ca, v, seed=1)
    gx = gauge_act(end, g, x0)
    ginv = algebra_inverse(end, g)
    assert gx.value == -(g.d() * ginv)
    assert is_gauge_pair(end, g, x0, gx)
    assert not is_gauge_pair(end, g, gx, x0) or (g.d()).is_zero()


def _random_gauge(end, ca, v, seed=0, bound=2):
    rng = random.Random(seed)
    coeffs = {}
    for u in v.labels:
        for al, c in ca.unit.items():
            coeffs[("E", u, u, al)] = c
    for u in v.labels:
        for w in v.labels:
            for e in ca.gm.labels_of_degree(1):
                if v.degree[w] - v.degree[u] + 1 == 0 and rng.random() < 0.5:
                    coeffs[("E", u, w, e)] = rng.randint(-bound, bound)
    hold = end.element(coeffs)
    assert algebra_inverse(end, hold) is not None
    return hold


def test_gauge_action_axioms_randomized():
    ca = cochain_algebra(simplex(2), Q)
    v = GradedModule(Q, [("a", 0), ("b", 0)])
    end = endomorphism_dga(ca, v)
    rng = random.Random(11)
    for trial in range(5):
        g = _random_gauge(end, ca, v, seed=trial)
        h = _random_gauge(end, ca, v, seed=100 + trial)
        x = gauge_act(end, h, zero_mc(end))  # a valid MC element
        ok, _ = is_mc(end, x.value)
        assert ok
        lhs = gauge_act(end, g * h, zero_mc(end))
        rhs = gauge_act(end, g, gauge_act(end, h, zero_mc(end)))
        assert lhs.value == rhs.value
        assert gauge_act(end, end.one(), x).value == x.value


def test_gauge_pair_sign_flip_fails():
    k0 = build_interval_algebra(0, Q)
    a = k0.dga
    s = MCElement(a, a.element(k0.word_label("s", 1)))
    # over Q, s is gauge equivalent to 0 via g = e + 2f: g . 0 = -d(g) g^{-1} = s
    g = a.element({k0.e: 1, k0.f: 2})
    assert is_gauge_pair(a, g, zero_mc(a), s)
    gbad = a.element({k0.e: 1, k0.f: -2})
    assert not is_gauge_pair(a, gbad, zero_mc(a), s)


def test_verify_certificate_on_the_universal_example():
    fa = homotopy_gauge_universal_dga(Q)
    x = MCElement(fa, fa.gen("x"))
    y = MCElement(fa, fa.gen("y"))
    cert = HomotopyGaugeCertificate(fa.gen("g"), fa.gen("h"), fa.gen("s"), fa.gen("t"))
    ok, fails = verify_homotopy_gauge(fa, x, y, cert)
    assert ok and not fails
    # trivial certificate between equal elements
    trivial = HomotopyGaugeCertificate(fa.one(), fa.one(), fa.zero(), fa.zero())
    ok, _ = verify_homotopy_gauge(fa, x, x, trivial)
    assert ok
    # zeroing the wy witness must fail exactly condition (4)
    broken = HomotopyGaugeCertificate(fa.gen("g"), fa.gen("h"), fa.gen("s"), fa.zero())
    ok, fails = verify_homotopy_gauge(fa, x, y, broken)
    assert not ok
    assert fails == ["(4) gh - 1 = d^y(wy)"]


# Oracles on the lazy free dg algebras: every word up to a length, and d^2 = 0
# and the Leibniz rule checked on all of them.


def _words_up_to_length(free, max_len: int):
    gens = sorted(free.generator_degrees)
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(gens, repeat=n))
    return out


def _check_axioms_on_words(free, max_len: int, max_failures: int = 5) -> dict:
    """Verify d^2 = 0 and Leibniz on all words up to ``max_len``.

    Arithmetic is exact in the full free algebra, so this is an honest
    verification on the stated basis (associativity of concatenation
    holds structurally and is spot-checked).
    """
    ring = free.ring
    failures = []
    words = _words_up_to_length(free, max_len)
    for w in words:
        if free.d_dict(free.d_dict({w: ring.one()})):
            failures.append({"axiom": "d-squared", "witness": w})
            if len(failures) >= max_failures:
                return {"ok": False, "failures": failures}
    for w1 in _words_up_to_length(free, max(1, max_len // 2)):
        for w2 in _words_up_to_length(free, max(1, max_len // 2)):
            e1, e2 = {w1: ring.one()}, {w2: ring.one()}
            lhs = free.d_dict(free.mul_dicts(e1, e2))
            rhs = ring.axpy(free.mul_dicts(free.d_dict(e1), e2),
                            ring.sign(free.gm.degree[w1]),
                            free.mul_dicts(e1, free.d_dict(e2)))
            if lhs != rhs:
                failures.append({"axiom": "leibniz", "witness": (w1, w2)})
                if len(failures) >= max_failures:
                    return {"ok": False, "failures": failures}
    return {"ok": not failures, "failures": failures}


def test_universal_fixture_axioms_and_flip():
    fa = homotopy_gauge_universal_dga(Q)
    assert _check_axioms_on_words(fa, 4)["ok"]
    bad = homotopy_gauge_universal_dga(Q, flip_ds_sign=True)
    rep = _check_axioms_on_words(bad, 2)
    assert not rep["ok"]
    assert any(f["witness"] == ("s",) for f in rep["failures"])


def test_search_distinguishes_zero_and_s_over_z():
    k0 = build_interval_algebra(0, Z)
    a = k0.dga
    s = MCElement(a, a.element(k0.word_label("s", 1)))
    res = search_homotopy_gauge(a, zero_mc(a), s, seed=7)
    assert res.kind == "distinguished"
    assert res.report["differs"] == "algebra_twist"
    inv = res.invariants
    assert inv["y"]["algebra_twist"].torsion(1) == (2,)
    assert inv["x"]["algebra_twist"].torsion(1) == ()


def test_search_finds_gauge_over_q():
    k0 = build_interval_algebra(0, Q)
    a = k0.dga
    s = MCElement(a, a.element(k0.word_label("s", 1)))
    res = search_homotopy_gauge(a, zero_mc(a), s, seed=3)
    assert res.kind == "equivalent"
    ok, _ = verify_homotopy_gauge(a, zero_mc(a), s, res.certificate)
    assert ok


def test_search_gauge_pair_returns_inverse_certificate():
    ca = cochain_algebra(simplex(2), Q)
    v = GradedModule(Q, [("a", 0), ("b", 0)])
    end = endomorphism_dga(ca, v)
    g = _random_gauge(end, ca, v, seed=5)
    x = zero_mc(end)
    y = gauge_act(end, g, x)
    res = search_homotopy_gauge(end, x, y, seed=1, budget=25)
    assert res.kind == "equivalent"
    assert res.certificate.wx.is_zero() and res.certificate.wy.is_zero()
    ok, _ = verify_homotopy_gauge(end, x, y, res.certificate)
    assert ok


# A = End(V) over the ground ring, V = a (degree -1), b, c (degree 0): the
# pairs (x, y) of MC elements, with the g stage 3 decides by at budget 0
STAGE_THREE = {"E_ab,E_ac": ("b", "c", ("c", "b")), "E_ab,E_ab": ("b", "b", ("c", "c"))}


def _stage_three_pair(ring, pair):
    a = endomorphism_dga(ground_dga(ring), GradedModule(ring, [("a", -1), ("b", 0), ("c", 0)]))
    x_dst, y_dst, g = STAGE_THREE[pair]
    x, y = (MCElement(a, a.element(("E", "a", dst, "1"))) for dst in (x_dst, y_dst))
    return a, x, y, {("E",) + g + ("1",): 1}


@pytest.mark.parametrize("pair", sorted(STAGE_THREE))
@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(5)], ids=str)
def test_stage_three_decides_where_no_invertible_gauge_is_tried(ring, pair):
    # at budget 0, stage 2 tries the three basis candidates of closed A^0,
    # none of them invertible; stage 3 then certifies homotopy gauge
    # equivalence with a g that is not invertible either
    a, x, y, g = _stage_three_pair(ring, pair)
    candidates, _ = closed_degree_zero(a, x, y)
    assert len(candidates) == 3
    assert all(algebra_inverse(a, Element(a, c)) is None for c in candidates)
    res = search_homotopy_gauge(a, x, y, budget=0, seed=1)
    assert (res.kind, res.gauge) == ("equivalent", None)
    assert res.report == {"closed_degree0_dim": 3, "samples": 3, "sample_bound": 1}
    assert res.certificate.g.coeffs == g and algebra_inverse(a, res.certificate.g) is None
    assert verify_homotopy_gauge(a, x, y, res.certificate) == (True, [])


@pytest.mark.parametrize("pair", sorted(STAGE_THREE))
@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(5)], ids=str)
def test_gauge_search_prints_the_stage_three_certificate(ring, pair, tmp_path, capsys):
    import json
    from mctwist import io
    from mctwist.cli import main
    a, x, y, g = _stage_three_pair(ring, pair)
    (tmp_path / "a.json").write_text(io.dumps(io.dga_to_json(a)))
    for name, elem in (("x", x), ("y", y)):
        (tmp_path / (name + ".json")).write_text(
            io.dumps({"value": io.element_to_json(elem.value.coeffs)}))
    argv = [str(tmp_path / f) for f in ("a.json", "x.json", "y.json")]
    assert main(["gauge-search", *argv, "--seed", "1", "--budget", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == "equivalent"
    assert out["certificate"] == io.certificate_to_json(
        search_homotopy_gauge(a, x, y, budget=0, seed=1).certificate)
    cert = HomotopyGaugeCertificate(*(a.element(io.element_from_json(a, out["certificate"][k]))
                                      for k in ("g", "h", "wx", "wy")))
    assert cert.g.coeffs == g and algebra_inverse(a, cert.g) is None
    assert verify_homotopy_gauge(a, x, y, cert) == (True, [])


def test_cohomology_of_module_twist_is_gauge_invariant():
    ca = cochain_algebra(circle(3), Q)
    v = GradedModule(Q, [("a", 0)])
    end = endomorphism_dga(ca, v)
    g = _random_gauge(end, ca, v, seed=9)
    x = zero_mc(end)
    y = gauge_act(end, g, x)
    assert twist_invariants(end, x) == twist_invariants(end, y)


def test_mc_category_h0_over_ground_ring():
    k = ground_dga(Q)
    cat = mc_category_h0(k, [zero_mc(k)])
    assert cat.h0_dim(0, 0) == 1
    assert cat.class_coordinates(0, 0, k.one()) == [1]
    assert cat.compose_classes(0, 0, 0, 0, 0) == [1]


def test_mc_category_h0_on_interval_algebra():
    # 0 and s in K_0* over Q are homotopy gauge equivalent (even gauge);
    # the table must see invertible classes both ways
    k0 = build_interval_algebra(0, Q)
    a = k0.dga
    s = MCElement(a, a.element(k0.word_label("s", 1)))
    cat = mc_category_h0(a, [zero_mc(a), s], seed=2)
    assert cat.h0_dim(0, 1) == 1 and cat.h0_dim(1, 0) == 1
    assert (0, 1) in cat.isomorphic and (1, 0) in cat.isomorphic
    # composites of the witnessing classes are the identity classes
    assert cat.compose_classes(0, 1, 0, 0, 0) != [0]


def test_class_coordinates_refuse_an_element_off_degree_zero():
    # a term of degree 1 is refused, not read as 0 in the degree-0 solve
    k0 = build_interval_algebra(0, Q)
    a = k0.dga
    cat = mc_category_h0(a, [zero_mc(a)])
    s = a.element(k0.word_label("s", 1))
    for element in (s, a.one() + s):
        with pytest.raises(MCError, match="not closed of degree 0"):
            cat.class_coordinates(0, 0, element)
    assert cat.class_coordinates(0, 0, a.one()) == [1]


def test_universal_example_composition_relations():
    # [h][g] = [1] in H^0(A^x) and [g][h] = [1] in H^0(A^y): the composites
    # differ from 1 by exact terms, witnessed by s and t exactly
    fa = homotopy_gauge_universal_dga(Q)
    x = MCElement(fa, fa.gen("x"))
    y = MCElement(fa, fa.gen("y"))
    lhs = fa.gen("h") * fa.gen("g") - fa.one()
    assert lhs == hom_twist_d(fa, x, x, fa.gen("s"))
    rhs = fa.gen("g") * fa.gen("h") - fa.one()
    assert rhs == hom_twist_d(fa, y, y, fa.gen("t"))


def test_module_twist_square_is_left_multiplication_by_residual():
    # (d + x.)^2 (a) = (dx + x^2) a for any degree-1 x, MC or not: the twist
    # squares to zero exactly when x is Maurer-Cartan
    ca = cochain_algebra(circle(3), Q)
    rng = random.Random(31)
    deg1 = list(ca.gm.labels_of_degree(1))
    for _ in range(6):
        x = ca.element({l: rng.randint(-2, 2) for l in deg1})
        residual = x.d() + x * x
        for l in ca.gm.labels:
            a_el = ca.element(l)
            once = a_el.d() + x * a_el
            twice = once.d() + x * once
            assert twice == residual * a_el
        if residual.is_zero():
            twist_module(ca, MCElement(ca, x))  # constructs without error


def test_closure_every_constructor_yields_a_dga():
    from mctwist.dgcore import check_dga, ground_dga, tensor_dga, endomorphism_dga
    from mctwist.polyderham import polynomial_de_rham_dga
    from mctwist.simplicial import cochain_algebra, circle, simplex
    produced = [
        ground_dga(Q),
        universal_mc_dga(Z, 3),
        cochain_algebra(simplex(2), Z),
        cochain_algebra(circle(4), Ring.GF(3)),
        build_interval_algebra(2, Z).dga,
        polynomial_de_rham_dga(Q, 5),
        tensor_dga(universal_mc_dga(Q, 2), build_interval_algebra(1, Q).dga),
        endomorphism_dga(cochain_algebra(circle(3), Q),
                         GradedModule(Q, [("a", 0), ("b", 1)])),
    ]
    k0 = build_interval_algebra(0, Z)
    s = MCElement(k0.dga, k0.dga.element(k0.word_label("s", 1)))
    produced.append(twist_algebra(k0.dga, s))
    for alg in produced:
        rep = check_dga(alg)
        assert rep["ok"], (alg.name, rep["failures"][:2])


def test_example51_convention_fixture_is_pinned():
    from mctwist.cli import fixtures_example51
    record = fixtures_example51()
    assert record["pinned"] == "algebra"
    by_degree = {e["degree"]: e for e in record["conventions"]["algebra"]}
    assert by_degree[1] == {"degree": 1, "rank": 0, "torsion": [2]}
    assert all(e["degree"] != 1 for e in record["conventions"]["module_left"])
    assert all(e["degree"] != 1 for e in record["conventions"]["module_right"])


def test_search_unknown_when_invariants_agree_but_no_unit_found():
    # in K_1* every a s + b t is MC; the pair (s + 3t, 3s + t) over Z has
    # identical module- and algebra-twist invariants, the closed-g space is
    # spanned by e + 2f, and hg can only reach 2ad . 1, never 1:
    # the search must return Unknown, not a false claim
    k1 = build_interval_algebra(1, Z)
    a = k1.dga
    s, t = k1.word_label("s", 1), k1.word_label("t", 1)
    x = MCElement(a, a.element({s: 1, t: 3}))
    y = MCElement(a, a.element({s: 3, t: 1}))
    assert twist_invariants(a, x) == twist_invariants(a, y)
    res = search_homotopy_gauge(a, x, y, seed=5, budget=30)
    assert res.kind == "unknown"
    assert res.report["closed_degree0_dim"] == 1
    # over Q the same pair is gauge equivalent via g = e + 2f
    k1q = build_interval_algebra(1, Q)
    aq = k1q.dga
    xq = MCElement(aq, aq.element({s: 1, t: 3}))
    yq = MCElement(aq, aq.element({s: 3, t: 1}))
    resq = search_homotopy_gauge(aq, xq, yq, seed=5, budget=30)
    assert resq.kind == "equivalent"
    ok, _ = verify_homotopy_gauge(aq, xq, yq, resq.certificate)
    assert ok
    assert "schwartz_zippel" not in resq.report or resq.certificate is not None


def test_search_distinguishes_zero_from_x_in_truncated_kx():
    # in k[x]/(x^5) the twisted module A^[x] has H^4 = k while A^[0] does
    # not: the unique nonzero MC element is not equivalent to zero
    kx = universal_mc_dga(Q, 4)
    x = MCElement(kx, kx.element(("x", 1)))
    res = search_homotopy_gauge(kx, zero_mc(kx), x, seed=1)
    assert res.kind == "distinguished"


def test_h0_category_composition_table():
    k0 = build_interval_algebra(0, Q)
    a = k0.dga
    s = MCElement(a, a.element(k0.word_label("s", 1)))
    cat = mc_category_h0(a, [zero_mc(a), s], seed=1)
    table = cat.table()
    # composing the (0 -> 1) class with the (1 -> 0) class lands on the
    # identity class up to a unit, in both orders
    c01 = table[(0, 1, 0, 0, 0)]
    c10 = table[(1, 0, 1, 0, 0)]
    assert c01 != [0] and c10 != [0]
    for i in (0, 1):
        ident = cat.class_coordinates(i, i, a.one())
        assert ident != [0]


def test_hom_twist_composition_three_distinct_objects():
    # d^{[x,z]}(g f) = d^{[y,z]}(g) f + (-1)^{|g|} g d^{[x,y]}(f) for three
    # distinct MC elements
    ca = cochain_algebra(simplex(2), Q)
    v = GradedModule(Q, [("a", 0), ("b", 0)])
    end = endomorphism_dga(ca, v)
    rng = random.Random(41)
    gauges = []
    for seed in range(3):
        coeffs = {}
        for vert in ca.gm.labels_of_degree(0):
            m = [[rng.choice([1, 2, 3]), rng.choice([0, 1])],
                 [0, rng.choice([1, 2])]]
            for i, u in enumerate(v.labels):
                for j, w in enumerate(v.labels):
                    if m[j][i]:
                        coeffs[("E", u, w, vert)] = m[j][i]
        gauges.append(end.element(coeffs))
    x, y, z = (gauge_act(end, g, zero_mc(end)) for g in gauges)
    txy = hom_twist(end, x, y)
    tyz = hom_twist(end, y, z)
    txz = hom_twist(end, x, z)
    deg0 = list(end.gm.labels_of_degree(0))
    for _ in range(4):
        f = end.element({l: rng.randint(-2, 2) for l in rng.sample(deg0, 3)})
        g = end.element({l: rng.randint(-2, 2) for l in rng.sample(deg0, 3)})
        lhs = end.element(txz.d_dict((g * f).coeffs))
        rhs = end.element(tyz.d_dict(g.coeffs)) * f + g * end.element(txy.d_dict(f.coeffs))
        assert lhs == rhs


def test_convolution_routes_agree():
    # ConvOp.compose and the endomorphism dga structure constants are two
    # independent implementations of the same Koszul convolution
    from mctwist.perturbation import ConvOp
    ca = cochain_algebra(circle(3), Q)
    v = GradedModule(Q, [("a", 0), ("b", 1), ("c", -1)])
    end = endomorphism_dga(ca, v)
    rng = random.Random(17)
    labels = list(end.gm.labels)
    for _ in range(6):
        f = {l: rng.randint(-2, 2) for l in rng.sample(labels, 5)}
        g = {l: rng.randint(-2, 2) for l in rng.sample(labels, 5)}
        via_algebra = (end.element(f) * end.element(g)).coeffs
        op_f = ConvOp(ca, v, v, {(u, w, al): c for (tag, u, w, al), c in f.items()})
        op_g = ConvOp(ca, v, v, {(u, w, al): c for (tag, u, w, al), c in g.items()})
        via_conv = {("E",) + k: c for k, c in op_f.compose(op_g).coeffs.items()}
        assert {k: v2 for k, v2 in via_algebra.items() if v2 != 0} == via_conv


def test_twisted_module_is_a_left_twisted_algebra_module():
    # A^[x] is a dg (A^x, A)-bimodule: the left pairing (multiplication)
    # satisfies D^[x](a m) = d^x(a) m + (-1)^{|a|} a D^[x](m)
    k0 = build_interval_algebra(0, Z)
    a = k0.dga
    s = MCElement(a, a.element(k0.word_label("s", 1)))
    mod = twist_module(a, s)
    alg = twist_algebra(a, s)
    for al in a.gm.labels:
        sign = Z.coerce((-1) ** a.gm.degree[al])
        for ml in a.gm.labels:
            lhs = mod.d_dict(a.mul_labels(al, ml))
            rhs = a.mul_dicts(alg.diff.get(al, {}), {ml: 1})
            rhs = Z.axpy(rhs, sign, a.mul_dicts({al: 1}, mod.diff.get(ml, {})))
            assert lhs == rhs, (al, ml)


# -- H^0 representatives against the greedy reference ------------------------


def _ref_h0_reps(a, x, y):
    """H0Category's representatives as they were chosen before one rref
    replaced the loop: a closed vector is kept when it raises the rank of
    the exact span plus the vectors kept so far."""
    ring = a.ring
    hm = hom_twist(a, x, y)
    cols0, dst0 = _degree_matrix(hm, 0)
    src, srcm1 = list(cols0), list(_degree_matrix(hm, -1)[0])
    mat0 = ExactMatrix.from_columns(ring, list(cols0.values()), dst0)
    closed = kernel_basis(mat0)
    ix = {l: k for k, l in enumerate(src)}
    exact_vecs = []
    for l in srcm1:
        vec = [ring.zero()] * len(src)
        for r, c in hm.diff.get(l, {}).items():
            vec[ix[r]] = c
        exact_vecs.append(vec)
    basis = []
    ambient = list(exact_vecs)
    cur_rank = rank(ExactMatrix(ring, len(ambient), len(src), ambient))
    for vec in closed:
        cand = ambient + [vec]
        r = rank(ExactMatrix(ring, len(cand), len(src), cand))
        if r > cur_rank:
            ambient = cand
            cur_rank = r
            basis.append(vec)
    return [{src[k]: c for k, c in enumerate(v) if c != 0} for v in basis]


def _random_h0_objects(rng, ring):
    """MC elements of End(V) (x) C*(X) for a 1-dimensional X.

    With V in degree 0 every End(V)^0-valued 1-cochain is MC.  With V in
    degrees 0 and 1 the objects are gauge transforms of 0 and of d0 (x) 1,
    so the hom twists have exact parts."""
    ca = cochain_algebra(rng.choice([circle(3), circle(4), simplex(1)]), ring)
    edges = list(ca.gm.labels_of_degree(1))
    mixed = rng.random() < 0.5
    labels = [("a", 0), ("b", 0)] + ([("c", 1)] if mixed else [])
    rng.shuffle(labels)
    v = GradedModule(ring, labels)
    end = endomorphism_dga(ca, v)
    if not mixed:
        xs = [zero_mc(end)]
        for _ in range(rng.randint(1, 3)):
            xs.append(MCElement(end, end.element({
                ("E", u, w, e): rng.randint(-2, 2)
                for u in v.labels for w in v.labels for e in edges if rng.random() < 0.4})))
        return end, xs
    unit = ca.unit.items()
    u0 = rng.choice("ab")
    d0 = MCElement(end, end.element({("E", u0, "c", al): c for al, c in unit}))
    xs = [zero_mc(end), d0]
    for base in (zero_mc(end), d0):
        coeffs = {("E", u, u, al): c for u in v.labels for al, c in unit}
        for u in "ab":
            for e in edges:
                if rng.random() < 0.5:
                    coeffs[("E", "c", u, e)] = rng.randint(-2, 2)
        xs.append(gauge_act(end, end.element(coeffs), base))
    return end, xs[:rng.randint(2, 4)]


def _reference_find_isos(cat, seed):
    """H0Category's isomorphic pairs as they were found before the search
    decided them: stage 3 alone, on the H^0 representatives and then on six
    random combinations of them."""
    rng = random.Random(seed)
    n = len(cat.xs)
    found = set((i, i) for i in range(n))

    def candidates(reps):
        yield from reps
        for _ in range(6):
            acc = {}
            for rep in reps:
                c = rng.randint(-2, 2)
                if c:
                    cat.ring.axpy(acc, c, rep)
            if acc:
                yield acc

    for i in range(n):
        for j in range(n):
            if i == j or (i, j) in found:
                continue
            x, y = cat.xs[i], cat.xs[j]
            solve = _homotopy_solver(cat.a, x, y)
            for g in candidates(cat.reps[(i, j)]):
                cert = solve(Element(cat.a, g))
                if cert is not None and verify_homotopy_gauge(cat.a, x, y, cert)[0]:
                    found.update(((i, j), (j, i)))
                    break
    return sorted((i, j) for (i, j) in found if i != j)


@pytest.mark.parametrize("ring", [Q, Ring.GF(2), Ring.GF(3), Ring.GF(5), Ring.GF(2 ** 61 - 1)],
                         ids=lambda r: r.name)
def test_h0_representatives_match_the_greedy_reference(ring):
    rng = random.Random(9100 + (ring.p or 1))
    for _ in range(6):
        end, xs = _random_h0_objects(rng, ring)
        seed = rng.randint(0, 99)
        cat = mc_category_h0(end, xs, seed=seed)
        for (i, j), reps in cat.reps.items():
            ref = _ref_h0_reps(end, xs[i], xs[j])
            assert [list(r.items()) for r in reps] == [list(r.items()) for r in ref]
        # the pairs listed isomorphic hold the retired loop's, and each is
        # one the search certifies, with a certificate that re-verifies
        assert set(_reference_find_isos(cat, seed)) <= set(cat.isomorphic)
        for i, j in cat.isomorphic:
            res = search_homotopy_gauge(end, xs[i], xs[j], seed=seed)
            assert res.kind == "equivalent", (i, j)
            assert verify_homotopy_gauge(end, xs[i], xs[j], res.certificate)[0], (i, j)


def test_h0_isomorphic_pairs_the_stage_three_loop_missed_over_f2():
    # draws 2 and 3 of the F2 stream above: the retired loop listed only
    # 0 ~ 3 and 1 ~ 3, where the search also certifies 1 ~ 2 and 0 ~ 2
    rng, f2 = random.Random(9102), Ring.GF(2)
    found = []
    for _ in range(4):
        end, xs = _random_h0_objects(rng, f2)
        found.append(mc_category_h0(end, xs, seed=rng.randint(0, 99)).isomorphic)
    assert found[2] == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert found[3] == [(0, 2), (1, 3), (2, 0), (3, 1)]


# -- the convolution MC check against End(V) (x) A --------------------------------

ORACLE_BASES = {"S1_3": circle(3), "S1_4": circle(4), "D2": simplex(2)}


def _oracle_unimodular(rnd, ring, n):
    # +-1 on the diagonal, random above it: invertible over Z, Q and F5
    return ExactMatrix.from_rows(ring, [[rnd.choice([1, -1]) if i == j else
                                         rnd.randint(-2, 2) if j > i else 0
                                         for j in range(n)] for i in range(n)])


def _oracle_gauge(rnd, ca, v, end):
    """D + N with D = +-1 on each (u, vertex) and N nilpotent: vertex terms
    u_i -> u_j (i < j, equal degrees) and weight-raising edge terms that
    lower the degree in V by one."""
    labels = v.labels
    coeffs = {("E", u, u, vert): rnd.choice([1, -1])
              for u in labels for vert in ca.gm.labels_of_degree(0)}
    for i, u in enumerate(labels):
        for j, w in enumerate(labels):
            if i < j and v.degree[u] == v.degree[w]:
                for vert in ca.gm.labels_of_degree(0):
                    coeffs[("E", u, w, vert)] = rnd.randint(-2, 2)
            if v.degree[w] == v.degree[u] - 1:
                for e in ca.gm.labels_of_degree(1):
                    coeffs[("E", u, w, e)] = rnd.randint(-2, 2)
    return end.element(coeffs)


def _oracle_local_system(rnd, base, ring, v, end):
    edges = base.nondegenerate(1)
    mono = {e: _oracle_unimodular(rnd, ring, v.dim) for e in edges}
    if (0, 2) in mono and base is ORACLE_BASES["D2"]:
        mono[(0, 2)] = mono[(0, 1)] * mono[(1, 2)]  # the cocycle condition on (0, 1, 2)
    return rep_to_mc(LocalSystem(base, v, mono), end_dga=end)


@st.composite
def twisting_candidates(draw):
    """(C*(X), V, End(V) (x) C*(X), coefficients on the labels ("E", u, w, a))."""
    ring = draw(st.sampled_from([Z, Q, Ring.GF(5)]))
    base = ORACLE_BASES[draw(st.sampled_from(sorted(ORACLE_BASES)))]
    kind = draw(st.sampled_from(["any-degree", "degree-one", "gauge", "local-system",
                                 "perturbed", "unknown-label"]))
    n = draw(st.integers(1, 3))
    degrees = [0] * n if kind == "local-system" else \
        draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    ca = cochain_algebra(base, ring)
    v = GradedModule(ring, [(("v", i), d) for i, d in enumerate(degrees)])
    end = endomorphism_dga(ca, v)
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    scalars = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3).filter(
        lambda q: ring is Q or q.denominator == 1)
    if kind in ("gauge", "local-system", "perturbed"):
        x = _oracle_local_system(rnd, base, ring, v, end) if kind == "local-system" \
            else zero_mc(end)
        coeffs = dict(gauge_act(end, _oracle_gauge(rnd, ca, v, end), x).value.coeffs)
        deg1 = end.gm.labels_of_degree(1)
        if kind == "perturbed" and deg1:  # an MC element moved off the MC locus, mostly
            key = draw(st.sampled_from(deg1))
            coeffs[key] = end.ring.add(coeffs.get(key, 0), end.ring.coerce(draw(scalars)))
    else:
        pool = end.gm.labels_of_degree(1) if kind == "degree-one" else end.gm.labels
        keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True)) \
            if pool else []
        coeffs = {k: draw(scalars) for k in keys}
        if kind == "unknown-label":
            coeffs[("E", ("v", 7), ("v", 0), draw(st.sampled_from(ca.gm.labels)))] = 1
    return ca, v, end, coeffs


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(twisting_candidates())
def test_twisted_module_accepts_what_the_end_algebra_check_accepts(case):
    # the reference is the MC check in End(V) (x) A, with its structure constants
    ca, v, end, coeffs = case
    try:
        MCElement(end, end.element(coeffs))
        want = None
    except (MCError, DgError) as exc:
        want = (type(exc), str(exc))
    try:
        x = ConvOp(ca, v, v, {k[1:]: c for k, c in coeffs.items()})
        TwistedModule(v, ca, x)
        got = None
    except (MCError, DgError) as exc:
        got = (type(exc), str(exc))
    assert got == want
    if want is None or want[0] is MCError and "residual" in want[1]:
        _, res = is_mc(end, end.element(coeffs))
        assert {("E",) + k: c for k, c in x.mc_residual().coeffs.items()} == res.coeffs


# -- the twisted differentials from whole rows of mult ----------------------------


def _twisted_diff_by_labels(a, y, x, labels):
    # _twisted_diff as it was before it read the rows of mult: two mul_dicts per label
    ring, one = a.ring, a.ring.one()
    diff = {}
    for l in labels:
        e = {l: one}
        out = ring.axpy(ring.axpy(dict(a.diff.get(l, {})), 1, a.mul_dicts(y, e)),
                        -ring.sign(a.gm.degree[l]), a.mul_dicts(e, x))
        if out:
            diff[l] = out
    return diff


def _random_mc_pair(rnd, ring, base, degrees):
    """End(V) (x) C*(X) with an MC element x and a gauge transform y = g . x."""
    ca = cochain_algebra(base, ring)
    v = GradedModule(ring, [(("v", i), d) for i, d in enumerate(degrees)])
    end = endomorphism_dga(ca, v)
    x = _oracle_local_system(rnd, base, ring, v, end) if set(degrees) == {0} \
        else gauge_act(end, _oracle_gauge(rnd, ca, v, end), zero_mc(end))
    g = _oracle_gauge(rnd, ca, v, end)
    return end, x, gauge_act(end, g, x), g


def _items(diff):
    return [(l, list(out.items())) for l, out in diff.items()]


@settings(max_examples=100, deadline=None)
@given(ring=st.sampled_from([Z, Q, Ring.GF(5)]),
       base=st.sampled_from(sorted(ORACLE_BASES)),
       degrees=st.lists(st.integers(-1, 1), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32))
def test_twisted_diff_matches_the_per_label_loop(ring, base, degrees, seed):
    end, x, y, _ = _random_mc_pair(random.Random(seed), ring, ORACLE_BASES[base], degrees)
    xc, yc = x.value.coeffs, y.value.coeffs
    for left, right in ((xc, {}), (xc, xc), (yc, xc), (xc, yc), ({}, yc)):
        for labels in (end.gm.labels, end.gm.labels_of_degree(0),
                       end.gm.labels_of_degree(-1)):
            assert _items(_twisted_diff(end, end.left_mult(left), end.right_mult(right),
                                        labels)) == \
                _items(_twisted_diff_by_labels(end, left, right, labels))


def test_bulk_callers_make_no_mul_dicts_calls(monkeypatch):
    from mctwist import dgcore
    end, x, y, g = _random_mc_pair(random.Random(5), Q, circle(3), [0, 1])
    calls = []
    mul_dicts = dgcore.DgAlgebra.mul_dicts
    monkeypatch.setattr(dgcore.DgAlgebra, "mul_dicts",
                        lambda self, u, w: calls.append(1) or mul_dicts(self, u, w))
    assert dgcore.check_dga(end)["ok"]
    assert _twisted_diff(end, y.left_mult, x.right_mult, end.gm.labels)
    ginv = algebra_inverse(end, g)
    assert ginv is not None
    cert = _homotopy_solver(end, x, y)(g)
    assert calls == [] and cert is not None
    assert verify_homotopy_gauge(end, x, y, cert)[0]
    assert verify_homotopy_gauge(end, x, y,
                                 HomotopyGaugeCertificate(g, ginv, end.zero(), end.zero()))[0]
    assert calls  # the certificates are checked by Element products


# -- one differential for every twisted Hom complex ------------------------------

# the references below are the bodies _hom_diff replaced: ConvOp.d_end with
# perturbation.hom_differential, TwistedModule's own term loop, and
# two_sided_twisted's one ConvOp probe per basis element

HOM_BASES = {"S1_3": ORACLE_BASES["S1_3"], "torus7": torus7(), "D2": ORACLE_BASES["D2"]}


def _d_end_reference(f):
    ring, out = f.ring, {}
    for (u, w, al), c in f.coeffs.items():
        sign = ring.sign(f.dst.degree[w] - f.src.degree[u])
        ring.axpy(out, ring.mul(sign, c),
                  {(u, w, r): cr for r, cr in f.algebra.diff.get(al, {}).items()})
    return ConvOp(f.algebra, f.src, f.dst, out)


def _hom_differential_reference(f, x_src, x_dst, degree):
    out = _d_end_reference(f) + x_dst.compose(f)
    return out - f.compose(x_src).scale(f.ring.sign(degree))


def _twisted_module_differential_reference(tw):
    a, v = tw.algebra, tw.v
    ring = a.ring
    gm = GradedModule(ring, [((vl, al), v.degree[vl] + a.gm.degree[al])
                             for vl in v.labels for al in a.gm.labels])
    terms = {}
    for (u, w, cl), c in tw.x.coeffs.items():
        terms.setdefault(u, []).append(
            (w, cl, ring.mul(ring.sign(a.gm.degree[cl] * v.degree[u]), c)))
    diff = {}
    for vl in v.labels:
        sv = ring.sign(v.degree[vl])
        for al in a.gm.labels:
            out = {(vl, rl): ring.mul(sv, c) for rl, c in a.diff.get(al, {}).items()}
            for w, cl, c in terms.get(vl, ()):
                prod = a.mult.get((cl, al))
                if prod:
                    ring.axpy(out, c, {(w, rl): cr for rl, cr in prod.items()})
            if out:
                diff[(vl, al)] = out
    return gm, diff


def _two_sided_reference(base, vleft, vright, y, x):
    ring = vleft.ring
    ca = cochain_algebra(base, ring)
    x_op, y_op = ConvOp.from_mc(x, ca, vright), ConvOp.from_mc(y, ca, vleft)
    basis = [(("m", ur, ul, al), vleft.degree[ul] - vright.degree[ur] + ca.gm.degree[al])
             for ur in vright.labels for ul in vleft.labels for al in ca.gm.labels]
    diff = {}
    for (tag, ur, ul, al), fdeg in basis:
        f = ConvOp(ca, vright, vleft, {(ur, ul, al): 1})
        diff[(tag, ur, ul, al)] = {(tag,) + k: c for k, c in
                                   _hom_differential_reference(f, x_op, y_op, fdeg).coeffs.items()}
    return ground_module(GradedModule(ring, basis), diff, "two-sided twist")


def _hom_twisting(rnd, ca, base, degrees):
    """(V, x in End(V) (x) C*(X)): x = g . x0 as _random_mc_pair builds it, x0 a
    local system on V of degree 0 (none on torus7, whose cocycle condition the
    oracle does not build), and on a graded V the weight-0 twisting d0 (x) 1 of
    a random d0 from one degree of V to the next, so that d0^2 = 0."""
    ring = ca.ring
    v = GradedModule(ring, [(("v", i), d) for i, d in enumerate(degrees)])
    end = endomorphism_dga(ca, v)
    if set(degrees) == {0} and base is not HOM_BASES["torus7"]:
        x0 = _oracle_local_system(rnd, base, ring, v, end)
    else:
        step = rnd.choice(degrees)
        d0 = {(u, w): rnd.randint(-2, 2) for u in v.labels_of_degree(step)
              for w in v.labels_of_degree(step + 1)}
        x0 = MCElement(end, end.element({("E", u, w, al): c * cu for (u, w), c in d0.items()
                                         for al, cu in ca.unit.items()}))
    return v, gauge_act(end, _oracle_gauge(rnd, ca, v, end), x0)


def _hom_keys(ca, v, w):
    return [(u, wl, al) for u in v.labels for wl in w.labels for al in ca.gm.labels]


def _hom_degree(ca, v, w, key):
    u, wl, al = key
    return w.degree[wl] - v.degree[u] + ca.gm.degree[al]


@settings(max_examples=100, deadline=None)
@given(ring=st.sampled_from([Z, Q, Ring.GF(5)]),
       base=st.sampled_from(sorted(HOM_BASES)),
       src_degrees=st.lists(st.integers(-1, 1), min_size=1, max_size=3),
       dst_degrees=st.lists(st.integers(-1, 1), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32))
def test_hom_diff_is_every_twisted_differential_it_replaced(ring, base, src_degrees,
                                                              dst_degrees, seed):
    rnd, space = random.Random(seed), HOM_BASES[base]
    ca = cochain_algebra(space, ring)
    (v, x), (w, y) = (_hom_twisting(rnd, ca, space, d) for d in (src_degrees, dst_degrees))
    assume(not x.value.is_zero() and not y.value.is_zero())
    xs, xd = ConvOp.from_mc(x, ca, v), ConvOp.from_mc(y, ca, w)
    # the table, on every basis element of Hom(V, W) (x) A, key order included
    want = {}
    for key in _hom_keys(ca, v, w):
        f = ConvOp(ca, v, w, {key: 1})
        out = _hom_differential_reference(f, xs, xd, _hom_degree(ca, v, w, key)).coeffs
        if out:
            want[key] = out
    assert _items(_hom_diff(xs, xd, _hom_keys(ca, v, w))) == _items(want)
    # hom_d on a map with terms of several degrees: each degree as the old
    # hom_differential gave it for that degree
    f = ConvOp(ca, v, w, {k: rnd.randint(-2, 2) for k in rnd.sample(_hom_keys(ca, v, w), 6)})
    want = ConvOp(ca, v, w)
    for degree in {_hom_degree(ca, v, w, k) for k in f.coeffs}:
        part = ConvOp(ca, v, w, {k: c for k, c in f.coeffs.items()
                                 if _hom_degree(ca, v, w, k) == degree})
        want = want + _hom_differential_reference(part, xs, xd, degree)
    assert f.hom_d(xs, xd) == want
    # the MC residual, of the twisting and of a degree-1 operator off the MC locus
    bent = xs + ConvOp(ca, v, v, {k: rnd.randint(-2, 2) for k in _hom_keys(ca, v, v)
                                  if _hom_degree(ca, v, v, k) == 1})
    for z in (xs, bent):
        assert z.mc_residual() == _d_end_reference(z) + z.compose(z)
    assert xs.mc_residual().is_zero()
    # the twisted module W (x) A, and the two-sided complex Hom(V, W) (x) A
    tw = TwistedModule(w, ca, xd)
    mod, (ref_gm, ref_diff) = tw.module(), _twisted_module_differential_reference(tw)
    assert mod.gm.basis() == ref_gm.basis() and _items(mod.diff) == _items(ref_diff)
    assert tw.cohomology() == cohomology(complex_of(ring, ref_gm, ref_diff))
    m, ref = two_sided_twisted(space, w, v, y, x), _two_sided_reference(space, w, v, y, x)
    assert m.gm.basis() == ref.gm.basis() and _items(m.diff) == _items(ref.diff)
    assert m.cohomology() == ref.cohomology()


# -- each homotopy-gauge equation once ---------------------------------------------


def test_hom_twist_d_is_the_differential_of_hom_twist():
    # the element-level D_{x,y} and the label-level A^[x,y] agree on every label
    rnd = random.Random(11)
    for ring in (Z, Q, Ring.GF(5)):
        end, x, y, _ = _random_mc_pair(rnd, ring, circle(3), [0, 1])
        for src, dst in ((x, y), (y, x), (x, x)):
            diff = hom_twist(end, src, dst).diff
            for l in end.gm.labels:
                assert hom_twist_d(end, src, dst, end.element(l)).coeffs == diff.get(l, {})


# reference: the per-degree split that once was Element.component, one
# filter of w's terms for each degree in a set of degrees
def _component(w, degree):
    return Element(w.algebra, {l: c for l, c in w.coeffs.items()
                               if w.algebra.gm.degree[l] == degree})


def _degrees(w):
    return {w.algebra.gm.degree[l] for l in w.coeffs}


def _hom_twist_d_by_degree(a, x, y, w):
    out = w.d() + y.value * w
    for deg in _degrees(w):
        out = out - a.ring.sign(deg) * (_component(w, deg) * x.value)
    return out


def _tensor_mc_residual_by_degree(a, k, x_dict):
    """d(X) + X^2 in A (x) K_n*, each Koszul sign read off one degree part."""
    ring, kd = a.ring, k.dga
    out = {}

    def add(label, e):
        out[label] = out.get(label, a.zero()) + e

    for xi, p in x_dict.items():
        add(xi, p.d())
        for deg in _degrees(p):
            for eta, c in kd.diff.get(xi, {}).items():
                add(eta, ring.coerce(ring.sign(deg) * c) * _component(p, deg))
        for eta, q in x_dict.items():
            for deg in _degrees(q):
                sign = ring.sign(kd.gm.degree[xi] * deg)
                for rho, c in kd.mul_labels(xi, eta).items():
                    add(rho, ring.coerce(sign * c) * (p * _component(q, deg)))
    return {l: e.coeffs for l, e in out.items() if not e.is_zero()}


def _inhomogeneous(rnd, a, labels):
    """A random element on two to four of the labels, in at least two degrees."""
    while True:
        terms = rnd.sample(labels, rnd.randint(2, 4))
        if len({a.gm.degree[l] for l in terms}) >= 2:
            return a.element({l: a.ring.coerce(rnd.choice([-2, -1, 1, 2, 3])) for l in terms})


def _degree_split_cases(rnd, ring):
    """(algebra, its labels to draw from, MC elements): k[x]/(x^5) with 0 and
    x, End(V) (x) C*(S^1_3) with a gauge pair, and the lazy universal
    homotopy gauge algebra (degrees -2 to 2) with its x and y."""
    kx = universal_mc_dga(ring, 4)
    end, x, y, _ = _random_mc_pair(rnd, ring, circle(3), [0, 1])
    free = homotopy_gauge_universal_dga(ring)
    return [(kx, list(kx.gm.labels), [zero_mc(kx), MCElement(kx, kx.element(("x", 1)))]),
            (end, list(end.gm.labels), [x, y]),
            (free, _words_up_to_length(free, 2),
             [MCElement(free, free.gen("x")), MCElement(free, free.gen("y"))])]


@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(5)], ids=["Z", "Q", "F5"])
def test_hom_twist_d_splits_w_as_the_per_degree_loop_did(ring):
    rnd = random.Random(23)
    for a, labels, mcs in _degree_split_cases(rnd, ring):
        for x in mcs:
            for y in mcs:
                for _ in range(8):
                    w = _inhomogeneous(rnd, a, labels)
                    assert hom_twist_d(a, x, y, w).coeffs == \
                        _hom_twist_d_by_degree(a, x, y, w).coeffs, (a.name, w)


@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(5)], ids=["Z", "Q", "F5"])
def test_tensor_mc_residual_splits_as_the_per_degree_loop_did(ring):
    rnd = random.Random(29)
    residuals = []
    for n in (1, 2):
        k = build_interval_algebra(n, ring)
        for a, labels, _ in _degree_split_cases(rnd, ring):
            for _ in range(6):
                support = rnd.sample(k.dga.gm.labels, rnd.randint(1, 4))
                x_dict = {xi: _inhomogeneous(rnd, a, labels) for xi in support}
                got = {l: e.coeffs for l, e in tensor_mc_residual(a, k, x_dict).items()}
                assert got == _tensor_mc_residual_by_degree(a, k, x_dict), (a.name, x_dict)
                residuals.append(got)
    assert sum(map(bool, residuals)) > len(residuals) // 2


def test_verify_homotopy_gauge_names_a_witness_off_its_degree():
    # on C*(S^1_3) with x = y = 0, g = 1 + e and h = 1 - e for an edge e,
    # and wx = 1, satisfy the equations (1)-(4): e is closed and e e = 0.
    # Only their degrees refuse them, each by name
    ca = cochain_algebra(circle(3), Q)
    z = zero_mc(ca)
    e = ca.element(ca.gm.labels_of_degree(1)[0])
    trivial = HomotopyGaugeCertificate(ca.one(), ca.one(), ca.zero(), ca.zero())
    assert verify_homotopy_gauge(ca, z, z, trivial) == (True, [])
    cert = HomotopyGaugeCertificate(ca.one() + e, ca.one() - e, ca.one(), ca.zero())
    assert verify_homotopy_gauge(ca, z, z, cert) == \
        (False, ["g is not in A^0", "h is not in A^0", "wx is not in A^-1"])
    cert = HomotopyGaugeCertificate(ca.one(), ca.one(), ca.zero(), e)
    assert verify_homotopy_gauge(ca, z, z, cert) == (False, ["wy is not in A^-1"])


def _k1_end_pair(ring=Z):
    """End(V) (x) K_1* with V = v0 (degree -1), v1 (degree 0), and the pair
    (s + 3t, 3s + t) of test_search_unknown_when_invariants_agree_but_no_unit_found
    times the identity of V: over Z the search runs stage 3 on every trial
    and returns Unknown."""
    k1 = build_interval_algebra(1, ring)
    v = GradedModule(ring, [("v0", -1), ("v1", 0)])
    a = endomorphism_dga(k1.dga, v)
    s, t = k1.word_label("s", 1), k1.word_label("t", 1)
    x, y = (MCElement(a, a.element({("E", u, u, l): c for u in v.labels
                                    for l, c in ((s, cs), (t, ct))}))
            for cs, ct in ((1, 3), (3, 1)))
    return a, x, y


def test_one_search_builds_the_rows_of_x_and_y_once(monkeypatch):
    # the rows x l, l x, y l and l y are read by the invariants, the closed
    # degree-0 maps and each stage-2 and stage-3 trial, and built once
    from mctwist import dgcore
    a, x, y = _k1_end_pair()
    built = []
    for name in ("left_mult", "right_mult"):
        monkeypatch.setattr(dgcore.DgAlgebra, name,
                            lambda self, c, _f=getattr(dgcore.DgAlgebra, name), _n=name:
                            built.append((_n, id(c))) or _f(self, c))
    res = search_homotopy_gauge(a, x, y, seed=5, budget=30)
    assert res.kind == "unknown" and res.report["samples"] == 34
    side = {id(x.value.coeffs): "x", id(y.value.coeffs): "y"}
    assert sorted((n, side[c]) for n, c in built if c in side) == \
        [("left_mult", "x"), ("left_mult", "y"), ("right_mult", "x"), ("right_mult", "y")]


def test_a_stage_three_search_builds_the_blocks_without_g_once(monkeypatch):
    # condition (2) on A^0 and d^x, d^y on A^-1 hold no g: three
    # _twisted_diff calls per search, whatever its number of trials.  K_1*
    # has no label of degree -1, so its search builds none
    from mctwist import mc
    calls = []
    twisted_diff = mc._twisted_diff
    monkeypatch.setattr(mc, "_twisted_diff", lambda a, y_l, l_x, labels:
                        calls.append(list(labels)) or twisted_diff(a, y_l, l_x, labels))
    k1 = build_interval_algebra(1, Z)
    s, t = k1.word_label("s", 1), k1.word_label("t", 1)
    k1_pair = (k1.dga, *(MCElement(k1.dga, k1.dga.element({s: cs, t: ct}))
                         for cs, ct in ((1, 3), (3, 1))))
    for (a, x, y), budget, samples in ((_k1_end_pair(), 30, 34), (_k1_end_pair(), 4, 8),
                                       (k1_pair, 30, 29)):
        calls.clear()
        res = search_homotopy_gauge(a, x, y, seed=5, budget=budget)
        assert res.kind == "unknown" and res.report["samples"] == samples
        blocks = [labels for labels in calls if labels != list(a.gm.labels)]
        degm1 = list(a.gm.labels_of_degree(-1))
        assert blocks == ([list(a.gm.labels_of_degree(0))] + [degm1] * 2 if degm1 else [])


def test_z_inverse_and_stage_three_solve_take_no_smith_form(monkeypatch):
    # with V in degree 0 both systems have independent columns, so the
    # elimination answers them; the kernel of closed_degree_zero still reads
    # the Smith form's V
    from mctwist import exactlinalg
    from mctwist.mc import closed_degree_zero
    end, x, y, g = _random_mc_pair(random.Random(5), Z, circle(3), [0, 0])
    seen = []
    snf = exactlinalg.smith_normal_form
    monkeypatch.setattr(exactlinalg, "smith_normal_form", lambda m: seen.append(m) or snf(m))
    ginv = algebra_inverse(end, g)
    assert ginv is not None and (g * ginv).coeffs == end.unit
    cert = _homotopy_solver(end, x, y)(g)
    assert cert is not None and verify_homotopy_gauge(end, x, y, cert)[0]
    assert seen == []
    assert closed_degree_zero(end, x, y)[0]
    assert len(seen) == 1


def test_one_solver_answers_each_g_as_a_fresh_one():
    # the blocks built once are not changed by the trials that read them
    from mctwist.mc import closed_degree_zero
    rnd = random.Random(19)
    for ring in (Z, Q):
        end, x, y, g = _random_mc_pair(rnd, ring, circle(3), [0, 1])
        trials = [g] + [Element(end, c) for c in closed_degree_zero(end, x, y)[0]] + [g]
        solve = _homotopy_solver(end, x, y)
        answers = [solve(t) for t in trials]
        assert answers == [_homotopy_solver(end, x, y)(t) for t in trials]
        assert answers[0] is not None and None in answers


def _eager_search(a, x, y, budget, seed):
    """search_homotopy_gauge as it was: every trial built before the first
    is tried, and the sample bound read off the last doubling."""
    from mctwist import mc
    from mctwist.mc import SearchResult, closed_degree_zero
    rng = random.Random(seed)
    inv_x, inv_y = twist_invariants(a, x), twist_invariants(a, y)
    invariants = {"x": inv_x, "y": inv_y}
    for key in ("module_twist", "algebra_twist"):
        if inv_x[key] != inv_y[key]:
            return SearchResult("distinguished", invariants=invariants,
                                report={"differs": key})
    candidates, deg0 = closed_degree_zero(a, x, y)
    report = {"closed_degree0_dim": len(candidates), "samples": 0, "sample_bound": 1}
    if not candidates:
        return SearchResult("unknown", invariants=invariants, report=report)

    def combine(bound):
        out = {}
        for cand in candidates:
            c = rng.randint(-bound, bound)
            if c:
                a.ring.axpy(out, c, cand)
        return Element(a, out)

    trials = [Element(a, cand) for cand in candidates]
    bound = 1
    while len(trials) < len(candidates) + budget:
        trials.append(combine(bound))
        if len(trials) % (len(candidates) + 1) == 0:
            bound *= 2
    report["sample_bound"] = bound
    for g in trials:
        if g.is_zero():
            continue
        report["samples"] += 1
        ginv = mc.algebra_inverse(a, g)
        if ginv is None:
            continue
        cert = HomotopyGaugeCertificate(g, ginv, a.zero(), a.zero())
        if verify_homotopy_gauge(a, x, y, cert)[0]:
            return SearchResult("equivalent", certificate=cert, gauge=g,
                                invariants=invariants, report=report)
    if a.gm.labels_of_degree(-1):  # without A^-1, stage 3 cannot decide
        solve = mc._homotopy_solver(a, x, y)
        for g in trials:
            if g.is_zero():
                continue
            cert = solve(g)
            if cert is not None and verify_homotopy_gauge(a, x, y, cert)[0]:
                return SearchResult("equivalent", certificate=cert,
                                    invariants=invariants, report=report)
    if a.ring.is_field:
        space = 2 * report["sample_bound"] + 1
        report["schwartz_zippel"] = {
            "det_degree_bound": len(deg0),
            "sample_space": space,
            "failure_probability_bound": "%d/%d" % (len(deg0), space),
        }
    return SearchResult("unknown", invariants=invariants, report=report)


def _search_pairs(ring):
    """(End(V) (x) C*(S^1_3), x, y) for the local systems of rank 1 and 2
    that move one edge by a matrix of the list, every pair of them once."""
    base = circle(3)
    ca = cochain_algebra(base, ring)
    out = []
    for rank, mats in ((1, [[[1]], [[-1]], [[2]], [[3]]]),
                       (2, [[[1, 1], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]],
                            [[2, 0], [0, 1]]])):
        v = GradedModule(ring, [(("v", i), 0) for i in range(rank)])
        end = endomorphism_dga(ca, v)
        mcs = []
        for rows in mats:
            m = ExactMatrix.from_rows(ring, rows)
            if is_invertible(m):
                mcs.append(rep_to_mc(LocalSystem(base, v, {(0, 1): m}), end_dga=end))
        out += [(end, x, y) for i, x in enumerate(mcs) for y in mcs[i:]]
    return out


def _result_items(res):
    coeffs = lambda e: None if e is None else list(e.coeffs.items())
    cert = res.certificate
    return (res.kind, list(res.report.items()), coeffs(res.gauge),
            None if cert is None else [coeffs(w) for w in (cert.g, cert.h, cert.wx, cert.wy)],
            res.invariants)


@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(5)], ids=["Z", "Q", "F5"])
def test_lazy_trials_give_the_eager_search_result(ring, monkeypatch):
    # every budget on every pair, but one long search per ring that ends
    # "unknown" with candidates: those try all 1,024 trials twice.  Each
    # run records the trials stage 2 inverts and stage 3 solves, in order.
    from mctwist import mc
    tried, inverse, solver = [], mc.algebra_inverse, mc._homotopy_solver

    def recording_solver(a, x, y):
        solve = solver(a, x, y)
        return lambda g: tried.append((3, list(g.coeffs.items()))) or solve(g)

    monkeypatch.setattr(mc, "algebra_inverse", lambda a, g: tried.append(
        (2, list(g.coeffs.items()))) or inverse(a, g))
    monkeypatch.setattr(mc, "_homotopy_solver", recording_solver)
    kinds, long_unknown, stage_three = set(), 0, False
    # the pairs whose A has a label of degree -1 are the only ones that reach stage 3
    pairs = _search_pairs(ring) + [_stage_three_pair(ring, p)[:3] for p in sorted(STAGE_THREE)] \
        + [_k1_end_pair(ring)]
    for k, (end, x, y) in enumerate(pairs):
        slow = False
        for budget in (-1, 0, 1, 10, 1024):
            if budget == 1024 and slow:
                long_unknown += 1
                if long_unknown > 1:
                    continue
            want = _eager_search(end, x, y, budget, seed=k)
            want_tried = tried[:]
            tried.clear()
            got = search_homotopy_gauge(end, x, y, budget=budget, seed=k)
            assert _result_items(got) == _result_items(want), (k, budget)
            assert tried == want_tried, (k, budget)
            tried.clear()
            dim = want.report.get("closed_degree0_dim")
            kinds.add((want.kind, dim))
            slow = want.kind == "unknown" and dim > 0
            stage_three = stage_three or any(stage == 3 for stage, _ in want_tried)
            if dim:
                n = dim + max(budget, 0)
                assert got.report["sample_bound"] == 2 ** (n // (dim + 1))
    assert long_unknown and stage_three
    assert {("distinguished", None), ("equivalent", 1), ("equivalent", 2),
            ("unknown", 1)} <= kinds
    assert ring.is_field <= (("unknown", 0) in kinds)
