import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mctwist.dgcore import GradedModule, check_dga, tensor_dga
from mctwist.exactlinalg import ExactMatrix, Ring
from mctwist.mc import MCElement, hom_twist, is_mc, zero_mc
from mctwist.simplicial import (
    FiniteCategory,
    FiniteSimplicialSet,
    LocalSystem,
    SimplicialError,
    _edge_twisting,
    _lattice_paths,
    boundary_simplex,
    circle,
    cochain_algebra,
    compose_maps,
    delta,
    ez_algebra_map,
    from_ordered_complex,
    identity_map,
    interval_groupoid,
    is_dga_map,
    local_system_cohomology,
    mc_to_rep,
    nerve,
    one_arrow_category,
    product,
    pullback_local_system,
    rep_to_mc,
    simplex,
    torus7,
    two_sided_twisted,
)

Z, Q, F7 = Ring.Z(), Ring.Q(), Ring.GF(7)


def _euler_characteristic(sset) -> int:
    return sum((-1) ** d * len(ls) for d, ls in sset.simplices.items())


def _check_simplicial_identities(sset):
    """d_i d_j = d_{j-1} d_i for i < j, on normalized representatives."""
    bad = []
    for label, n in sset.dim_of.items():
        if n < 2:
            continue
        state = (label, identity_map(n))
        for j in range(n + 1):
            for i in range(j):
                a = sset.face(sset.face(state, j), i)
                b = sset.face(sset.face(state, i), j - 1)
                if a != b:
                    bad.append((label, i, j, a, b))
    return bad


def _trivial_category() -> FiniteCategory:
    return FiniteCategory(["O"], {"id": ("O", "O")}, {"O": "id"}, {})


def test_ordered_complex_counts():
    d2 = simplex(2)
    assert d2.f_vector() == (3, 3, 1)
    assert circle(3).f_vector() == (3, 3)
    t = torus7()
    assert t.f_vector() == (7, 21, 14)
    assert _euler_characteristic(t) == 0
    assert not _check_simplicial_identities(t)
    assert repr(d2) == "FiniteSimplicialSet(Delta^2, f=(3, 3, 1))"
    assert repr(FiniteSimplicialSet()) == "FiniteSimplicialSet(?, f=())"


def test_ordered_complex_rejects_bad_input():
    with pytest.raises(SimplicialError):
        from_ordered_complex([0, 1], [(1, 0)])
    with pytest.raises(SimplicialError):
        from_ordered_complex([0, 1], [(0, 0)])


def test_nerve_of_interval_groupoid_two_cells_per_dimension():
    k = nerve(interval_groupoid(), cap=4)
    assert [len(k.nondegenerate(d)) for d in range(5)] == [2, 2, 2, 2, 2]
    assert not _check_simplicial_identities(k)


def test_nerve_of_one_arrow_category_is_interval_shape():
    k = nerve(one_arrow_category(), cap=4)
    assert [len(k.nondegenerate(d)) for d in range(3)] == [2, 1, 0]


def test_nerve_of_trivial_category_is_a_point():
    k = nerve(_trivial_category(), cap=3)
    assert k.f_vector() == (1,)


def test_cochains_of_point_is_ground_ring():
    ca = cochain_algebra(from_ordered_complex(["*"], []), Q)
    assert ca.gm.dim == 1
    assert check_dga(ca)["ok"]


def test_cochains_of_interval_leibniz():
    ca = cochain_algebra(simplex(1), Z)
    assert check_dga(ca)["ok"]
    # two vertex idempotents and one degree-1 class
    assert len(ca.gm.labels_of_degree(0)) == 2
    assert len(ca.gm.labels_of_degree(1)) == 1
    for v in simplex(1).nondegenerate(0):
        sq = ca.mul_labels(v, v)
        assert sq == {v: 1}


def test_structural_suite_small():
    for ring in (Z, Q, Ring.GF(2), Ring.GF(5)):
        for ss in (simplex(3), boundary_simplex(3), circle(4), circle(5)):
            assert check_dga(cochain_algebra(ss, ring))["ok"]


def test_cohomology_of_models():
    assert cochain_algebra(boundary_simplex(3), Z).cohomology().entries == {
        0: (1, ()), 2: (1, ())}
    assert cochain_algebra(torus7(), Z).cohomology().entries == {
        0: (1, ()), 1: (2, ()), 2: (1, ())}


def test_product_with_point_and_square():
    c3 = circle(3)
    with_pt = product(c3, from_ordered_complex(["*"], []))
    assert with_pt.f_vector() == c3.f_vector()
    sq = product(simplex(1), simplex(1))
    assert sq.f_vector() == (4, 5, 2)
    assert not _check_simplicial_identities(sq)
    assert _euler_characteristic(sq) == 1


def test_product_torus_from_circles():
    t = product(circle(3), circle(3))
    assert _euler_characteristic(t) == 0
    assert cochain_algebra(t, Q).cohomology().entries == {
        0: (1, ()), 1: (2, ()), 2: (1, ())}


def test_ez_is_a_dga_map_on_interval_times_interval():
    x = simplex(1)
    k1 = nerve(interval_groupoid(), cap=1)
    for y in (simplex(1), k1):
        xy = product(x, y)
        cx = cochain_algebra(x, Z)
        cy = cochain_algebra(y, Z)
        cxy = cochain_algebra(xy, Z)
        t = tensor_dga(cx, cy)
        f = ez_algebra_map(x, y, cx, cy, cxy)
        assert is_dga_map(f, cxy, t)


def test_ez_is_a_dga_map_on_circle_times_interval():
    x = circle(3)
    y = simplex(1)
    xy = product(x, y)
    cx, cy, cxy = cochain_algebra(x, Z), cochain_algebra(y, Z), cochain_algebra(xy, Z)
    f = ez_algebra_map(x, y, cx, cy, cxy)
    assert is_dga_map(f, cxy, tensor_dga(cx, cy))


def _sign_system(ring=Z, k=3, edge=(0, 1)):
    base = circle(k)
    v = GradedModule(ring, [("v", 0)])
    return LocalSystem(base, v, {edge: ExactMatrix.from_rows(ring, [[-1]])})


def test_rep_to_mc_sign_value():
    ls = _sign_system()
    x = rep_to_mc(ls)
    # Psi(F)(edge) = F - 1 = -2 on the flipped edge
    assert x.value.coeffs == {("E", "v", "v", (0, 1)): -2}


def test_rank_two_unipotent_monodromy_is_mc():
    base = circle(3)
    v = GradedModule(Z, [("v0", 0), ("v1", 0)])
    ls = LocalSystem(base, v, {(0, 1): ExactMatrix.from_rows(Z, [[1, 1], [0, 1]])})
    x = rep_to_mc(ls)
    ok, _ = is_mc(x.algebra, x.value)
    assert ok


def test_phi_psi_roundtrip_random():
    rng = random.Random(99)
    base_tri = simplex(2)
    for ring in (Q, F7):
        for _ in range(20):
            n = rng.choice([1, 2])
            v = GradedModule(ring, [("v%d" % i, 0) for i in range(n)])
            mono = {}
            # on the triangle the functor condition ties the three edges
            m01 = _random_invertible(rng, ring, n)
            m12 = _random_invertible(rng, ring, n)
            mono[(0, 1)] = m01
            mono[(1, 2)] = m12
            mono[(0, 2)] = m01 * m12
            ls = LocalSystem(base_tri, v, mono)
            x = rep_to_mc(ls)
            back = mc_to_rep(x, base_tri, v)
            assert all(back.monodromy[e] == ls.monodromy[e] for e in ls.monodromy)
            again = rep_to_mc(back)
            assert again.value.coeffs == x.value.coeffs


def _random_invertible(rng, ring, n):
    from mctwist.simplicial import solve_invertibility
    while True:
        m = ExactMatrix.from_rows(
            ring, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if solve_invertibility(m) is not None:
            return m



def _two_branch_inverse(m):
    # the earlier body of solve_invertibility, kept as a reference: U m V = I
    # gives m^-1 = V U over Z, and rref([m | I]) = [I | m^-1] over a field
    from mctwist.exactlinalg import rref, smith_normal_form
    if m.rows != m.cols:
        return None
    ring, n = m.ring, m.rows
    eye = ExactMatrix.identity(ring, n)
    if ring.is_field:
        cols = [{} for _ in range(n)] + [{i: ring.one()} for i in range(n)]
        for (i, j), v in m.nonzero_items():
            cols[j][i] = v
        r, pivots = rref(ExactMatrix.from_columns(ring, cols, range(n)))
        if pivots != list(range(n)):
            return None
        inv = ExactMatrix.from_columns(ring, [{i: r.get(i, n + j) for i in range(n)}
                                              for j in range(n)], range(n))
    else:
        u, d, v = smith_normal_form(m)
        if d != eye:
            return None
        inv = v * u
    if inv * m != eye or m * inv != eye:
        return None
    return inv


@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(2), F7], ids=lambda r: r.name)
def test_solve_invertibility_matches_the_two_branch_reference(ring):
    from mctwist.simplicial import solve_invertibility
    rng = random.Random(20261018)
    found = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(0, 5)
        # unit lower times unit upper triangular: invertible over every ring
        lo = [[int(i == j) or (rng.randint(-3, 3) if j < i else 0) for j in range(n)]
              for i in range(n)]
        up = [[int(i == j) or (rng.randint(-3, 3) if j > i else 0) for j in range(n)]
              for i in range(n)]
        rows = [[sum(lo[i][k] * up[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        kind = rng.random()
        if n > 1 and kind < 0.3:  # a repeated row: singular over every ring
            rows[0] = list(rows[-1])
        elif kind < 0.6:  # random small entries: often singular over Z only
            rows = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(n)]
        if ring == Q and n:
            rows[0] = [Fraction(x, 3) for x in rows[0]]
        m = ExactMatrix.from_rows(ring, rows)
        inv = solve_invertibility(m)
        assert inv == _two_branch_inverse(m)
        found[inv is not None] += 1
    assert min(found.values()) > 30, found
    assert solve_invertibility(ExactMatrix.zeros(ring, 2, 3)) is None


def _per_edge_identities(ls):
    # the monodromy table as LocalSystem built it before its edges without a
    # matrix shared one identity: a fresh identity on each of them
    return {e: ExactMatrix.identity(ls.ring, ls.v.dim) if m is ls.identity else m
            for e, m in ls.monodromy.items()}


def _edge_twisting_reference(ls):
    # _edge_twisting's own loop before io shared its reader of F(e) - 1, on
    # every edge of the per-edge table; it kept the zero entries
    ring, labels = ls.ring, ls.v.labels
    coeffs = {}
    for e, m in _per_edge_identities(ls).items():
        for ui, u in enumerate(labels):
            for wi, w in enumerate(labels):
                c = m.get(wi, ui)
                coeffs[(u, w, e)] = ring.sub(c, ring.one()) if u == w else c
    return coeffs


@pytest.mark.parametrize("ring", [Z, Q, F7], ids=lambda r: r.name)
def test_edge_twisting_is_the_old_edge_loop_without_its_zeros(ring):
    rng = random.Random(20261020)
    cases = 0
    for trial in range(30):
        n = rng.choice([1, 2, 3])
        v = GradedModule(ring, [(("v", l), 0) for l in rng.sample(range(9), n)])
        if trial % 3:  # the circle has no 2-simplex to tie its edges
            base = circle(rng.choice([3, 4]))
            edges = rng.sample(list(base.nondegenerate(1)), rng.randint(0, 3))
            mono = {e: _random_invertible(rng, ring, n) if rng.random() < 0.7
                    else ExactMatrix.identity(ring, n) for e in edges}
        else:
            base = simplex(2)
            m01, m12 = (_random_invertible(rng, ring, n) for _ in range(2))
            mono = {(0, 1): m01, (1, 2): m12, (0, 2): m01 * m12}
        ls = LocalSystem(base, v, mono)
        want = [(k, c, type(c)) for k, c in _edge_twisting_reference(ls).items() if c != 0]
        assert [(k, c, type(c)) for k, c in _edge_twisting(ls).items()] == want
        cases += bool(want)
    assert cases > 15


def test_mc_to_rep_error_branch():
    base = circle(3)
    v = GradedModule(Z, [("v", 0)])
    from mctwist.dgcore import endomorphism_dga
    end = endomorphism_dga(cochain_algebra(base, Z), v)
    # 1 + f = 0 on one edge: still MC (no 2-simplices) but not a local system
    x = MCElement(end, end.element({("E", "v", "v", (0, 1)): -1}))
    with pytest.raises(SimplicialError, match="not invertible"):
        mc_to_rep(x, base, v)


def test_mc_to_rep_inverts_each_given_edge_once(monkeypatch):
    # only the edge carrying an f is checked for an inverse, once (8 calls
    # for 4 edges when every edge, identities included, was inverted twice)
    from mctwist import simplicial
    from mctwist.dgcore import endomorphism_dga
    calls = []
    invertible = simplicial.is_invertible
    monkeypatch.setattr(simplicial, "is_invertible",
                        lambda m: calls.append(m) or invertible(m))
    base = circle(4)
    v = GradedModule(Z, [("a", 0), ("b", 0)])
    end = endomorphism_dga(cochain_algebra(base, Z), v)
    edge = base.nondegenerate(1)[0]
    # 1 + f is the rotation a -> b, b -> -a
    f = {("a", "a"): -1, ("a", "b"): 1, ("b", "a"): -1, ("b", "b"): -1}
    x = MCElement(end, end.element({("E", u, w, edge): c for (u, w), c in f.items()}))
    ls = mc_to_rep(x, base, v)
    assert len(calls) == 1
    rotation = ExactMatrix.from_rows(Z, [[0, -1], [1, 0]])
    assert calls[0] == rotation
    assert ls.monodromy == {e: rotation if e == edge else ExactMatrix.identity(Z, 2)
                            for e in base.nondegenerate(1)}


def test_local_system_cohomology_fixtures():
    sign = _sign_system()
    assert local_system_cohomology(sign).entries == {1: (0, (2,))}
    triv = LocalSystem(circle(3), GradedModule(Z, [("v", 0)]), {})
    assert local_system_cohomology(triv).entries == {0: (1, ()), 1: (1, ())}
    triv_d2 = LocalSystem(simplex(2), GradedModule(Z, [("v", 0)]), {})
    assert local_system_cohomology(triv_d2).entries == {0: (1, ())}


def test_homotopy_invariance_between_circle_models():
    # transport the sign system along the vertex collapse circle4 -> circle3
    sign3 = _sign_system()
    collapse = {0: 0, 1: 1, 2: 2, 3: 2}
    sign4 = pullback_local_system(sign3, collapse, circle(4))
    assert local_system_cohomology(sign4) == local_system_cohomology(sign3)
    triv3 = LocalSystem(circle(3), GradedModule(Z, [("v", 0)]), {})
    triv4 = pullback_local_system(triv3, collapse, circle(4))
    assert local_system_cohomology(triv4) == local_system_cohomology(triv3)


def test_functor_condition_failure_reported():
    base = simplex(2)
    v = GradedModule(Z, [("v", 0)])
    mono = {(0, 1): ExactMatrix.from_rows(Z, [[-1]])}
    ls = LocalSystem(base, v, mono)  # other edges default to identity
    bad = ls.functor_condition_failures()
    assert bad == [(0, 1, 2)]
    with pytest.raises(SimplicialError, match="functor condition"):
        rep_to_mc(ls)


def test_two_sided_with_zero_twists_is_plain_cochains():
    base = circle(3)
    v1 = GradedModule(Z, [("a", 0)])
    m = two_sided_twisted(base, v1, v1, zero_mc_end(base, v1), zero_mc_end(base, v1))
    ca = cochain_algebra(base, Z)
    rep = m.cohomology()
    assert rep == ca.cohomology()


def zero_mc_end(base, v, ring=Z):
    from mctwist.dgcore import endomorphism_dga
    end = endomorphism_dga(cochain_algebra(base, ring), v)
    return zero_mc(end)


def test_two_sided_specializes_to_one_sided_right_twist():
    base = circle(3)
    ring = Z
    v1 = GradedModule(ring, [("a", 0)])
    sign = _sign_system()
    x = rep_to_mc(sign)
    m = two_sided_twisted(base, v1, sign.v, zero_mc_end(base, v1), x)
    # independent model: d^{[x,0]}(a) = d(a) - (-1)^{|a|} a x in C*(circle)
    ca = cochain_algebra(base, ring)
    xa = MCElement(ca, ca.element({(0, 1): -2}))
    tw = hom_twist(ca, xa, zero_mc(ca))
    strip = lambda diff: {l[3]: {r[3]: c for r, c in out.items()}
                          for l, out in diff.items()}
    assert strip(m.diff) == tw.diff


def test_two_sided_sign_conjugation_invariants():
    base = circle(3)
    sign = _sign_system()
    x = rep_to_mc(sign)
    m = two_sided_twisted(base, sign.v, sign.v, x, x)
    rep = m.cohomology()
    # End(V) with conjugation monodromy: scalars commute, so H^0 = Z
    assert rep.rank(0) == 1


def test_twisted_system_d_squares_iff_mc():
    base = circle(3)
    v = GradedModule(Q, [("v0", 0), ("v1", 0)])
    from mctwist.dgcore import endomorphism_dga
    ca = cochain_algebra(base, Q)
    end = endomorphism_dga(ca, v)
    coeffs = {("v0", "v1", (0, 1)): 1, ("v0", "v0", (1, 2)): 1}
    ok, _ = is_mc(end, end.element({("E",) + k: c for k, c in coeffs.items()}))
    if not ok:
        from mctwist.mc import ConvOp, TwistedModule, MCError
        with pytest.raises(MCError, match="not Maurer-Cartan"):
            TwistedModule(v, ca, ConvOp(ca, v, v, coeffs))


def test_two_sided_differential_matches_local_coefficient_display():
    # (D f)(tau) = Y(tau01) f(d0 tau) + sum_{0<i<n} (-1)^i f(d_i tau)
    #            + (-1)^n f(d_n tau) X(tau_{n-1,n})  with X = x+1, Y = y+1,
    # checked coefficientwise on the 2-simplex for scalar systems
    base = simplex(2)
    v = GradedModule(Q, [("v", 0)])
    ym = {(0, 1): 3, (1, 2): 5, (0, 2): 15}   # functor condition: 3 * 5
    xm = {(0, 1): 2, (1, 2): 7, (0, 2): 14}
    lsy = LocalSystem(base, v, {e: ExactMatrix.from_rows(Q, [[c]])
                                for e, c in ym.items()})
    lsx = LocalSystem(base, v, {e: ExactMatrix.from_rows(Q, [[c]])
                                for e, c in xm.items()})
    m = two_sided_twisted(base, v, v, rep_to_mc(lsy), rep_to_mc(lsx))
    tau = (0, 1, 2)
    for e0 in base.nondegenerate(1):
        out = m.diff.get(("m", "v", "v", e0), {})
        got = out.get(("m", "v", "v", tau), 0)
        want = ym[(0, 1)] * (1 if e0 == (1, 2) else 0) \
            - (1 if e0 == (0, 2) else 0) \
            + (1 if e0 == (0, 1) else 0) * xm[(1, 2)]
        assert got == want, (e0, got, want)


TWO_SIDED_AND_LOCAL_SYSTEM = """
import json, sys
from mctwist.dgcore import GradedModule
from mctwist.exactlinalg import ExactMatrix, Ring
from mctwist.simplicial import (LocalSystem, circle, local_system_cohomology, rep_to_mc,
                                two_sided_twisted)
Z = Ring.Z()
v = GradedModule(Z, [("v", 0)])
ls = LocalSystem(circle(3), v, {(0, 1): ExactMatrix.from_rows(Z, [[-1]])})
x = rep_to_mc(ls)
rep = two_sided_twisted(ls.base, v, v, x, x).cohomology()
print(json.dumps([rep.rank(0), local_system_cohomology(ls).torsion(1),
                  sorted(m for m in sys.modules if m.startswith("mctwist"))]))
"""


def test_two_sided_and_local_system_complexes_do_not_import_perturbation():
    # a fresh interpreter: both complexes take their differential from mc alone
    import json
    import os
    import subprocess
    import sys

    import mctwist
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mctwist.__file__)))
    proc = subprocess.run([sys.executable, "-c", TWO_SIDED_AND_LOCAL_SYSTEM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    h0, torsion, loaded = json.loads(proc.stdout)
    assert (h0, torsion) == (1, [2])
    assert "mctwist.mc" in loaded and "mctwist.perturbation" not in loaded, loaded


def test_pullback_inverts_reversed_edges():
    # the vertex map 0 -> 2, 1 -> 1, 2 -> 0 on the 3-circle reverses (0, 1)
    # onto (1, 2) and (1, 2) onto (0, 1); transported monodromies invert
    base = circle(3)
    v = GradedModule(Q, [("v", 0)])
    from fractions import Fraction
    ls = LocalSystem(base, v, {(0, 1): ExactMatrix.from_rows(Q, [[3]]),
                               (1, 2): ExactMatrix.from_rows(Q, [[5]]),
                               (0, 2): ExactMatrix.from_rows(Q, [[7]])})
    back = pullback_local_system(ls, {0: 2, 1: 1, 2: 0}, base)
    assert back.monodromy[(0, 1)].get(0, 0) == Fraction(1, 5)
    assert back.monodromy[(1, 2)].get(0, 0) == Fraction(1, 3)
    assert back.monodromy[(0, 2)].get(0, 0) == Fraction(1, 7)


def test_ez_on_triangle_times_interval():
    x, y = simplex(2), simplex(1)
    xy = product(x, y)
    assert _euler_characteristic(xy) == 1
    assert not _check_simplicial_identities(xy)
    cx, cy, cxy = (cochain_algebra(s, Z) for s in (x, y, xy))
    assert check_dga(cxy)["ok"]
    f = ez_algebra_map(x, y, cx, cy, cxy)
    assert is_dga_map(f, cxy, tensor_dga(cx, cy))


def test_product_with_dimension_cap_is_the_skeleton():
    sq = product(simplex(1), simplex(1), cap=1)
    assert sq.f_vector() == (4, 5)
    assert not _check_simplicial_identities(sq)


def test_two_sided_with_graded_left_module():
    # exercises the Koszul signs for a graded hom target; the square-zero
    # check runs at construction
    base = circle(3)
    vl = GradedModule(Z, [("p", 0), ("q", 1)])
    vr = GradedModule(Z, [("v", 0)])
    sign = _sign_system()
    x = rep_to_mc(sign)
    m = two_sided_twisted(base, vl, vr, zero_mc_end(base, vl), x)
    rep = m.cohomology()
    # Hom(V_r, V_l) = V_l as a graded module: two shifted copies of the
    # one-sided sign complex
    one_sided = local_system_cohomology(sign)
    assert rep.torsion(1) == one_sided.torsion(1)
    assert rep.torsion(2) == one_sided.torsion(1)


def test_cochain_algebra_truncation_is_the_skeleton_algebra():
    t = torus7()
    sk1 = cochain_algebra(t, Z, max_degree=1)
    assert check_dga(sk1)["ok"]
    rep = sk1.cohomology()
    # the 1-skeleton of the 7-vertex torus is the complete graph K_7:
    # H^1 has rank 21 - 7 + 1 = 15
    assert rep.rank(0) == 1 and rep.rank(1) == 15


def test_nerve_requires_closed_composition():
    from mctwist.simplicial import FiniteCategory
    cat = FiniteCategory(
        objects=["A", "B", "C"],
        arrows={"ia": ("A", "A"), "ib": ("B", "B"), "ic": ("C", "C"),
                "f": ("A", "B"), "g": ("B", "C")},
        identities={"A": "ia", "B": "ib", "C": "ic"},
        comp={},  # g o f missing
    )
    with pytest.raises(SimplicialError, match="incomplete"):
        nerve(cat, cap=2)


def test_twisted_euler_characteristic_on_the_torus():
    # for any local system of rank r over a field,
    # sum (-1)^i dim H^i = r * euler(X); nontrivial systems on the torus are
    # built by exponentiating integer 1-cocycles into F7^x, which satisfies
    # the functor condition automatically
    from mctwist.exactlinalg import kernel_basis
    from mctwist.dgcore import complex_of
    t = torus7()
    f7 = Ring.GF(7)
    ca_z = cochain_algebra(t, Z)
    spec = ca_z.complex()
    d1 = spec.d(1)
    edges = list(ca_z.gm.labels_of_degree(1))
    cocycles = kernel_basis(d1)
    assert cocycles
    v = GradedModule(f7, [("v", 0)])
    for gen in (3, 5):
        for vec in cocycles[:3]:
            mono = {}
            for idx, e in enumerate(edges):
                mono[e] = ExactMatrix.from_rows(f7, [[pow(gen, vec[idx] % 6, 7)]])
            ls = LocalSystem(t, v, mono)
            assert not ls.functor_condition_failures()
            rep = local_system_cohomology(ls)
            chi = sum((-1) ** d * rep.rank(d) for d in rep.degrees())
            assert chi == 1 * _euler_characteristic(t)
    # rank-2 block systems double the multiplier (euler 0 stays 0, so also
    # check a circle where euler is 0 too but betti numbers move)
    c = circle(4)
    v2 = GradedModule(f7, [("a", 0), ("b", 0)])
    mono = {(0, 1): ExactMatrix.from_rows(f7, [[3, 0], [0, 5]])}
    rep = local_system_cohomology(LocalSystem(c, v2, mono))
    chi = sum((-1) ** d * rep.rank(d) for d in rep.degrees())
    assert chi == 2 * _euler_characteristic(c)


# ---------------------------------------------------------------------------
# cochain algebras from face tables, against the per-(rho, p) pullback loop
# ---------------------------------------------------------------------------


def _reference_cochain_algebra(sset, ring, max_degree=None):
    """(mult, diff, unit) from one pullback per front and back face, and the
    coboundary from one ``Ring.axpy`` per face."""
    from mctwist.dgcore import DgAlgebra
    from mctwist.simplicial import identity_map
    top = sset.dimension if max_degree is None else min(max_degree, sset.dimension)
    labels = [l for d in range(top + 1) for l in sset.nondegenerate(d)]
    gm = GradedModule(ring, [(l, sset.dim_of[l]) for l in labels])
    unit = {l: 1 for l in sset.nondegenerate(0)}
    diff = {}
    for d in range(1, top + 1):
        for tau in sset.nondegenerate(d):
            for i in range(d + 1):
                src, surj = sset.faces[(tau, i)]
                if surj == identity_map(sset.dim_of[src]):
                    Z.axpy(diff.setdefault(src, {}), (-1) ** i, {tau: 1})
    mult = {}
    for rho in labels:
        n = sset.dim_of[rho]
        for p in range(n + 1):
            front, fs = sset.pullback(rho, tuple(range(p + 1)))
            if fs != identity_map(p):
                continue
            back, bs = sset.pullback(rho, tuple(range(p, n + 1)))
            if bs != identity_map(n - p):
                continue
            row = mult.setdefault((front, back), {})
            row[rho] = row.get(rho, 0) + 1
    return DgAlgebra(gm, unit, mult, diff)


def _folded_simplex(n, face, fold):
    """Delta^n with ``face`` folded by the idempotent vertex map ``fold``
    (the pushout along a degeneracy), so that some simplices get degenerate
    first or last faces."""
    from itertools import combinations
    from mctwist.simplicial import FiniteSimplicialSet

    def normal_form(s):
        if set(s) <= set(face):
            image = tuple(fold.get(v, v) for v in s)
            t = tuple(sorted(set(image)))
            return t, tuple(t.index(v) for v in image)
        return s, tuple(range(len(s)))

    sset = FiniteSimplicialSet("fold%d" % n)
    for k in range(n + 1):
        for s in combinations(range(n + 1), k + 1):
            if normal_form(s)[0] == s:
                sset.add_simplex(s, k, [normal_form(s[:i] + s[i + 1:])
                                        for i in range(k + 1)] if k else None)
    return sset


def _grid_torus(n, m):
    """The n x m grid torus as an ordered complex, two triangles per square."""
    def v(i, j):
        return (i % n) * m + j % m
    tris = set()
    for i in range(n):
        for j in range(m):
            tris.add(tuple(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1)))))
            tris.add(tuple(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1)))))
    return from_ordered_complex(list(range(n * m)), sorted(tris), name="T%dx%d" % (n, m))


def _table_test_sets():
    fold_last = _folded_simplex(3, (0, 1, 2), {1: 2})    # d_3 (0123) = s_1 (02)
    fold_first = _folded_simplex(3, (1, 2, 3), {2: 1})   # d_0 (0123) = s_1 (13)
    fold_point = _folded_simplex(2, (0, 1), {1: 0})      # d_2 (012) = s_0 (0)
    sets = [circle(3), circle(4), circle(5), simplex(0), simplex(1), simplex(2), simplex(3),
            boundary_simplex(2), boundary_simplex(3), torus7(), from_ordered_complex(["*"], []),
            _grid_torus(3, 4), product(circle(3), circle(3)),
            product(simplex(2), simplex(1)), product(simplex(1), simplex(1), cap=1),
            nerve(interval_groupoid(), cap=3), nerve(one_arrow_category(), cap=2),
            nerve(_trivial_category(), cap=3), fold_last, fold_first, fold_point,
            product(fold_last, simplex(1)), product(fold_first, nerve(one_arrow_category(), 1)),
            product(nerve(interval_groupoid(), cap=2), simplex(1), cap=3)]
    from mctwist.interval import build_interval_algebra
    sets += [build_interval_algebra(n, Z).sset for n in range(4)]
    return sets


def _reference_functor_condition_failures(ls):
    # the 2-simplices whose edges 01, 12 and 02, found by pullback, break
    # F(01) F(12) = F(02), each product taken in full; an edge that is
    # degenerate in the base reads a fresh identity, the others the per-edge table
    from mctwist.simplicial import identity_map
    table = _per_edge_identities(ls)

    def m(tau, e):
        label, surj = ls.base.pullback(tau, e)
        if surj != identity_map(ls.base.dim_of[label]):
            return ExactMatrix.identity(ls.ring, ls.v.dim)
        return table[label]
    return [tau for tau in ls.base.nondegenerate(2)
            if m(tau, (0, 1)) * m(tau, (1, 2)) != m(tau, (0, 2))]


def test_functor_condition_reads_the_edges_of_each_triangle_from_its_faces(monkeypatch):
    # signs on every edge, so that many 2-simplices fail and some pass; the
    # folded sets and nerves have 2-simplices with a degenerate edge
    rnd = random.Random(5)
    v = GradedModule(Z, [("v", 0)])
    systems = []
    for sset in _table_test_sets():
        for _ in range(3):
            mono = {e: ExactMatrix.from_rows(Z, [[rnd.choice((1, -1))]])
                    for e in sset.nondegenerate(1)}
            systems.append(LocalSystem(sset, v, mono))
    want = [_reference_functor_condition_failures(ls) for ls in systems]
    assert sum(map(len, want)) > 20
    assert any(not w and ls.base.nondegenerate(2) for w, ls in zip(want, systems))

    def no_pullback(*args):
        raise AssertionError("pullback called")

    monkeypatch.setattr(FiniteSimplicialSet, "pullback", no_pullback)
    assert [ls.functor_condition_failures() for ls in systems] == want


def test_a_face_whose_degeneracy_word_is_not_monotone_is_refused():
    sset = FiniteSimplicialSet()
    sset.add_simplex(0, 0)
    sset.add_simplex(1, 0)
    sset.add_simplex("e", 1, [1, 0])
    with pytest.raises(SimplicialError, match="bad degeneracy word on face 0"):
        sset.add_simplex("t", 2, [("e", (1, 0)), "e", "e"])
    sset.add_simplex("u", 2, [("e", (0, 1)), "e", "e"])


def _edge_set():
    sset = FiniteSimplicialSet()
    sset.add_simplex(0, 0)
    sset.add_simplex(1, 0)
    sset.add_simplex("e", 1, [1, 0])
    return sset


@pytest.mark.parametrize("faces, message", [
    (["e", "e"], "need 3 faces"),
    (["e", "x", "e"], "face 'x' of 't' not yet added"),
    (["e", "t", "e"], "face 't' of 't' not yet added"),
    ([("e", (1, 0)), "e", "e"], "bad degeneracy word on face 0"),
    (["e", "e", ("e", (0, 0))], "bad degeneracy word on face 2"),
])
def test_a_refused_add_leaves_no_trace_and_a_valid_retry_succeeds(faces, message):
    tables = lambda s: (list(s.dim_of.items()), s.simplices, list(s.faces.items()))
    sset, clean = _edge_set(), _edge_set()
    with pytest.raises(SimplicialError, match=message):
        sset.add_simplex("t", 2, faces)
    assert tables(sset) == tables(clean)
    for s in (sset, clean):
        s.add_simplex("t", 2, [("e", (0, 1)), "e", "e"])
    assert tables(sset) == tables(clean)


def _tables(a):
    return (list(a.mult.items()), [(k, list(v.items())) for k, v in a.diff.items()],
            list(a.unit.items()))


@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(5)], ids=["Z", "Q", "F5"])
def test_cochain_algebra_equals_the_pullback_loop_in_key_order(ring):
    sets = _table_test_sets()
    assert sum(1 for s in sets for (l, i), (t, surj) in s.faces.items()
               if i in (0, s.dim_of[l]) and len(set(surj)) < len(surj)) > 0
    for sset in sets:
        assert not _check_simplicial_identities(sset), sset
        for top in (None, 0, 1, 2):
            new = cochain_algebra(sset, ring, max_degree=top)
            ref = _reference_cochain_algebra(sset, ring, max_degree=top)
            assert new.gm.basis() == ref.gm.basis()
            assert _tables(new) == _tables(ref), (sset, top)


def _count_pullbacks(monkeypatch, build):
    from mctwist.simplicial import FiniteSimplicialSet
    calls = []
    real = FiniteSimplicialSet.pullback

    def counted(self, label, mono):
        calls.append(label)
        return real(self, label, mono)

    monkeypatch.setattr(FiniteSimplicialSet, "pullback", counted)
    build()
    monkeypatch.setattr(FiniteSimplicialSet, "pullback", real)
    return len(calls)


def test_cochain_algebra_pulls_back_only_along_degenerate_first_and_last_faces(monkeypatch):
    t = _grid_torus(3, 4)
    assert _count_pullbacks(monkeypatch, lambda: cochain_algebra(t, Z)) == 0
    # the nerve's degenerate faces are inner ones
    k3 = nerve(interval_groupoid(), cap=3)
    assert _count_pullbacks(monkeypatch, lambda: cochain_algebra(k3, Z)) == 0 < \
        _count_pullbacks(monkeypatch, lambda: _reference_cochain_algebra(k3, Z))
    for sset in (_folded_simplex(3, (0, 1, 2), {1: 2}), _folded_simplex(3, (1, 2, 3), {2: 1}),
                 product(_folded_simplex(3, (0, 1, 2), {1: 2}), simplex(1))):
        new = _count_pullbacks(monkeypatch, lambda: cochain_algebra(sset, Z))
        ref = _count_pullbacks(monkeypatch, lambda: _reference_cochain_algebra(sset, Z))
        assert 0 < new < ref


def test_pullback_orders_image_edges_by_the_target_vertex_order():
    # the target lists its vertices 5, 3, 1: its edge (5, 3) runs against
    # the order of the vertex values
    target = from_ordered_complex([5, 3, 1], [(5, 3), (3, 1), (5, 1)])
    v = GradedModule(Z, [("v", 0)])
    ls = LocalSystem(target, v, {(5, 3): ExactMatrix.from_rows(Z, [[-1]]),
                                 (5, 1): ExactMatrix.from_rows(Z, [[-1]])})
    assert not ls.functor_condition_failures()
    edge = simplex(1)
    along = pullback_local_system(ls, {0: 5, 1: 3}, edge)
    assert along.monodromy[(0, 1)] == ExactMatrix.from_rows(Z, [[-1]])
    q = GradedModule(Q, [("v", 0)])
    ls = LocalSystem(target, q, {(5, 3): ExactMatrix.from_rows(Q, [[3]]),
                                 (5, 1): ExactMatrix.from_rows(Q, [[3]])})
    assert pullback_local_system(ls, {0: 5, 1: 3}, edge).monodromy[(0, 1)] == \
        ExactMatrix.from_rows(Q, [[3]])
    assert pullback_local_system(ls, {0: 3, 1: 5}, edge).monodromy[(0, 1)] == \
        ExactMatrix.from_rows(Q, [[Fraction(1, 3)]])
    with pytest.raises(SimplicialError, match="missing in target"):
        pullback_local_system(ls, {0: 5, 1: 7}, edge)


def _pullback_handing_the_identity_on(ls, vertex_map, source):
    """pullback_local_system as it was: an image edge that carries the
    target's shared identity hands that matrix on, inverted if reversed."""
    from mctwist.simplicial import solve_invertibility
    position = {l[0]: i for i, l in enumerate(ls.base.nondegenerate(0))}
    monodromy = {}
    for a, b in source.nondegenerate(1):
        ia, ib = vertex_map[a], vertex_map[b]
        if ia == ib:
            continue
        image = tuple(sorted((ia, ib), key=lambda v: position.get(v, -1)))
        m = ls.monodromy[image]
        monodromy[(a, b)] = m if (ia, ib) == image else solve_invertibility(m)
    return LocalSystem(source, ls.v, monodromy)


def test_pullback_checks_only_the_edges_that_carry_monodromy(monkeypatch):
    from mctwist import exactlinalg
    base = circle(8)
    ls = LocalSystem(base, GradedModule(Z, [("v", 0)]), {(0, 1): ExactMatrix.from_rows(Z, [[-1]])})
    factored = []
    invariant_factors = exactlinalg.invariant_factors
    monkeypatch.setattr(exactlinalg, "invariant_factors",
                        lambda m: factored.append(m) or invariant_factors(m))
    back = pullback_local_system(ls, {v: v for v in range(8)}, base)
    # one is_invertible, for the one edge with monodromy; the other seven
    # edges are left out and carry the new system's own identity
    assert len(factored) == 1
    assert [e for e, m in back.monodromy.items() if m is not back.identity] == [(0, 1)]
    assert local_system_cohomology(back) == local_system_cohomology(ls)


def test_pullback_agrees_with_handing_the_identity_on():
    # 2x2 unimodular systems on Delta^3, where every vertex map is simplicial:
    # flat ones from a vertex gauge g (M(a, b) = g_a g_b^-1) and random ones,
    # an edge left out wherever its matrix would be the identity
    rng = random.Random(39)
    gens = [ExactMatrix.from_rows(Z, rows) for rows in
            ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [-2, 1]])]
    target, v = simplex(3), GradedModule(Z, [("v", 0), ("w", 0)])
    sources = [circle(8), torus7(), simplex(3), boundary_simplex(3)]
    from mctwist.simplicial import solve_invertibility
    failing = flat = 0
    for trial in range(24):
        if trial % 2:
            g = {a: rng.randrange(4) for a in range(4)}
            mono = {(a, b): gens[g[a]] * solve_invertibility(gens[g[b]])
                    for a, b in target.nondegenerate(1) if g[a] != g[b]}
        else:
            mono = {e: gens[i] for e in target.nondegenerate(1) if (i := rng.randrange(4))}
        ls = LocalSystem(target, v, mono)
        source = sources[trial % len(sources)]
        vertex_map = {l: rng.randrange(4) for (l,) in source.nondegenerate(0)}
        back = pullback_local_system(ls, vertex_map, source)
        ref = _pullback_handing_the_identity_on(ls, vertex_map, source)
        assert back.monodromy == ref.monodromy
        assert back.functor_condition_failures() == ref.functor_condition_failures()
        if back.functor_condition_failures():
            failing += 1
        else:
            flat += 1
            assert local_system_cohomology(back) == local_system_cohomology(ref)
    assert failing >= 5 and flat >= 12, (failing, flat)


def test_finite_category_compose_reads_its_table_after_two_shortcuts():
    cat = interval_groupoid()
    with pytest.raises(SimplicialError, match="arrows 'u', 'u' not composable"):
        cat.compose("u", "u")
    assert cat.compose("u", "id1") == "u"  # f an identity
    assert cat.compose("id2", "u") == "u"  # g an identity
    assert cat.compose("ui", "u") == "id1" and cat.compose("u", "ui") == "id2"
    chain = FiniteCategory(["A", "B", "C"], {"1A": ("A", "A"), "1B": ("B", "B"),
                                            "1C": ("C", "C"), "f": ("A", "B"), "g": ("B", "C")},
                           {"A": "1A", "B": "1B", "C": "1C"}, {})
    with pytest.raises(SimplicialError, match=r"composition table incomplete at \('g', 'f'\)"):
        chain.compose("g", "f")


def _add_simplex_complex(vertices, simplices, name=""):
    """from_ordered_complex as it was: the same input checks and sorted
    closure, each face then entered through add_simplex's checks."""
    import itertools
    order = {v: i for i, v in enumerate(vertices)}
    if len(order) != len(vertices):
        raise SimplicialError("duplicate vertices")
    closure = set()
    for s in simplices:
        s = tuple(s)
        if len(set(s)) != len(s):
            raise SimplicialError("simplex %r has repeated vertices" % (s,))
        if any(order[s[i]] >= order[s[i + 1]] for i in range(len(s) - 1)):
            raise SimplicialError("simplex %r is not ascending" % (s,))
        for k in range(1, len(s) + 1):
            for sub in itertools.combinations(s, k):
                closure.add(sub)
    for v in vertices:
        closure.add((v,))
    sset = FiniteSimplicialSet(name)
    for s in sorted(closure, key=lambda t: (len(t), tuple(order[v] for v in t))):
        dim = len(s) - 1
        faces = [s[:i] + s[i + 1:] for i in range(len(s))] if dim > 0 else None
        sset.add_simplex(s, dim, faces)
    return sset


def _spaces():
    """perfbench/spaces.py, which builds its complexes without mctwist."""
    import importlib.util
    import sys
    from pathlib import Path
    if "perfbench_spaces" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "spaces.py"
        spec = importlib.util.spec_from_file_location("perfbench_spaces", path)
        sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["perfbench_spaces"]


def _ordered_complexes():
    """(vertices, simplices) of circles, simplices, boundaries, grid tori up
    to 6 x 6, the 7-vertex torus, RP^2, the Klein bottle and seeded random
    complexes, with vertex orders that are not the label order."""
    from itertools import combinations
    rnd = random.Random(26)
    cases = [(list(range(k)), [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)])
             for k in (3, 4, 7)]
    cases += [(list(range(n + 1)), [tuple(range(n + 1))]) for n in range(5)]
    cases += [(list(range(n + 1)), list(combinations(range(n + 1), n))) for n in (2, 3, 4)]
    cases += [(["*"], []), (["b", "a"], [("b", "a")]), ([5, 3, 1], [(5, 3), (3, 1), (5, 1)])]
    for n, m in ((3, 3), (3, 4), (4, 5), (5, 6), (6, 6)):
        t = _grid_torus(n, m)
        cases.append((list(range(n * m)), [l for l in t.nondegenerate(2)]))
    cases.append((list(range(7)), torus7().nondegenerate(2)))
    spaces = _spaces()
    for build, sizes in ((spaces.rp2, ((3, 3), (3, 4))), (spaces.klein, ((3, 3), (4, 4))),
                         (spaces.torus, ((3, 3), (6, 6))), (spaces.circle, ((3,), (8,)))):
        for size in sizes:
            space = build(*size, rnd)
            relabel = dict(zip(space.vertices, space.labels))
            cases.append((space.labels, [tuple(relabel[v] for v in s) for s in space.simplices]))
    for _ in range(40):
        n = rnd.randint(1, 8)
        vertices = rnd.sample(range(100), n) if rnd.random() < 0.5 else \
            ["v%d" % i for i in rnd.sample(range(100), n)]
        position = {v: i for i, v in enumerate(vertices)}
        simplices = [tuple(sorted(rnd.sample(vertices, rnd.randint(1, min(n, 4))),
                                  key=position.get))
                     for _ in range(rnd.randint(0, 6))]
        cases.append((vertices, simplices))
    return cases


def _state(sset):
    return (sset.name, list(sset.dim_of.items()), list(sset.simplices.items()),
            list(sset.faces.items()))


def test_from_ordered_complex_enters_the_state_of_the_add_simplex_loop():
    for vertices, simplices in _ordered_complexes():
        new = from_ordered_complex(vertices, simplices, name="X")
        assert _state(new) == _state(_add_simplex_complex(vertices, simplices, name="X")), \
            (vertices, simplices)
        assert not _check_simplicial_identities(new)


def _add_simplex_nerve(cat, cap, name=""):
    """nerve as it was: each simplex entered through add_simplex's checks."""
    sset = FiniteSimplicialSet(name or "nerve")
    for o in cat.objects:
        sset.add_simplex(("@", o), 0)

    def normal_form(string):
        kept = [f for f in string if not cat.is_identity(f)]
        surj = [0]
        for f in reversed(string):
            surj.append(surj[-1] + (0 if cat.is_identity(f) else 1))
        label = ("@", cat.source(string[-1])) if not kept else ("#",) + tuple(kept)
        return label, tuple(surj)

    strings = {1: [("#", f) for f in cat.arrows if not cat.is_identity(f)]}
    for f in strings[1]:
        sset.add_simplex(f, 1, [("@", cat.target(f[1])), ("@", cat.source(f[1]))])
    for n in range(2, cap + 1):
        strings[n] = [("#",) + prev[1:] + (f,) for prev in strings[n - 1] for f in cat.arrows
                      if not cat.is_identity(f) and cat.target(f) == cat.source(prev[-1])]
        for s in strings[n]:
            chain, faces = s[1:], []
            for i in range(n + 1):
                if i in (0, n):
                    raw = chain[:-1] if i == 0 else chain[1:]
                else:
                    k = n - i
                    raw = chain[:k - 1] + (cat.compose(chain[k - 1], chain[k]),) + chain[k + 1:]
                faces.append(normal_form(raw))
            sset.add_simplex(s, n, faces)
    return sset


def _add_simplex_product(x, y, cap=None, name=""):
    """product as it was: each simplex entered through add_simplex's checks."""
    cap = x.dimension + y.dimension if cap is None else cap
    out = FiniteSimplicialSet(name or "%sx%s" % (x.name, y.name))

    def joint_normal(sx, sy):
        (lx, mx), (ly, my) = sx, sy
        kept = [0] + [i for i in range(1, len(mx)) if (mx[i], my[i]) != (mx[i - 1], my[i - 1])]
        z = [sum(1 for k in kept if k <= i) - 1 for i in range(len(mx))]
        return (lx, tuple(mx[i] for i in kept), ly, tuple(my[i] for i in kept)), tuple(z)

    by_dim = {}
    for px in range(x.dimension + 1):
        for lx in x.nondegenerate(px):
            for py in range(y.dimension + 1):
                for ly in y.nondegenerate(py):
                    if max(px, py) <= cap:
                        for alpha, beta in _lattice_paths(px, py):
                            if len(alpha) - 1 <= cap:
                                by_dim.setdefault(len(alpha) - 1, []).append(
                                    (lx, alpha, ly, beta))
    for n in sorted(by_dim):
        for label in by_dim[n]:
            lx, alpha, ly, beta = label
            faces = [joint_normal(x.pullback(lx, compose_maps(alpha, delta(i, n))),
                                  y.pullback(ly, compose_maps(beta, delta(i, n))))
                     for i in range(n + 1)] if n else None
            out.add_simplex(label, n, faces)
    return out


def _small_categories():
    # a composite that is no identity, Z/2 and an idempotent, beside the named ones
    chain = FiniteCategory(["A", "B", "C"], {"1A": ("A", "A"), "1B": ("B", "B"),
                                            "1C": ("C", "C"), "f": ("A", "B"),
                                            "g": ("B", "C"), "gf": ("A", "C")},
                           {"A": "1A", "B": "1B", "C": "1C"}, {("g", "f"): "gf"})
    z2 = FiniteCategory(["O"], {"1": ("O", "O"), "t": ("O", "O")}, {"O": "1"},
                        {("t", "t"): "1"})
    idem = FiniteCategory(["O"], {"1": ("O", "O"), "e": ("O", "O")}, {"O": "1"},
                          {("e", "e"): "e"})
    return [interval_groupoid(), one_arrow_category(), _trivial_category(), chain, z2, idem]


def test_product_and_nerve_enter_the_state_of_the_add_simplex_loop():
    for cat in _small_categories():
        for cap in range(5):
            assert _state(nerve(cat, cap)) == _state(_add_simplex_nerve(cat, cap))
    k2 = nerve(interval_groupoid(), cap=2)
    pairs = [(circle(3), circle(4), None), (circle(8), circle(8), None),
             (simplex(2), simplex(2), None), (simplex(2), simplex(1), 2),
             (torus7(), circle(3), None), (product(circle(3), circle(3)), circle(3), None),
             (k2, simplex(1), 3), (nerve(_small_categories()[4], 3), circle(3), None)]
    for x, y, cap in pairs:
        assert _state(product(x, y, cap=cap)) == _state(_add_simplex_product(x, y, cap=cap))


@pytest.mark.parametrize("vertices, simplices", [
    ([0, 1, 0], [(0, 1)]),            # duplicate vertices
    ([0, 1, 1.0], []),                # a duplicate by equality
    ([0, 1], [(0, 0)]),               # repeated
    ([0, 1, 2], [(0, 1, 1)]),
    ([0, 1], [(0, 7)]),               # unknown
    ([0, 1], [(7,)]),
    ([0, 1], [(7, 0)]),
    ([0, 1], [(1, 0)]),               # not ascending
    ([2, 1, 0], [(0, 1, 2)]),
    ([0, 1, 2], [(0, 2, 1)]),
])
def test_from_ordered_complex_refuses_what_the_add_simplex_loop_refused(vertices, simplices):
    with pytest.raises(Exception) as want:
        _add_simplex_complex(vertices, simplices)
    with pytest.raises(Exception) as got:
        from_ordered_complex(vertices, simplices)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_tuple_vertex_labels_are_not_read_as_degeneracy_words():
    # add_simplex reads a face (t, w) with t a label and w a tuple as the
    # degeneracy s*t; the edge ((0,), (0, 0)) of this triangle has that shape
    tri = ((0,), (0, 0), 5)
    s = from_ordered_complex([0, (0,), (0, 0), 5], [tri])
    assert [s.faces[(tri, i)] for i in range(3)] == \
        [(((0, 0), 5), (0, 1)), (((0,), 5), (0, 1)), (((0,), (0, 0)), (0, 1))]
    assert not _check_simplicial_identities(s)


# ---------------------------------------------------------------------------
# local systems with one shared identity, against the per-edge references
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _system_bases():
    """Ordered complexes, nerves to dimension 3 and the face-table test sets.
    The loops of Z/2 and of an idempotent have equal faces, which cancel in
    the coboundary; the nerves and folded simplices have degenerate faces."""
    return {"complex": [from_ordered_complex(v, s) for v, s in _ordered_complexes()],
            "nerve": [nerve(cat, cap) for cat in _small_categories() for cap in (1, 2, 3)],
            "table": _table_test_sets()}


def _monodromy(rnd, sset, ring, n, kind):
    from mctwist.simplicial import solve_invertibility
    edges = sset.nondegenerate(1)
    if kind == "none":
        return {}
    if kind == "some":  # a few edges: the functor condition fails on most triangles
        return {e: _random_invertible(rnd, ring, n)
                for e in rnd.sample(edges, min(len(edges), rnd.randint(1, 3)))}
    if kind == "identities":  # written out, as a file may hold them
        return {e: ExactMatrix.identity(ring, n)
                for e in rnd.sample(edges, rnd.randint(0, len(edges)))}
    if kind == "signs":  # diagonal signs on every edge: some triangles fail
        return {e: ExactMatrix.from_rows(ring, [[rnd.choice((1, -1)) if i == j else 0
                                                 for j in range(n)] for i in range(n)])
                for e in edges}
    # F(e) = g(v0) g(v1)^-1 with v0 = d_1 e, v1 = d_0 e holds on every
    # triangle; g is the identity at some vertices
    g = {u: _random_invertible(rnd, ring, n) if rnd.random() < 0.5
         else ExactMatrix.identity(ring, n) for u in sset.nondegenerate(0)}
    return {e: g[sset.faces[(e, 1)][0]] * solve_invertibility(g[sset.faces[(e, 0)][0]])
            for e in edges}


@settings(max_examples=300)
@given(ring=st.sampled_from([Z, Q, Ring.GF(5)]),
       family=st.sampled_from(["complex", "nerve", "table"]), base=st.integers(0, 10 ** 6),
       rank=st.integers(1, 2),
       kind=st.sampled_from(["none", "some", "identities", "signs", "gauge"]),
       seed=st.integers(0, 2 ** 32))
def test_a_shared_identity_gives_what_per_edge_identities_gave(ring, family, base, rank, kind,
                                                              seed):
    from mctwist.mc import ConvOp, TwistedModule
    sets = _system_bases()[family]
    sset = sets[base % len(sets)]
    v = GradedModule(ring, [(("v", i), 0) for i in range(rank)])
    given = _monodromy(random.Random(seed), sset, ring, rank, kind)
    ls = LocalSystem(sset, v, given)
    # the edges without a matrix and the degenerate edges read one identity
    assert all((m is ls.identity) == (e not in given) for e, m in ls.monodromy.items())
    assert all(ls.edge_matrix((u, (0, 0))) is ls.identity for u in sset.nondegenerate(0))
    bad = ls.functor_condition_failures()
    assert bad == _reference_functor_condition_failures(ls)
    ca, ref_ca = cochain_algebra(sset, ring), _reference_cochain_algebra(sset, ring)
    assert ca.gm.basis() == ref_ca.gm.basis() and _tables(ca) == _tables(ref_ca)
    if bad:
        with pytest.raises(SimplicialError, match="functor condition fails"):
            _edge_twisting(ls)
        return
    want = {k: c for k, c in _edge_twisting_reference(ls).items() if c != 0}
    assert [(k, c, type(c)) for k, c in _edge_twisting(ls).items()] == \
        [(k, c, type(c)) for k, c in want.items()]
    ref = TwistedModule(v, ref_ca, ConvOp(ref_ca, v, v, want))
    assert local_system_cohomology(ls) == ref.cohomology()
