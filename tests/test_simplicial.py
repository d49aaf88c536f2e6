import random
from fractions import Fraction

import pytest

from mctwist.dgcore import GradedModule, check_dga, tensor_dga
from mctwist.exactlinalg import ExactMatrix, Ring
from mctwist.mc import MCElement, hom_twist, is_mc, zero_mc
from mctwist.simplicial import (
    FiniteSimplicialSet,
    LocalSystem,
    SimplicialError,
    boundary_simplex,
    circle,
    cochain_algebra,
    ez_algebra_map,
    from_ordered_complex,
    interval_groupoid,
    is_dga_map,
    local_system_cohomology,
    mc_to_rep,
    nerve,
    one_arrow_category,
    point,
    product,
    pullback_local_system,
    rep_to_mc,
    simplex,
    torus7,
    trivial_category,
    two_sided_twisted,
)

Z, Q, F7 = Ring.Z(), Ring.Q(), Ring.GF(7)


def test_ordered_complex_counts():
    d2 = simplex(2)
    assert d2.f_vector() == (3, 3, 1)
    assert circle(3).f_vector() == (3, 3)
    t = torus7()
    assert t.f_vector() == (7, 21, 14)
    assert t.euler_characteristic() == 0
    assert not t.check_simplicial_identities()


def test_ordered_complex_rejects_bad_input():
    with pytest.raises(SimplicialError):
        from_ordered_complex([0, 1], [(1, 0)])
    with pytest.raises(SimplicialError):
        from_ordered_complex([0, 1], [(0, 0)])


def test_nerve_of_interval_groupoid_two_cells_per_dimension():
    k = nerve(interval_groupoid(), cap=4)
    assert [len(k.nondegenerate(d)) for d in range(5)] == [2, 2, 2, 2, 2]
    assert not k.check_simplicial_identities()


def test_nerve_of_one_arrow_category_is_interval_shape():
    k = nerve(one_arrow_category(), cap=4)
    assert [len(k.nondegenerate(d)) for d in range(3)] == [2, 1, 0]


def test_nerve_of_trivial_category_is_a_point():
    k = nerve(trivial_category(), cap=3)
    assert k.f_vector() == (1,)


def test_cochains_of_point_is_ground_ring():
    ca = cochain_algebra(point(), Q)
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
    with_pt = product(c3, point())
    assert with_pt.f_vector() == c3.f_vector()
    sq = product(simplex(1), simplex(1))
    assert sq.f_vector() == (4, 5, 2)
    assert not sq.check_simplicial_identities()
    assert sq.euler_characteristic() == 1


def test_product_torus_from_circles():
    t = product(circle(3), circle(3))
    assert t.euler_characteristic() == 0
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
    assert xy.euler_characteristic() == 1
    assert not xy.check_simplicial_identities()
    cx, cy, cxy = (cochain_algebra(s, Z) for s in (x, y, xy))
    assert check_dga(cxy)["ok"]
    f = ez_algebra_map(x, y, cx, cy, cxy)
    assert is_dga_map(f, cxy, tensor_dga(cx, cy))


def test_product_with_dimension_cap_is_the_skeleton():
    sq = product(simplex(1), simplex(1), cap=1)
    assert sq.f_vector() == (4, 5)
    assert not sq.check_simplicial_identities()


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
            assert chi == 1 * t.euler_characteristic()
    # rank-2 block systems double the multiplier (euler 0 stays 0, so also
    # check a circle where euler is 0 too but betti numbers move)
    c = circle(4)
    v2 = GradedModule(f7, [("a", 0), ("b", 0)])
    mono = {(0, 1): ExactMatrix.from_rows(f7, [[3, 0], [0, 5]])}
    rep = local_system_cohomology(LocalSystem(c, v2, mono))
    chi = sum((-1) ** d * rep.rank(d) for d in rep.degrees())
    assert chi == 2 * c.euler_characteristic()


# ---------------------------------------------------------------------------
# cochain algebras from face tables, against the per-(rho, p) pullback loop
# ---------------------------------------------------------------------------


def _reference_cochain_algebra(sset, ring, max_degree=None):
    """(mult, diff, unit) from one pullback per front and back face."""
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
            boundary_simplex(2), boundary_simplex(3),
            torus7(), point(), _grid_torus(3, 4), product(circle(3), circle(3)),
            product(simplex(2), simplex(1)), product(simplex(1), simplex(1), cap=1),
            nerve(interval_groupoid(), cap=3), nerve(one_arrow_category(), cap=2),
            nerve(trivial_category(), cap=3), fold_last, fold_first, fold_point,
            product(fold_last, simplex(1)), product(fold_first, nerve(one_arrow_category(), 1)),
            product(nerve(interval_groupoid(), cap=2), simplex(1), cap=3)]
    from mctwist.interval import build_interval_algebra
    sets += [build_interval_algebra(n, Z).sset for n in range(4)]
    return sets


def _reference_functor_condition_failures(ls):
    # the 2-simplices whose edges 01, 12 and 02, found by pullback, break
    # F(01) F(12) = F(02)
    m = lambda tau, e: ls.edge_matrix(ls.base.pullback(tau, e))
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
        assert not sset.check_simplicial_identities(), sset
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
