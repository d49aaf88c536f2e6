import itertools
import random
from fractions import Fraction

import pytest

from mctwist.dgcore import GradedModule, endomorphism_dga
from mctwist.exactlinalg import (ExactMatrix, Ring, kernel_basis, rank, solve_equations,
                                  solve_linear, solve_many)
from mctwist.mc import MCElement, TwistedModule, gauge_act, zero_mc
from mctwist.perturbation import (
    ConvOp,
    HodgeData,
    PerturbationError,
    ReducedTwistedModule,
    _invert_weight_zero,
    check_hodge,
    hodge_data,
    is_minimal,
    is_reduced,
    lift_to_free_resolution,
    minimal_iso_check,
    minimal_model,
    reduced_component,
    truncate_twisted,
)
from mctwist.simplicial import (
    LocalSystem,
    circle,
    cochain_algebra,
    local_system_cohomology,
    simplex,
    solve_invertibility,
    torus7,
)

Z, Q, F5 = Ring.Z(), Ring.Q(), Ring.GF(5)


# -- Hodge data -------------------------------------------------------------


def test_hodge_zero_differential():
    v = GradedModule(Q, [("a", 0), ("b", 1)])
    h = hodge_data(v, {})
    assert h.s == {}
    assert h.t == {("a", "a"): 1, ("b", "b"): 1}
    assert check_hodge(v, {}, h)


def test_hodge_acyclic_two_dimensional():
    v = GradedModule(Q, [("a", 0), ("b", 1)])
    d0 = {("a", "b"): 1}
    h = hodge_data(v, d0)
    assert check_hodge(v, d0, h)
    assert h.t == {}
    assert h.s == {("b", "a"): 1}


def test_hodge_random_six_dimensional():
    rng = random.Random(55)
    for trial in range(8):
        labels = [("v%d" % i, rng.choice([-1, 0, 1, 2])) for i in range(6)]
        gm = GradedModule(F5, labels)
        pairs = []
        used = set()
        for i, (l, d) in enumerate(labels):
            for j, (l2, d2) in enumerate(labels):
                if i != j and i not in used and j not in used and d2 == d + 1:
                    used.update((i, j))
                    pairs.append((l, l2))
                    break
        d0 = {p: rng.randint(1, 4) for p in pairs}
        h = hodge_data(gm, d0)
        assert check_hodge(gm, d0, h), trial


def test_hodge_needs_a_field():
    v = GradedModule(Z, [("a", 0)])
    with pytest.raises(PerturbationError, match="field"):
        hodge_data(v, {})


# The greedy choices of hodge_data and of its projection p as they were made
# before one rref per degree replaced them: one rank per candidate vector,
# one solve per unit vector and per label.  The rref reads off the same
# vectors and the same (unique) coordinates, so every output must agree
# exactly, order and value types included.


def _ref_hodge_data(v, d0_entries):
    ring = v.ring
    labels = list(v.labels)
    ix = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    cols = [{} for _ in range(n)]
    for (u, w), c in d0_entries.items():
        cols[ix[u]][ix[w]] = ring.coerce(c)
    d0 = ExactMatrix.from_columns(ring, cols, range(n))

    def block(deg):
        src = list(v.labels_of_degree(deg))
        dst = list(v.labels_of_degree(deg + 1))
        m = ExactMatrix(ring, len(dst), len(src),
                        [[d0.get(ix[w], ix[u]) for u in src] for w in dst])
        return m, src, dst

    s_mat, t_mat, harmonic_basis = {}, {}, []
    for deg in v.degrees():
        bmat, src, dst = block(deg)
        prev, psrc, pdst = block(deg - 1)
        nloc = len(src)
        im_vectors, pre, cur = [], [], []
        for j in range(prev.cols):
            col = [prev.get(i, j) for i in range(prev.rows)]
            if any(c != 0 for c in col) and rank(
                    ExactMatrix(ring, len(cur) + 1, nloc, cur + [col])) > len(cur):
                cur = cur + [col]
                im_vectors.append(col)
                pre.append(psrc[j])
        harmonic = []
        span = list(im_vectors)
        for vec in kernel_basis(bmat):
            if rank(ExactMatrix(ring, len(span) + 1, nloc, span + [vec])) > len(span):
                span = span + [list(vec)]
                harmonic.append(list(vec))
        basis_cols = [list(h) for h in harmonic] + [list(c) for c in im_vectors]
        complement = []
        span = list(basis_cols)
        for j in range(nloc):
            e = [ring.one() if i == j else ring.zero() for i in range(nloc)]
            if rank(ExactMatrix(ring, len(span) + 1, nloc, span + [e])) > len(span):
                span = span + [e]
                complement.append(e)
        full = basis_cols + complement
        if nloc:
            mat = ExactMatrix(ring, nloc, nloc,
                              [[full[c][r] for c in range(nloc)] for r in range(nloc)])
        nh, ni = len(harmonic), len(im_vectors)
        for j, l in enumerate(src):
            e = [ring.one() if i == j else ring.zero() for i in range(nloc)]
            coords = solve_linear(mat, e)[0]
            for k in range(nh):
                ring.axpy(t_mat, coords[k], {(l, w): c for w, c in zip(src, harmonic[k])})
            s_mat.update(((l, pre[k]), c) for k, c in enumerate(coords[nh:nh + ni]) if c != 0)
        for k, vec in enumerate(harmonic):
            full_vec = [ring.zero()] * n
            for i, c in enumerate(vec):
                full_vec[ix[src[i]]] = c
            harmonic_basis.append((("h", deg, k), {l: c for l, c in zip(labels, full_vec)
                                                   if c != 0}))
    return HodgeData(s_mat, t_mat, harmonic_basis, {})


def _ref_projection_entries(ring, v, hg, h):
    labels = list(v.labels)
    n = len(labels)
    hb = [[vec.get(l, ring.zero()) for l in labels] for _, vec in h.harmonic_basis]
    if not hb:
        return {}
    mat = ExactMatrix(ring, n, len(hb),
                      [[hb[c][r] for c in range(len(hb))] for r in range(n)])
    out = {}
    for j, l in enumerate(labels):
        tvec = [ring.zero()] * n
        for (src, dst), c in h.t.items():
            if src == l:
                tvec[labels.index(dst)] = c
        sol = solve_linear(mat, tvec)
        if sol is None:
            raise PerturbationError("projection does not land in the harmonic part")
        for k, c in enumerate(sol[0]):
            if c != 0:
                out[(l, hg.labels[k])] = c
    return out


_FIELDS = [Q, Ring.GF(2), Ring.GF(3), F5, Ring.GF(2 ** 61 - 1)]


def _scalar(rng, ring):
    if ring.kind == "Q":
        return rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return rng.randrange(1, ring.p)


def _random_complex(rng, ring):
    """(V, d0) with labels shuffled across degrees, some degrees empty, and
    blocks that are zero, sparse or dense; d0 d0 = 0 because each block's
    rows lie in the left kernel of the block below it."""
    lo = rng.randint(-2, 1)
    dims = [rng.choice([0, 1, 2, 2, 3, 4]) for _ in range(rng.randint(1, 4))]
    by_deg = [[("v", lo + k, i) for i in range(m)] for k, m in enumerate(dims)]
    labels = [l for ls in by_deg for l in ls]
    rng.shuffle(labels)
    v = GradedModule(ring, [(l, l[1]) for l in labels])
    d0, prev = {}, ExactMatrix.zeros(ring, dims[0], 0)
    for src, dst in zip(by_deg, by_deg[1:] + [[]]):
        left = kernel_basis(prev.transpose())
        mode = rng.choice(["zero", "sparse", "sparse", "dense", "dense"])
        rows = []
        for w in dst:
            row = {}
            for vec in left:
                if mode == "dense" or (mode == "sparse" and rng.random() < 0.4):
                    ring.axpy(row, _scalar(rng, ring), dict(enumerate(vec)))
            rows.append([row.get(j, 0) for j in range(len(src))])
            d0.update(((u, w), c) for u, c in zip(src, rows[-1]) if c != 0)
        prev = ExactMatrix(ring, len(dst), len(src), rows)
    return v, d0


def _fixed_complexes(ring):
    ab = GradedModule(ring, [("a", 0), ("b", 1)])
    square = GradedModule(ring, [("b1", 1), ("a0", 0), ("b0", 1), ("a1", 0)])
    gap = GradedModule(ring, [("c", 2), ("a", 0), ("b", 0)])
    return [
        (GradedModule(ring, []), {}),
        (ab, {}),                                               # d0 = 0
        (ab, {("a", "b"): 1}),                                  # acyclic
        (square, {("a0", "b0"): 1, ("a0", "b1"): 1, ("a1", "b1"): 1}),  # acyclic 2x2
        (square, {("a0", "b0"): 1, ("a1", "b0"): 1}),           # rank 1 of 2
        (gap, {}),                                              # degree 1 empty
    ]


def _typed(entries):
    return [(k, c, type(c)) for k, c in entries.items()]


@pytest.mark.parametrize("ring", _FIELDS, ids=lambda r: r.name)
def test_hodge_data_and_projection_match_the_greedy_reference(ring):
    rng = random.Random(7000 + _FIELDS.index(ring))
    cases = _fixed_complexes(ring) + [_random_complex(rng, ring) for _ in range(60)]
    for v, d0 in cases:
        h, ref = hodge_data(v, d0), _ref_hodge_data(v, d0)
        assert check_hodge(v, d0, h)
        assert _typed(h.s) == _typed(ref.s)
        assert _typed(h.t) == _typed(ref.t)
        assert [(l, [(w, c, type(c)) for w, c in vec.items()]) for l, vec in h.harmonic_basis] \
            == [(l, [(w, c, type(c)) for w, c in vec.items()]) for l, vec in ref.harmonic_basis]
        hg = GradedModule(ring, [(l, l[1]) for l, _ in h.harmonic_basis])
        assert set(_typed(h.p)) == set(_typed(_ref_projection_entries(ring, v, hg, ref)))


@pytest.mark.parametrize("ring", [Q, F5], ids=lambda r: r.name)
def test_hodge_data_reads_only_the_adjacent_degree_blocks_of_d0(ring):
    # an entry of d0_entries between degrees that are not adjacent (the same
    # degree, or two and more apart) is not read: HodgeData is unchanged
    rng = random.Random(7100 + (ring.p or 0))
    cases = _fixed_complexes(ring) + [_random_complex(rng, ring) for _ in range(40)]
    extended = 0
    for v, d0 in cases:
        far = [(u, w) for u in v.labels for w in v.labels
               if v.degree[w] - v.degree[u] != 1]
        if not far:
            continue
        extra = dict(d0)
        extra.update((key, _scalar(rng, ring)) for key in rng.sample(far, min(3, len(far))))
        h, h_extra = hodge_data(v, d0), hodge_data(v, extra)
        assert _typed(h_extra.s) == _typed(h.s)
        assert _typed(h_extra.t) == _typed(h.t)
        assert h_extra.harmonic_basis == h.harmonic_basis
        extended += 1
    assert extended > 20


def test_projection_off_the_harmonic_part_raises():
    v = GradedModule(Q, [("a", 0), ("b", 0)])
    hg = GradedModule(Q, [(("h", 0, 0), 0)])
    # t(e_a) = e_b: the first t column already leaves the span of e_a
    h = HodgeData({}, {("a", "b"): 1}, [(("h", 0, 0), {"a": 1})], {})
    with pytest.raises(PerturbationError, match="does not land"):
        _ref_projection_entries(Q, v, hg, h)


# -- reduced modules and minimal models ---------------------------------------


def _contractible_module():
    d1 = cochain_algebra(simplex(1), Q)
    v = GradedModule(Q, [("p", 0), ("q", 1)])
    end = endomorphism_dga(d1, v)
    x = end.element({("E", "p", "q", al): c for al, c in d1.unit.items()})
    tw = TwistedModule(v, d1, ConvOp.from_mc(MCElement(end, x), d1, v))
    return ReducedTwistedModule(tw, {("p", "q"): 1})


def test_minimal_model_of_contractible_is_zero():
    mm = minimal_model(_contractible_module())
    assert mm.minimal.v.dim == 0
    assert mm.minimal.cohomology().entries == {}


def test_already_minimal_module_is_fixed():
    ca = cochain_algebra(circle(3), Q)
    v = GradedModule(Q, [("a", 0)])
    end = endomorphism_dga(ca, v)
    tw = TwistedModule(v, ca, ConvOp.from_mc(zero_mc(end), ca, v))
    assert is_minimal(tw) and is_reduced(tw)
    rtm = ReducedTwistedModule(tw, {})
    mm = minimal_model(rtm)
    assert mm.minimal.v.dim == 1
    assert mm.minimal.cohomology() == tw.cohomology()


def test_reduced_over_connected_algebra():
    # rank A^0 = 1: every twisted module is reduced
    from mctwist.fixtures import universal_mc_dga
    kx = universal_mc_dga(Q, 4)
    v = GradedModule(Q, [("a", 0), ("b", 1)])
    end = endomorphism_dga(kx, v)
    x = end.element({("E", "a", "b", ("x", 0)): 1, ("E", "a", "a", ("x", 1)): 1})
    ok, _ = __import__("mctwist.mc", fromlist=["is_mc"]).is_mc(end, x)
    if ok:
        tw = TwistedModule(v, kx, ConvOp.from_mc(MCElement(end, x), kx, v))
        assert is_reduced(tw)


def test_non_reduced_witness():
    # over a disconnected base, a vertex-dependent A^0 coefficient is MC but
    # not induced by a differential on V
    from mctwist.simplicial import from_ordered_complex
    two_points = from_ordered_complex([0, 1], [])
    ca = cochain_algebra(two_points, Q)
    v = GradedModule(Q, [("a", 0), ("b", 1)])
    end = endomorphism_dga(ca, v)
    x = end.element({("E", "a", "b", (0,)): 1})
    from mctwist.mc import is_mc
    ok, _ = is_mc(end, x)
    assert ok
    tw = TwistedModule(v, ca, ConvOp.from_mc(MCElement(end, x), ca, v))
    assert reduced_component(tw) is None
    assert not is_reduced(tw)


# Z x Z, the functions on two points, in its idempotent basis e1, e2 and in
# the basis a = e1, b = e2 - e1, where the unit is 2a + b; and Z in the basis
# e = -1, where the unit is -e.  A twisting c d0 (x) 1 has coefficient 2c on
# a, which the unit's first coefficient 2 divides; an odd one is refused.
TWO_POINTS = {"ring": "Z", "basis": [["e1", 0], ["e2", 0]], "unit": [["e1", "1"], ["e2", "1"]],
              "diff": [], "mult": [["e1", "e1", "e1", "1"], ["e2", "e2", "e2", "1"]]}
TWO_POINTS_AB = {"ring": "Z", "basis": [["a", 0], ["b", 0]], "unit": [["a", "2"], ["b", "1"]],
                 "diff": [], "mult": [["a", "a", "a", "1"], ["a", "b", "a", "-1"],
                                      ["b", "a", "a", "-1"], ["b", "b", "a", "2"],
                                      ["b", "b", "b", "1"]]}
ONE_POINT = {"ring": "Z", "basis": [["e", 0]], "unit": [["e", "1"]], "diff": [],
             "mult": [["e", "e", "e", "1"]]}
ONE_POINT_MINUS = {"ring": "Z", "basis": [["e", 0]], "unit": [["e", "-1"]], "diff": [],
                   "mult": [["e", "e", "e", "-1"]]}


def _module_file(tmp_path, algebra, mc):
    from mctwist import io
    path = tmp_path / "m.json"
    path.write_text(io.dumps({"algebra": algebra, "v": [["p", 0], ["q", 1]],
                              "mc": [[["p", "q", al], str(c)] for al, c in mc.items()]}))
    return str(path)


@pytest.mark.parametrize("algebra, mc, same_as", [
    (TWO_POINTS_AB, {"a": 4, "b": 2}, (TWO_POINTS, {"e1": 2, "e2": 2})),
    (ONE_POINT_MINUS, {"e": -2}, (ONE_POINT, {"e": 2})),
], ids=["unit-2a+b", "unit-minus-e"])
def test_reduced_component_divides_by_the_units_first_coefficient(
        algebra, mc, same_as, tmp_path, capsys):
    from mctwist import io
    from mctwist.cli import main
    a, v, coeffs = io.module_from_json(io.load_json_file(_module_file(tmp_path, algebra, mc)))
    assert reduced_component(TwistedModule(v, a, ConvOp(a, v, v, coeffs))) == {("p", "q"): 2}
    # d0 = 2 on p -> q, read in either basis of A: the same truncation
    outs = []
    for alg, x in ((algebra, mc), same_as):
        assert main(["truncate", _module_file(tmp_path, alg, x), "--i", "1"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].out


def test_an_odd_coefficient_on_a_is_not_reduced(tmp_path, capsys):
    from mctwist.cli import main
    # 3a + b = 2 e1 + e2: d0 = 2 at one point and 1 at the other
    for algebra, mc in ((TWO_POINTS_AB, {"a": 3, "b": 1}), (TWO_POINTS, {"e1": 2, "e2": 1})):
        assert main(["truncate", _module_file(tmp_path, algebra, mc), "--i", "0"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "input error: module is not reduced\n")


def _random_reduced(seed, algebra, ring=F5):
    """Gauge transform of a constant-coefficient reduced module: V has
    dimensions (2, 1) in degrees (0, 1) and d0 of rank 1."""
    rng = random.Random(seed)
    v = GradedModule(ring, [("u0", 0), ("u1", 0), ("w0", 1)])
    end = endomorphism_dga(algebra, v)
    d0c = rng.randint(1, ring.p - 1)
    base = end.element({("E", "u0", "w0", al): ring.mul(c, d0c)
                        for al, c in algebra.unit.items()})
    coeffs = {}
    while True:
        blk = ExactMatrix.from_rows(ring, [[rng.randint(0, 4), rng.randint(0, 4)],
                                           [rng.randint(0, 4), rng.randint(0, 4)]])
        if solve_invertibility(blk) is not None:
            break
    for i, u in enumerate(["u0", "u1"]):
        for j, w in enumerate(["u0", "u1"]):
            if blk.get(j, i) != 0:
                for al, c in algebra.unit.items():
                    coeffs[("E", u, w, al)] = ring.mul(blk.get(j, i), c)
    c2 = rng.randint(1, 4)
    for al, c in algebra.unit.items():
        coeffs[("E", "w0", "w0", al)] = ring.mul(c2, c)
    for e in algebra.gm.labels_of_degree(1):
        if rng.random() < 0.7:
            coeffs[("E", "w0", "u0", e)] = rng.randint(1, 4)
        if rng.random() < 0.5:
            coeffs[("E", "w0", "u1", e)] = rng.randint(1, 4)
    g = end.element(coeffs)
    gx = gauge_act(end, g, MCElement(end, base))
    return TwistedModule(v, algebra, ConvOp.from_mc(gx, algebra, v))


def test_minimal_model_randomized_with_cohomology_equality():
    ca = cochain_algebra(circle(3), F5)
    for seed in range(10):
        tw = _random_reduced(seed, ca)
        comp = reduced_component(tw)
        assert comp is not None
        mm = minimal_model(ReducedTwistedModule(tw, comp))
        assert is_minimal(mm.minimal)
        # d0 has rank 1 on dimensions (2, 1): the minimal model is 1-dimensional
        assert mm.minimal.v.dim == 1
        assert mm.minimal.cohomology() == tw.cohomology()


def test_minimal_model_over_q_too():
    ca = cochain_algebra(circle(3), Q)
    v = GradedModule(Q, [("u0", 0), ("u1", 0), ("w0", 1)])
    end = endomorphism_dga(ca, v)
    base = end.element({("E", "u0", "w0", al): c for al, c in ca.unit.items()})
    coeffs = {("E", u, u, al): c for u in v.labels for al, c in ca.unit.items()}
    for e in ca.gm.labels_of_degree(1):
        coeffs[("E", "w0", "u1", e)] = 3
    g = end.element(coeffs)
    tw = TwistedModule(v, ca, ConvOp.from_mc(gauge_act(end, g, MCElement(end, base)), ca, v))
    mm = minimal_model(ReducedTwistedModule(tw, reduced_component(tw)))
    assert mm.minimal.cohomology() == tw.cohomology()


def test_minimal_model_needs_a_field():
    ca = cochain_algebra(circle(3), Z)
    v = GradedModule(Z, [("a", 0)])
    end = endomorphism_dga(ca, v)
    tw = TwistedModule(v, ca, ConvOp.from_mc(zero_mc(end), ca, v))
    with pytest.raises(PerturbationError, match="field"):
        minimal_model(ReducedTwistedModule(tw, {}))


# -- rigidity -----------------------------------------------------------------


def test_identity_is_certified_invertible():
    ca = cochain_algebra(circle(3), Q)
    v = GradedModule(Q, [("a", 0)])
    end = endomorphism_dga(ca, v)
    tw = TwistedModule(v, ca, ConvOp.from_mc(zero_mc(end), ca, v))
    ident = ConvOp.identity(ca, v)
    ok, inv = minimal_iso_check(ident, tw, tw)
    assert ok and inv == ident


def test_one_plus_nilpotent_is_invertible():
    # 1 + (filtration-raising term) between minimal modules: the inverse is
    # the terminating geometric series 1 - n
    ca = cochain_algebra(circle(3), Q)
    v = GradedModule(Q, [("p", 0), ("q", 1)])
    end = endomorphism_dga(ca, v)
    tw = TwistedModule(v, ca, ConvOp.from_mc(zero_mc(end), ca, v))
    edge = ca.gm.labels_of_degree(1)[0]
    # E_{q -> p} (x) edge has degree -1 + 1 = 0 and raises the weight
    n = ConvOp(ca, v, v, {("q", "p", edge): 3})
    f = ConvOp.identity(ca, v) + n
    ok, inv = minimal_iso_check(f, tw, tw)
    assert ok
    assert inv == ConvOp.identity(ca, v) - n
    assert inv.compose(f) == ConvOp.identity(ca, v)


def test_zero_map_between_nonzero_minimals_is_not_invertible():
    ca = cochain_algebra(circle(3), Q)
    v = GradedModule(Q, [("a", 0)])
    end = endomorphism_dga(ca, v)
    tw = TwistedModule(v, ca, ConvOp.from_mc(zero_mc(end), ca, v))
    ok, inv = minimal_iso_check(ConvOp(ca, v, v), tw, tw)
    assert not ok and inv is None


def test_two_runs_comparison_is_an_isomorphism():
    ca = cochain_algebra(circle(3), F5)
    tw = _random_reduced(3, ca)
    rtm = ReducedTwistedModule(tw, reduced_component(tw))
    mm1 = minimal_model(rtm)
    mm2 = minimal_model(rtm)
    comparison = mm2.project.compose(mm1.include)
    ok, inv = minimal_iso_check(comparison, mm1.minimal, mm2.minimal)
    assert ok
    assert inv.compose(comparison) == ConvOp.identity(ca, mm1.minimal.v)


def test_a_map_off_degree_zero_is_refused_with_its_degree():
    # E_{a -> b} (x) 1 from {a: 0} to {b: 1} has degree 1; it was checked
    # closed with the degree-0 sign on every term and certified invertible
    ca = cochain_algebra(circle(3), Q)
    vs, vd, vd0 = (GradedModule(Q, [(l, d)]) for l, d in (("a", 0), ("b", 1), ("b", 0)))
    src, dst, dst0 = (TwistedModule(v, ca, ConvOp(ca, v, v)) for v in (vs, vd, vd0))
    with pytest.raises(PerturbationError, match="map has a term of degree 1, not 0"):
        minimal_iso_check(ConvOp.from_matrix(ca, vs, vd, {("a", "b"): 1}), src, dst)
    # a degree-0 term beside one of degree 1: E_{a -> b} (x) a vertex and an edge
    vertex, edge = ca.gm.labels_of_degree(0)[0], ca.gm.labels_of_degree(1)[0]
    f = ConvOp(ca, vs, vd0, {("a", "b", vertex): 1, ("a", "b", edge): 1})
    with pytest.raises(PerturbationError, match="map has a term of degree 1, not 0"):
        minimal_iso_check(f, src, dst0)
    ok, inv = minimal_iso_check(ConvOp.from_matrix(ca, vs, vd0, {("a", "b"): 1}), src, dst0)
    assert ok and inv == ConvOp.from_matrix(ca, vd0, vs, {("b", "a"): 1})


def _two_sided_inverse_reference(a, f0, vsrc, vdst):
    # _invert_weight_zero as it solved f0 o g = 1 and g o f0 = 1 as one system
    # of keyed rows, kept as its reference
    ring = a.ring
    deg0 = list(a.gm.labels_of_degree(0))
    unknowns = [(u, w, al) for u in vdst.labels for w in vsrc.labels for al in deg0]
    if len(vsrc.labels) != len(vdst.labels):
        return None
    rows = {}
    for key in unknowns:
        g_term = ConvOp(a, vdst, vsrc, {key: ring.one()})
        for side, op in (("fg", f0.compose(g_term)), ("gf", g_term.compose(f0))):
            for k, c in op.coeffs.items():
                rows.setdefault((side, k), {})[key] = c
    rhs = {("fg", k): c for k, c in ConvOp.identity(a, vdst).coeffs.items()}
    rhs.update((("gf", k), c) for k, c in ConvOp.identity(a, vsrc).coeffs.items())
    keys = sorted(set(rows) | set(rhs), key=str)
    mat = ExactMatrix.from_columns(ring, [rows.get(k, {}) for k in keys], unknowns).transpose()
    (sol,), _ = solve_many(mat, [[rhs.get(k, 0) for k in keys]])
    return None if sol is None else ConvOp(a, vdst, vsrc, {u: c for u, c in zip(unknowns, sol)
                                                           if c})


@pytest.mark.parametrize("ring", [Z, Q, F5], ids=lambda r: r.name)
def test_weight_zero_inverse_is_the_two_sided_solve(ring):
    # over A^0 = k^3 (C*(S^1_3)) and the non-commutative A^0 = M_2(k^2) of
    # End(k^2) (x) C*(Delta^1); V of two labels with equal and unequal degrees
    rng = random.Random(20261020)
    algebras = [cochain_algebra(circle(3), ring),
                endomorphism_dga(cochain_algebra(simplex(1), ring),
                                 GradedModule(ring, [("p", 0), ("q", 0)]))]
    profiles = [((0, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 1), (2, 2)), ((0, 0, 1), (0, 1))]
    found = {"invertible": 0, "singular": 0}
    for a in algebras:
        deg0 = list(a.gm.labels_of_degree(0))
        for src_deg, dst_deg in profiles:
            vsrc = GradedModule(ring, [(("s", i), d) for i, d in enumerate(src_deg)])
            vdst = GradedModule(ring, [(("t", i), d) for i, d in enumerate(dst_deg)])

            def op(src, dst, keep):
                return ConvOp(a, src, dst, {(u, w, al): rng.choice([-2, -1, 1, 2, 3])
                                            for i, u in enumerate(src.labels)
                                            for j, w in enumerate(dst.labels)
                                            for al in deg0 if keep(i, j) and rng.random() < 0.5})
            bijection = ConvOp.from_matrix(a, vsrc, vdst,
                                           dict.fromkeys(zip(vsrc.labels, vdst.labels), 1))
            for trial in range(6):
                if trial < 3 and len(vsrc.labels) == len(vdst.labels):
                    # unipotent factors: invertible over Z too
                    lower = ConvOp.identity(a, vsrc) + op(vsrc, vsrc, lambda i, j: i > j)
                    upper = ConvOp.identity(a, vsrc) + op(vsrc, vsrc, lambda i, j: i < j)
                    f0 = bijection.compose(lower).compose(upper)
                else:
                    f0 = op(vsrc, vdst, lambda i, j: trial != 5 or i > 0)
                g = _invert_weight_zero(a, f0, vsrc, vdst)
                ref = _two_sided_inverse_reference(a, f0, vsrc, vdst)
                assert (g is None) == (ref is None)
                if g is not None:
                    assert [(k, c, type(c)) for k, c in g.coeffs.items()] == \
                        [(k, c, type(c)) for k, c in ref.coeffs.items()]
                    assert f0.compose(g) == ConvOp.identity(a, vdst)
                    assert g.compose(f0) == ConvOp.identity(a, vsrc)
                found["singular" if g is None else "invertible"] += 1
    assert min(found.values()) >= 10, found


# -- resolution lifts ----------------------------------------------------------


def _cyclic_resolution(base_ring, m):
    """W = (Z --m--> Z) in degrees -1, 0, resolving Z/m."""
    w_gm = GradedModule(base_ring, [(("w", -1), -1), (("w", 0), 0)])
    d_w = {(("w", -1), ("w", 0)): m}
    return w_gm, d_w


def test_lift_free_module_needs_no_corrections():
    # V free of rank 1 with sign monodromy: w1 is the given edge twist
    a = cochain_algebra(circle(3), Z)
    w_gm = GradedModule(Z, [(("w", 0), 0)])
    coeffs = {(("w", 0), ("w", 0), (0, 1)): -2}
    w1 = ConvOp(a, w_gm, w_gm, coeffs)
    tw = lift_to_free_resolution(a, w_gm, {}, w1)
    ls = LocalSystem(circle(3), GradedModule(Z, [("v", 0)]),
                     {(0, 1): ExactMatrix.from_rows(Z, [[-1]])})
    assert tw.cohomology() == local_system_cohomology(ls)


def test_lift_z_mod_2_trivial_system():
    a = cochain_algebra(circle(3), Z)
    w_gm, d_w = _cyclic_resolution(Z, 2)
    w1 = ConvOp(a, w_gm, w_gm)  # trivial monodromy lifts by zero
    tw = lift_to_free_resolution(a, w_gm, d_w, w1)
    rep = tw.cohomology()
    # Z/2 coefficients on the circle: H^0 = H^1 = Z/2 (as Z-modules)
    assert rep.entries == {0: (0, (2,)), 1: (0, (2,))}
    # cross-check against the F2 local system model
    f2 = Ring.GF(2)
    ls = LocalSystem(circle(3), GradedModule(f2, [("v", 0)]), {})
    rep2 = local_system_cohomology(ls)
    assert all(len(rep.torsion(d)) == rep2.rank(d) for d in (0, 1))
    assert all(rep.rank(d) == 0 for d in (0, 1))


def test_lift_z_mod_3_with_monodromy_two():
    a = cochain_algebra(circle(3), Z)
    w_gm, d_w = _cyclic_resolution(Z, 3)
    # monodromy 2 on edge (0, 1) lifts to multiplication by 2 on W
    coeffs = {}
    for wl in w_gm.labels:
        coeffs[(wl, wl, (0, 1))] = 1  # F - 1 = 2 - 1
    w1 = ConvOp(a, w_gm, w_gm, coeffs)
    tw = lift_to_free_resolution(a, w_gm, d_w, w1)
    rep = tw.cohomology()
    f3 = Ring.GF(3)
    ls = LocalSystem(circle(3), GradedModule(f3, [("v", 0)]),
                     {(0, 1): ExactMatrix.from_rows(f3, [[2]])})
    rep2 = local_system_cohomology(ls)
    # monodromy 2 on Z/3: no invariants and no coinvariants
    assert rep2.entries == {}
    assert rep.entries == {}


def test_lift_rejects_non_chain_map():
    a = cochain_algebra(circle(3), Z)
    w_gm, d_w = _cyclic_resolution(Z, 2)
    bad = ConvOp(a, w_gm, w_gm, {(("w", 0), ("w", 0), (0, 1)): 1})
    with pytest.raises(PerturbationError, match="chain map"):
        lift_to_free_resolution(a, w_gm, d_w, bad)


# -- resolution lifts past weight 1 --------------------------------------------
#
# An integer edge action F, scalar on W = (Z --3--> Z), lifts to the chain map
# w1 = (F - 1) (x) edge.  The weight-2 target on a 2-simplex is (F01 F12 - F02)
# times the identity of W: a cycle of End^0(W), whose class in H^0 End(W) =
# Hom(Z/3, Z/3) = Z/3 is that integer mod 3.  So an action flat mod 3 but not
# over Z makes the stage solve, one not flat mod 3 is obstructed, and the
# oracle for a lift is the F_3 local system of F mod 3: each Z/3 of the lift
# is one dimension of it (len(torsion(d)) == rank(d)).


def _scalar_lift(base, action):
    """(A, W, d_W, w1) for the edge action {edge: F}, F an integer scalar on W."""
    a = cochain_algebra(base, Z)
    w_gm, d_w = _cyclic_resolution(Z, 3)
    w1 = ConvOp(a, w_gm, w_gm, {(wl, wl, e): f - 1 for e, f in action.items()
                                for wl in w_gm.labels})
    return a, w_gm, d_w, w1


def _f3_model(base, action, degree=0):
    return LocalSystem(base, GradedModule(Ring.GF(3), [("v", degree)]),
                       {e: ExactMatrix.from_rows(Ring.GF(3), [[f]]) for e, f in action.items()})


def _matches_f3_model(rep, model):
    ls = local_system_cohomology(model)
    return all(rep.rank(d) == 0 and len(rep.torsion(d)) == ls.rank(d) for d in range(-3, 4))


def _torus7_gauge(seed):
    """A vertex gauge g in {1, 2} = (Z/3)^x on torus7, lifted to the integer
    action F(u, v) = g_u g_v reduced to {1, 2}: flat mod 3, as g^-1 = g, but
    not over Z once 2 * 2 = 4 meets an edge F = 1."""
    rng = random.Random(seed)
    base = torus7()
    g = {v: rng.choice([1, 2]) for (v,) in base.nondegenerate(0)}
    return base, {(u, v): g[u] * g[v] % 3 for u, v in base.nondegenerate(1)}


def _tetrahedron_stage_three():
    """A lift that solves at weights 2 and 3 over C*(Delta^3): W is the length-2
    resolution Z --(3, 3)--> Z^2 --(1, -1)--> Z of Z/3 in degree -1, and the
    edges (0, 2) and (2, 3) act by chain maps, not invertible over Z but 1
    on H(W) = Z/3."""
    base = simplex(3)
    a = cochain_algebra(base, Z)
    w_gm = GradedModule(Z, [("x", -2), ("y1", -1), ("y2", -1), ("z", 0)])
    d_w = {("x", "y1"): 3, ("x", "y2"): 3, ("y1", "z"): 1, ("y2", "z"): -1}
    # each action F as {(u, w): the coefficient of w in F(u)}, F d_W = d_W F
    actions = {(0, 2): {("x", "x"): -2, ("y1", "y1"): -2, ("y1", "y2"): -1,
                        ("y2", "y2"): -1, ("z", "z"): -1},
               (2, 3): {("x", "x"): -2, ("y1", "y2"): -2, ("y2", "y1"): -2, ("z", "z"): 2}}
    w1 = ConvOp(a, w_gm, w_gm, {(u, w, e): c - (u == w) for e, f in actions.items()
                                for u in w_gm.labels for w in w_gm.labels
                                if (c := f.get((u, w), 0)) != (u == w)})
    return a, w_gm, d_w, w1


def _triangle_with_free_summands():
    """V = Z/3 + Z[1] + Z over C*(Delta^2): W = (w-1 --3--> w0) + g + f, g in
    degree -1 and f in degree 0.  Z/3 carries the action 2, 2, 1 and g the
    sign -1, -1, 1.  Unknown (f, g) has a zero column, and the label order
    makes the unknowns' (u, w) order differ from their (w, u) order."""
    base = simplex(2)
    a = cochain_algebra(base, Z)
    w_gm = GradedModule(Z, [("w-1", -1), ("w0", 0), ("g", -1), ("f", 0)])
    scalars = {(0, 1): (2, -1), (1, 2): (2, -1), (0, 2): (1, 1)}  # (on Z/3, on g)
    w1 = ConvOp(a, w_gm, w_gm, {(wl, wl, e): (fw if wl != "g" else fg) - 1
                                for e, (fw, fg) in scalars.items() for wl in ("w-1", "w0", "g")})
    return a, w_gm, {("w-1", "w0"): 3}, w1


@pytest.fixture()
def stage_solves(monkeypatch):
    """Each stage solve of a lift as (columns with their key order, rhs)."""
    from mctwist import perturbation
    calls = []

    def record(ring, columns, rhs):
        calls.append(([(key, list(col.items())) for key, col in columns.items()],
                      list(rhs.items())))
        return solve_equations(ring, columns, rhs)
    monkeypatch.setattr(perturbation, "solve_equations", record)
    return calls


def test_lift_solves_weight_two_on_the_triangle(stage_solves):
    base = simplex(2)
    action = {(0, 1): 2, (1, 2): 2, (0, 2): 1}  # 2 * 2 = 1 mod 3, not over Z
    tw = lift_to_free_resolution(*_scalar_lift(base, action))
    [(columns, _)] = stage_solves
    assert [key for key, _ in columns] == [(("w", 0), ("w", -1), (0, 1, 2))]
    assert tw.x.weight_split()[2].coeffs == {(("w", 0), ("w", -1), (0, 1, 2)): -1}
    rep = tw.cohomology()
    assert rep.entries == {0: (0, (3,))}
    assert _matches_f3_model(rep, _f3_model(base, action))
    # with F02 = 4 the action is flat over Z: the lift is strict, nothing to solve
    stage_solves.clear()
    action[(0, 2)] = 4
    tw = lift_to_free_resolution(*_scalar_lift(base, action))
    assert stage_solves == [] and 2 not in tw.x.weight_split()
    assert tw.cohomology() == rep


def test_lift_solves_weight_two_on_torus7(stage_solves):
    base, action = _torus7_gauge(3)
    q = GradedModule(Q, [("v", 0)])
    assert LocalSystem(base, q, {e: ExactMatrix.from_rows(Q, [[f]]) for e, f in
                                 action.items()}).functor_condition_failures()
    assert not _f3_model(base, action).functor_condition_failures()
    tw = lift_to_free_resolution(*_scalar_lift(base, action))
    # one unknown E_{w0 -> w-1} (x) tau per 2-simplex tau of torus7
    assert [len(columns) for columns, _ in stage_solves] == [14]
    rep = tw.cohomology()
    assert rep.entries == {0: (0, (3,)), 1: (0, (3, 3)), 2: (0, (3,))}
    assert _matches_f3_model(rep, _f3_model(base, action))


def test_lift_solves_weight_three_on_the_tetrahedron(stage_solves):
    tw = lift_to_free_resolution(*_tetrahedron_stage_three())
    weights = [{len(key[2]) - 1 for key, _ in columns} for columns, _ in stage_solves]
    assert weights == [{2}, {3}]
    assert [len(columns) for columns, _ in stage_solves] == [16, 1]
    assert tw.x.weight_split()[3].coeffs == {("z", "x", (0, 1, 2, 3)): -2}
    rep = tw.cohomology()
    assert rep.entries == {-1: (0, (3,))}
    # both edges act by -2 = 1 mod 3 on H(W) = Z/3: the trivial F_3 system
    assert _matches_f3_model(rep, _f3_model(simplex(3), {}, degree=-1))


def test_lift_keeps_a_zero_column_beside_free_summands(stage_solves):
    tw = lift_to_free_resolution(*_triangle_with_free_summands())
    [(columns, _)] = stage_solves
    assert [key[:2] for key, _ in columns] == [("w0", "w-1"), ("w0", "g"), ("f", "w-1"),
                                               ("f", "g")]
    assert dict(columns)[("f", "g", (0, 1, 2))] == []
    # H = Z/3 + Z in degree 0 (the F_3 and the trivial Z systems) and Z in -1
    assert tw.cohomology().entries == {-1: (1, ()), 0: (1, (3,))}


def test_lift_is_obstructed_exactly_off_the_flat_mod_3_actions():
    base = simplex(2)
    seen = {"obstructed": 0, "solved": 0, "strict": 0}
    for f01, f12, f02 in itertools.product((1, 2, 4, 5), repeat=3):
        action = {(0, 1): f01, (1, 2): f12, (0, 2): f02}
        model = _f3_model(base, {e: f % 3 for e, f in action.items()})
        if model.functor_condition_failures():
            with pytest.raises(PerturbationError, match="obstruction class nonzero at stage 2"):
                lift_to_free_resolution(*_scalar_lift(base, action))
            seen["obstructed"] += 1
            continue
        tw = lift_to_free_resolution(*_scalar_lift(base, action))
        assert _matches_f3_model(tw.cohomology(), model), action
        seen["solved" if f01 * f12 != f02 else "strict"] += 1
    assert seen == {"obstructed": 32, "solved": 24, "strict": 8}


# The stage solve as it was before its columns were read off mc._hom_diff:
# one ConvOp probe per unknown, composed on both sides with d_W.


def _probe_solve_commutator(a, w_gm, d_w, target, weight):
    """Solve [d_W, w] = target for w of algebra weight ``weight``, degree 1."""
    from mctwist import perturbation
    ring = a.ring
    columns = {}  # {unknown (u, w, al): its column [d_W, probe]}
    for u in w_gm.labels:
        for w in w_gm.labels:
            for al in a.gm.labels:
                if a.gm.degree[al] == weight and w_gm.degree[w] - w_gm.degree[u] + weight == 1:
                    probe = ConvOp(a, w_gm, w_gm, {(u, w, al): ring.one()})
                    # probe has total degree 1: [d_W, probe] = d_W probe + probe d_W
                    columns[(u, w, al)] = (d_w.compose(probe) + probe.compose(d_w)).coeffs
    if not columns:
        return None if not target.is_zero() else ConvOp(a, w_gm, w_gm)
    sol = perturbation.solve_equations(ring, columns, target.coeffs)
    return None if sol is None else ConvOp(a, w_gm, w_gm, sol)


def _probe_lift(a, w_gm, d_w_entries, w1):
    """The twisting of lift_to_free_resolution, its stages solved by probes."""
    d_w = ConvOp.from_matrix(a, w_gm, w_gm, d_w_entries)
    ws, zero = {0: d_w, 1: w1}, ConvOp(a, w_gm, w_gm)
    for k in range(2, max(a.gm.degrees()) + 2):
        rest = ws[k - 1].hom_d(zero, zero)
        for i in range(1, k):
            rest = rest + ws[i].compose(ws[k - i])
        if rest.is_zero():
            ws[k] = zero
            continue
        ws[k] = _probe_solve_commutator(a, w_gm, d_w, rest.scale(-1), weight=k)
        if ws[k] is None:
            raise PerturbationError("obstruction class nonzero at stage %d" % k)
    x_total = zero
    for op in ws.values():
        x_total = x_total + op
    return x_total


LIFT_CASES = {
    "triangle": lambda: _scalar_lift(simplex(2), {(0, 1): 2, (1, 2): 2, (0, 2): 1}),
    "triangle-strict": lambda: _scalar_lift(simplex(2), {(0, 1): 2, (1, 2): 2, (0, 2): 4}),
    "triangle-obstructed": lambda: _scalar_lift(simplex(2), {(0, 1): 2, (1, 2): 2, (0, 2): 2}),
    "tetrahedron-stage-3": _tetrahedron_stage_three,
    "triangle-free-summands": _triangle_with_free_summands,
    **{"torus7-seed-%d" % seed: (lambda seed=seed: _scalar_lift(*_torus7_gauge(seed)))
       for seed in range(4)},
}


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
def test_lift_stage_solves_equal_the_probe_reference(case, stage_solves):
    args = LIFT_CASES[case]()
    try:
        got = list(lift_to_free_resolution(*args).x.coeffs.items())
    except PerturbationError as exc:
        got = str(exc)
    solves, stage_solves[:] = stage_solves[:], []
    try:
        want = list(_probe_lift(*args).coeffs.items())
    except PerturbationError as exc:
        want = str(exc)
    # the same equations: columns, values and key order, right-hand sides
    assert solves == stage_solves
    assert got == want
    assert solves or case == "triangle-strict"


def test_a_stage_without_unknowns_is_obstructed(stage_solves):
    # W = Z in degree 0 with the sign on every edge of Delta^2: (-1)(-1) != -1,
    # and End(W) has no degree -1 map to solve with
    a = cochain_algebra(simplex(2), Z)
    w_gm = GradedModule(Z, [("w", 0)])
    w1 = ConvOp(a, w_gm, w_gm, {("w", "w", e): -2 for e in ((0, 1), (1, 2), (0, 2))})
    for lift in (lift_to_free_resolution, _probe_lift):
        with pytest.raises(PerturbationError, match="obstruction class nonzero at stage 2"):
            lift(a, w_gm, {}, w1)
    [(columns, rhs)] = stage_solves  # the probe reference returned before solving
    assert columns == [] and rhs == [(("w", "w", (0, 1, 2)), -2)]


def test_lift_composes_once_per_product_not_per_unknown(monkeypatch):
    """The triangle (1 unknown) and torus7 (14 unknowns) have top degree 2:
    their lifts compose as often, as no stage composes a probe per unknown."""
    counts = []
    compose = ConvOp.compose

    def counted(self, other):
        counts[-1] += 1
        return compose(self, other)
    monkeypatch.setattr(ConvOp, "compose", counted)
    for case in ("triangle", "torus7-seed-3"):
        args = LIFT_CASES[case]()
        counts.append(0)
        lift_to_free_resolution(*args)
    assert counts[0] == counts[1]


# -- truncation ------------------------------------------------------------------


def _two_stage_module(ring=Z):
    """V with H(V, d0) in degrees 0 and 1 over the circle, trivial twist."""
    a = cochain_algebra(circle(3), ring)
    v = GradedModule(ring, [("a0", 0), ("b0", 0), ("b1", 1), ("c1", 1)])
    end = endomorphism_dga(a, v)
    # d0: b0 -> b1 is an isomorphism on a summand; harmless twist on edges
    x = end.element({("E", "b0", "b1", al): c for al, c in a.unit.items()})
    tw = TwistedModule(v, a, ConvOp.from_mc(MCElement(end, x), a, v))
    return ReducedTwistedModule(tw, {("b0", "b1"): 1})


def test_truncate_above_top_is_identity():
    rtm = _two_stage_module()
    out, inc = truncate_twisted(rtm, 5)
    assert out.v.dim == rtm.v.dim
    assert out.cohomology() == rtm.tw.cohomology()


def test_truncate_below_bottom_is_zero():
    rtm = _two_stage_module()
    out, _ = truncate_twisted(rtm, -1)
    assert out.v.dim == 0


def test_truncate_two_stage_module_at_zero():
    rtm = _two_stage_module()
    out, inc = truncate_twisted(rtm, 0)
    # kernel truncation keeps degree-0 fibre cohomology only: the fibre is
    # ker(d0) = span(a0), so the output is the trivial rank-1 system
    assert sorted(d for _, d in out.v.basis()) == [0]
    assert out.v.dim == 1
    assert out.cohomology().entries == {0: (1, ()), 1: (1, ())}
    # and the global cohomology matches the H^0-part local system directly
    ls = LocalSystem(circle(3), GradedModule(Z, [("v", 0)]), {})
    assert out.cohomology() == local_system_cohomology(ls)


def test_truncate_keeps_fibre_kernel_only():
    # a fibre with torsion interaction: d0 = multiplication by 2 in the fibre
    a = cochain_algebra(circle(3), Z)
    v = GradedModule(Z, [("p", 0), ("q", 1)])
    end = endomorphism_dga(a, v)
    x = end.element({("E", "p", "q", al): Z.mul(2, c) for al, c in a.unit.items()})
    tw = TwistedModule(v, a, ConvOp.from_mc(MCElement(end, x), a, v))
    rtm = ReducedTwistedModule(tw, {("p", "q"): 2})
    out, _ = truncate_twisted(rtm, 0)
    # ker(2: Z -> Z) = 0: the degree-0 truncation is the zero module
    assert out.v.dim == 0


@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(5)], ids=lambda r: r.name)
def test_truncate_factors_its_basis_once_per_call(ring, monkeypatch):
    from mctwist import exactlinalg, perturbation
    seen = []

    def echelon_matrix(rows, n, full, p):  # the rows [a | b ...] that _echelon reduces
        return ExactMatrix._of_rows(ring, max([n] + [j + 1 for r in rows for j in r]),
                                    [dict(r) for r in rows])
    for name, m_of in (("rref", lambda m: m), ("smith_normal_form", lambda m: m),
                       ("_echelon", echelon_matrix)):
        wrapped = getattr(exactlinalg, name)
        counted = (lambda f, m_of: lambda *args: seen.append(m_of(*args)) or f(*args))(
            wrapped, m_of)
        for module in (exactlinalg, perturbation):
            if getattr(module, name, None) is wrapped:
                monkeypatch.setattr(module, name, counted)
    rtm = _two_stage_module(ring)
    unit = next(iter(rtm.algebra.unit))
    for i, groups in ((1, 3), (5, 3), (0, 0)):
        seen.clear()
        out, inc = truncate_twisted(rtm, i)
        # the kernel basis as columns over V, and the images of x o inc to solve for
        basis = ExactMatrix.from_columns(ring, [
            {w: c for (u, w, al), c in inc.coeffs.items() if u == l and al == unit}
            for l in out.v.labels], rtm.v.labels)
        images = {(u, al) for u, _, al in rtm.tw.x.compose(inc).coeffs}
        assert len(images) == groups
        factored = [m for m in seen if m.rows == basis.rows and m.cols >= basis.cols and
                    {k: c for k, c in m.nonzero_items() if k[1] < basis.cols} ==
                    dict(basis.nonzero_items())]
        # one elimination of [basis | every image] on every ring; over Z it
        # needs no Smith form, as the columns of a basis are independent
        assert [m.cols for m in factored] == [basis.cols + groups] * (out.v.dim > 0)


def test_truncate_above_is_the_cone_complement():
    from mctwist.perturbation import truncate_above
    rtm = _two_stage_module()
    up = truncate_above(rtm, 1)
    rep = up.cohomology()
    # the two-stage fixture splits: the degree >= 1 part is the c1-line
    # system shifted once, so H = (0, Z, Z) in degrees (0, 1, 2)
    assert rep.entries == {1: (1, ()), 2: (1, ())}
    low, _ = truncate_twisted(rtm, 0)
    full = rtm.tw.cohomology()
    assert full.rank(0) == low.cohomology().rank(0)
    assert full.rank(1) == low.cohomology().rank(1) + rep.rank(1)
    assert full.rank(2) == rep.rank(2)
