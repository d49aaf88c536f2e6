import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mctwist.exactlinalg import (
    ChainComplexSpec,
    CohomologyReport,
    ExactLinalgError,
    ExactMatrix,
    PRIME_BOUND,
    Ring,
    cohomology,
    det,
    invariant_factors,
    kernel_basis,
    rank,
    smith_normal_form,
    solve_linear,
)

Z = Ring.Z()
Q = Ring.Q()
F5 = Ring.GF(5)


def test_ring_parse_and_coerce():
    assert Ring.parse("Z") == Z
    assert Ring.parse("F7").p == 7
    assert Q.coerce("3/4") == Fraction(3, 4)
    assert F5.coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    with pytest.raises(ExactLinalgError):
        Ring.GF(6)
    with pytest.raises(ExactLinalgError):
        Z.coerce(Fraction(1, 2))


def test_snf_already_diagonal():
    m = ExactMatrix.from_rows(Z, [[2]])
    u, d, v = smith_normal_form(m)
    assert d.get(0, 0) == 2
    assert u.get(0, 0) == 1 and v.get(0, 0) == 1


def test_snf_zero_matrix():
    m = ExactMatrix.from_rows(Z, [[0]])
    _, d, _ = smith_normal_form(m)
    assert d.get(0, 0) == 0


def test_snf_2x2_hand_checked():
    # Row/column gcd reduction by hand gives invariant factors (2, 4):
    # [[2,4],[6,8]] -> clear with the 2-pivot -> [[2,0],[0,-4]] -> (2, 4).
    m = ExactMatrix.from_rows(Z, [[2, 4], [6, 8]])
    assert invariant_factors(m) == [2, 4]


def _random_int_matrix(rng, rows, cols, bound=20):
    return ExactMatrix.from_rows(
        Z, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def test_snf_randomized_invariants():
    rng = random.Random(20240811)
    for _ in range(25):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = _random_int_matrix(rng, rows, cols)
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        diag = [d.get(i, i) for i in range(min(rows, cols))]
        for (i, j), _ in d.nonzero_items():
            assert i == j
        seen_zero = False
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                seen_zero = True
            if seen_zero:
                assert b == 0
            elif b != 0:
                assert b % a == 0
        assert all(x >= 0 for x in diag)


def test_solve_identity():
    a = ExactMatrix.identity(Q, 3)
    b = [1, 2, 3]
    x, kb = solve_linear(a, b)
    assert [Fraction(v) for v in b] == x
    assert kb == []


def test_solve_2x_eq_1():
    a = ExactMatrix.from_rows(Z, [[2]])
    assert solve_linear(a, [1]) is None
    x, _ = solve_linear(a.change_ring(Q), [1])
    assert x == [Fraction(1, 2)]


def test_solve_kernel_of_sum():
    a = ExactMatrix.from_rows(Q, [[1, 1]])
    x, kb = solve_linear(a, [0])
    assert x == [0, 0]
    assert len(kb) == 1
    v = kb[0]
    assert v[0] == -v[1] and v[0] != 0


def test_solve_exactness_randomized():
    rng = random.Random(7)
    for ring in (Z, Q, F5):
        for _ in range(15):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = _random_int_matrix(rng, rows, cols, 5).change_ring(ring)
            xs = [ring.coerce(rng.randint(-4, 4)) for _ in range(cols)]
            b = [sum(a.get(i, j) * xs[j] for j in range(cols)) for i in range(rows)]
            b = [ring.coerce(v) for v in b]
            res = solve_linear(a, b)
            assert res is not None
            x, kb = res
            assert kb == kernel_basis(a)
            for i in range(rows):
                acc = ring.zero()
                for j in range(cols):
                    acc = ring.add(acc, ring.mul(a.get(i, j), x[j]))
                assert acc == b[i]
            # adding any kernel vector preserves the solution
            for vec in kb:
                y = [ring.add(x[j], vec[j]) for j in range(cols)]
                for i in range(rows):
                    acc = ring.zero()
                    for j in range(cols):
                        acc = ring.add(acc, ring.mul(a.get(i, j), y[j]))
                    assert acc == b[i]


def test_kernel_is_kernel():
    m = ExactMatrix.from_rows(Z, [[2, 4, 6], [1, 2, 3]])
    for vec in kernel_basis(m):
        for i in range(m.rows):
            assert sum(m.get(i, j) * vec[j] for j in range(m.cols)) == 0


def _complex(ring, dims, maps):
    mats = {d: ExactMatrix.from_rows(ring, m) for d, m in maps.items()}
    return ChainComplexSpec(ring, dims, mats)


def test_cohomology_mult_by_two():
    # 0 -> Z --2--> Z -> 0 in degrees 0, 1
    spec = _complex(Z, {0: 1, 1: 1}, {0: [[2]]})
    rep = cohomology(spec)
    assert rep.rank(0) == 0 and rep.torsion(0) == ()
    assert rep.rank(1) == 0 and rep.torsion(1) == (2,)


def test_cohomology_zero_differentials():
    spec = _complex(Z, {0: 2, 1: 3}, {0: [[0, 0], [0, 0], [0, 0]]})
    rep = cohomology(spec)
    assert rep.rank(0) == 2 and rep.rank(1) == 3


def _boundary_matrix(ring, simplices_low, simplices_high):
    # cochain differential of an ordered simplicial complex, for the oracle
    rows = []
    index = {s: i for i, s in enumerate(simplices_low)}
    for high in simplices_high:
        row = [0] * len(simplices_low)
        for k in range(len(high)):
            face = high[:k] + high[k + 1:]
            row[index[face]] += (-1) ** k
        rows.append(row)
    return ExactMatrix.from_rows(ring, rows)


def test_cohomology_boundary_of_tetrahedron():
    # d Delta^3: the 2-sphere; H = (Z, 0, Z) over Z
    verts = [(i,) for i in range(4)]
    edges = sorted((i, j) for i in range(4) for j in range(i + 1, 4))
    tris = sorted((i, j, k) for i in range(4) for j in range(i + 1, 4)
                  for k in range(j + 1, 4))
    d0 = _boundary_matrix(Z, verts, edges)
    d1 = _boundary_matrix(Z, edges, tris)
    spec = ChainComplexSpec(Z, {0: 4, 1: 6, 2: 4}, {0: d0, 1: d1})
    rep = cohomology(spec)
    assert rep.rank(0) == 1 and rep.rank(1) == 0 and rep.rank(2) == 1
    assert rep.torsion(2) == ()
    # independent oracle: ranks over Q agree with the free ranks over Z
    spec_q = ChainComplexSpec(Q, {0: 4, 1: 6, 2: 4},
                              {0: d0.change_ring(Q), 1: d1.change_ring(Q)})
    rep_q = cohomology(spec_q)
    assert all(rep.rank(d) == rep_q.rank(d) for d in (0, 1, 2))


def test_cohomology_rejects_bad_complex():
    spec = _complex(Z, {0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})
    with pytest.raises(ExactLinalgError, match="degree 0"):
        cohomology(spec)


def test_field_rank_agrees_with_integer_free_rank():
    # sanity: mod-p ranks match Z free ranks when p misses the torsion
    spec_z = _complex(Z, {0: 1, 1: 1}, {0: [[2]]})
    rep_z = cohomology(spec_z)
    spec_f5 = _complex(F5, {0: 1, 1: 1}, {0: [[2]]})
    rep_f5 = cohomology(spec_f5)
    for d in (0, 1):
        assert rep_f5.rank(d) == rep_z.rank(d)


def test_report_equality_and_chain_validation():
    rep = CohomologyReport(Z, [(0, 1, ()), (1, 0, (2, 4))])
    rep2 = CohomologyReport(Z, [(1, 0, (2, 4)), (0, 1, ())])
    assert rep == rep2
    with pytest.raises(ExactLinalgError):
        CohomologyReport(Z, [(0, 0, (4, 2))])
    with pytest.raises(ExactLinalgError):
        CohomologyReport(Q, [(0, 0, (2,))])


def test_text_roundtrip():
    m = ExactMatrix.from_rows(Q, [[Fraction(1, 2), 3], [-1, 0]])
    again = ExactMatrix.from_text(m.to_text())
    assert again == m
    mz = ExactMatrix.from_rows(Z, [[1, -7], [0, 5]])
    assert ExactMatrix.from_text(mz.to_text()) == mz
    with pytest.raises(ExactLinalgError):
        ExactMatrix.from_text("1 2 Z\n3\n")


def test_sparse_storage_above_threshold():
    n = 600
    m = ExactMatrix.zeros(Z, n, n)
    assert m.sparse
    for i in range(0, n, 97):
        m.set_entry(i, i, 3)
    mm = m * m
    assert mm.get(0, 0) == 9
    facs = invariant_factors(m)
    assert facs == [3] * len(facs) and len(facs) == len(range(0, n, 97))
    x, kb = solve_linear(m, [0] * n)
    assert all(v == 0 for v in x)
    assert len(kb) == n - len(facs)


def test_rank_and_det():
    m = ExactMatrix.from_rows(Q, [[1, 2], [2, 4]])
    assert rank(m) == 1
    assert det(ExactMatrix.from_rows(Z, [[2, 1], [1, 1]])) == 1
    assert det(ExactMatrix.from_rows(F5, [[2, 0], [0, 3]])) == 1


def test_solve_rejects_dimension_mismatch():
    a = ExactMatrix.from_rows(Z, [[1, 2]])
    with pytest.raises(ExactLinalgError, match="dimension mismatch"):
        solve_linear(a, [1, 2, 3])


def test_field_ranks_agree_with_integer_free_ranks_randomized():
    # build random two-term complexes over Z by taking d1 with columns in
    # the kernel of a random d0-transpose trick: d1 = kernel combinations
    rng = random.Random(12)
    from mctwist.exactlinalg import kernel_basis, cohomology, ChainComplexSpec
    for _ in range(10):
        rows, cols = rng.randint(2, 4), rng.randint(2, 5)
        d0 = _random_int_matrix(rng, rows, cols, 4)
        kb = kernel_basis(d0.transpose())  # vectors v with v^T d0 = 0... no:
        # kernel of d0^T gives rows annihilated on the left; use as d1 rows
        if not kb:
            continue
        d1 = ExactMatrix.from_rows(Z, [list(v) for v in kb])
        spec = ChainComplexSpec(Z, {0: cols, 1: rows, 2: d1.rows},
                                {0: d0, 1: d1})
        rep_z = cohomology(spec)
        torsion_primes = set()
        for d in rep_z.degrees():
            for t in rep_z.torsion(d):
                k = 2
                while k * k <= t:
                    if t % k == 0:
                        torsion_primes.add(k)
                        while t % k == 0:
                            t //= k
                    k += 1
                if t > 1:
                    torsion_primes.add(t)
        p = next(q for q in (7, 11, 13, 17, 19, 23) if q not in torsion_primes)
        fp = Ring.GF(p)
        spec_p = ChainComplexSpec(fp, {0: cols, 1: rows, 2: d1.rows},
                                  {0: d0.change_ring(fp), 1: d1.change_ring(fp)})
        rep_p = cohomology(spec_p)
        for d in (0, 1, 2):
            assert rep_p.rank(d) == rep_z.rank(d), (d, rep_p, rep_z)
        spec_q = ChainComplexSpec(Q, {0: cols, 1: rows, 2: d1.rows},
                                  {0: d0.change_ring(Q), 1: d1.change_ring(Q)})
        rep_q = cohomology(spec_q)
        for d in (0, 1, 2):
            assert rep_q.rank(d) == rep_z.rank(d)


def test_gf_primality_is_bounded_and_exact():
    # 2^61 - 1 is prime; trial division would not finish
    assert Ring.GF(2 ** 61 - 1).p == 2 ** 61 - 1
    # strong pseudoprimes to every prime base up to 31 and 37 respectively
    for composite in (3825123056546413051, 318665857834031151167461):
        with pytest.raises(ExactLinalgError, match="prime"):
            Ring.GF(composite)
    with pytest.raises(ExactLinalgError, match="p < "):
        Ring.GF(2 ** 89 - 1)  # prime, but over the bound
    with pytest.raises(ExactLinalgError, match="p < "):
        Ring.parse("F%d" % PRIME_BOUND)
    sieve = [True] * 3000
    for n in range(2, 3000):
        if sieve[n]:
            for m in range(n * n, 3000, n):
                sieve[m] = False
    primes = [n for n in range(2, 3000) if sieve[n]]
    found = []
    for n in range(3000):
        try:
            found.append(Ring.GF(n).p)
        except ExactLinalgError:
            pass
    assert found == primes


# -- oracles built by construction, sharing no code with the kernels -------------
#
# A complex C^0 -> ... -> C^L over Z is built as d_k = P_{k+1} D_k P_k^{-1}.
# C^k has coordinates [B_k | F_k | S_k] of sizes r_{k-1}, f_k, r_k, and D_k
# maps S_k onto B_{k+1} by diag(e_{k,1}, ..., e_{k,r_k}), a divisibility
# chain, so D_{k+1} D_k = 0 and H^k = Z^{f_k} + torsion(e_{k-1}).  Each P_k
# is a seeded product of elementary row operations; P_k^{-1} replays them
# backwards with inverted parameters.


def _matmul(a, b, rows, inner, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def _unimodular_pair(n, seed):
    rng = random.Random(seed)
    ops = []
    for _ in range(rng.randint(0, 3 * n)):
        kind = rng.choice(("add", "add", "swap", "neg"))
        i = rng.randrange(n)
        j = rng.choice([x for x in range(n) if x != i] or [i])
        ops.append((kind, i, j, rng.choice((-3, -2, -1, 1, 2, 3))))

    def apply(mat, op, sign):
        kind, i, j, c = op
        if kind == "add" and i != j:
            mat[i] = [x + sign * c * y for x, y in zip(mat[i], mat[j])]
        elif kind == "swap":
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == "neg":
            mat[i] = [-x for x in mat[i]]

    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for op in ops:
        apply(p, op, 1)
    for op in reversed(ops):
        apply(p_inv, op, -1)
    assert _matmul(p, p_inv, n, n, n) == [[int(i == j) for j in range(n)] for i in range(n)]
    return p, p_inv


@st.composite
def _chains(draw):
    length = draw(st.integers(0, 3))
    out, e = [], 1
    for _ in range(length):
        e *= draw(st.sampled_from((1, 1, 2, 3, 4)))
        out.append(e)
    return out


@st.composite
def _constructed_complexes(draw):
    top = draw(st.integers(0, 3))                     # degrees 0..top
    chains = [draw(_chains()) for _ in range(top)] + [[]]
    free = [draw(st.integers(0, 2)) for _ in range(top + 1)]
    ranks = [len(c) for c in chains]
    dims = [(ranks[k - 1] if k else 0) + free[k] + ranks[k] for k in range(top + 1)]
    seeds = [draw(st.integers(0, 2 ** 32)) for _ in range(top + 1)]
    units = [_unimodular_pair(n, seed) for n, seed in zip(dims, seeds)]
    maps = {}
    for k in range(top):
        diag = [[0] * dims[k] for _ in range(dims[k + 1])]
        start = (ranks[k - 1] if k else 0) + free[k]
        for i, e in enumerate(chains[k]):
            diag[i][start + i] = e
        left = _matmul(units[k + 1][0], diag, dims[k + 1], dims[k + 1], dims[k])
        maps[k] = _matmul(left, units[k][1], dims[k + 1], dims[k], dims[k])
    expected = [(k, free[k], [e for e in (chains[k - 1] if k else []) if e != 1])
                for k in range(top + 1)]
    return dims, maps, expected


def _spec(ring, dims, maps):
    return ChainComplexSpec(ring, dict(enumerate(dims)),
                            {k: ExactMatrix(ring, dims[k + 1], dims[k], m)
                             for k, m in maps.items()})


def _prime_factors(n):
    out, k = set(), 2
    while k * k <= n:
        while n % k == 0:
            out.add(k)
            n //= k
        k += 1
    return out | ({n} if n > 1 else set())


@settings(max_examples=60, deadline=None)
@given(_constructed_complexes())
def test_cohomology_of_constructed_complexes(case):
    dims, maps, expected = case
    assert cohomology(_spec(Z, dims, maps)) == CohomologyReport(Z, expected)


@settings(max_examples=60, deadline=None)
@given(_constructed_complexes())
def test_euler_characteristic_and_universal_coefficients(case):
    dims, maps, _ = case
    rep = cohomology(_spec(Z, dims, maps))
    euler = sum((-1) ** k * n for k, n in enumerate(dims))
    assert sum((-1) ** k * rep.rank(k) for k in range(len(dims))) == euler
    rep_q = cohomology(_spec(Q, dims, maps))
    assert all(rep_q.rank(k) == rep.rank(k) for k in range(len(dims)))
    torsion_primes = set()
    for k in rep.degrees():
        for t in rep.torsion(k):
            torsion_primes |= _prime_factors(t)
    spare = next(q for q in (5, 7, 11, 13) if q not in torsion_primes)
    for p in sorted(torsion_primes) + [spare]:
        rep_p = cohomology(_spec(Ring.GF(p), dims, maps))
        # H^k(C (x) F_p) = H^k(C) (x) F_p  +  Tor(H^{k+1}(C), F_p)
        for k in range(len(dims)):
            hits = sum(1 for t in rep.torsion(k) + rep.torsion(k + 1) if t % p == 0)
            assert rep_p.rank(k) == rep.rank(k) + hits, (p, k)
        assert sum((-1) ** k * rep_p.rank(k) for k in range(len(dims))) == euler


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2 ** 32))
def test_snf_certificate_and_q_rank(rows, cols, seed):
    rng = random.Random(seed)
    m = ExactMatrix(Z, rows, cols, [[rng.choice((0, 0, 1, -1, 2, -3, 6)) for _ in range(cols)]
                                    for _ in range(rows)])
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert det(u) in (1, -1) and det(v) in (1, -1)
    assert all(i == j and x > 0 for (i, j), x in d.nonzero_items())
    facs = invariant_factors(m)
    assert all(b % a == 0 for a, b in zip(facs, facs[1:]))
    assert rank(m.change_ring(Q)) == len(facs)


@settings(max_examples=40, deadline=None)
@given(_chains(), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2 ** 32))
def test_invariant_factors_of_constructed_matrix(chain, extra_rows, extra_cols, seed):
    rows, cols = len(chain) + extra_rows, len(chain) + extra_cols
    diag = [[chain[i] if i == j and i < len(chain) else 0 for j in range(cols)]
            for i in range(rows)]
    p, _ = _unimodular_pair(rows, seed)
    _, q = _unimodular_pair(cols, seed + 1)
    m = _matmul(_matmul(p, diag, rows, rows, cols), q, rows, cols, cols)
    assert invariant_factors(ExactMatrix(Z, rows, cols, m)) == chain


def test_cohomology_of_torus_6x6_over_z():
    from mctwist.simplicial import circle, cochain_algebra, product
    t = product(circle(6), circle(6))
    assert cochain_algebra(t, Z).cohomology() == CohomologyReport(
        Z, [(0, 1, ()), (1, 2, ()), (2, 1, ())])
