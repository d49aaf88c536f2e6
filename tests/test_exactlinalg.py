import ast
import random
import re
from fractions import Fraction
from pathlib import Path

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
    invariant_factors,
    is_invertible,
    kernel_basis,
    rank,
    rref,
    smith_normal_form,
    solve_columns,
    solve_equations,
    solve_linear,
    solve_many,
)

Z = Ring.Z()
Q = Ring.Q()
F5 = Ring.GF(5)


def det(m):
    """Determinant by elimination on plain Fractions, reduced mod p over F_p.

    An oracle: it shares no code with the exact-linalg kernels.
    """
    assert m.rows == m.cols
    n = m.rows
    work = [[Fraction(x) for x in m.row_list(i)] for i in range(n)]
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            out = -out
        out *= work[k][k]
        for i in range(k + 1, n):
            f = work[i][k] / work[k][k]
            work[i] = [x - f * y for x, y in zip(work[i], work[k])]
    if m.ring.kind == "Fp":
        return out.numerator * pow(out.denominator, -1, m.ring.p) % m.ring.p
    return out


def test_ring_parse_and_coerce():
    assert Ring.parse("Z") == Z
    assert Ring.parse("F7").p == 7
    assert Ring.GF(7).name == "F7"
    assert Q.coerce("3/4") == Fraction(3, 4)
    assert F5.coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    with pytest.raises(ExactLinalgError):
        Ring.GF(6)
    with pytest.raises(ExactLinalgError):
        Z.coerce(Fraction(1, 2))


@pytest.mark.parametrize("ring", [Ring.Z(), Ring.Q(), Ring.GF(2), Ring.GF(7),
                                  Ring.GF(2 ** 61 - 1)], ids=lambda r: r.name)
def test_a_ring_is_an_immutable_value(ring):
    import copy
    import pickle
    twin = Ring(ring.kind, ring.p)
    assert twin == ring and hash(twin) == hash(ring) == hash((ring.kind, ring.p))
    assert len({ring, twin}) == 1
    assert ring != Ring.GF(3) and ring != (ring.kind, ring.p) and ring != ring.name
    assert repr(ring) == "Ring(kind=%r, p=%r)" % (ring.kind, ring.p)
    assert repr(Ring.Z()) == "Ring(kind='Z', p=0)" and Ring("Q") == Ring(kind="Q", p=0)
    assert repr(ExactMatrix.zeros(ring, 2, 3)) == "ExactMatrix(%s, 2x3)" % ring.name
    for clone in (copy.copy(ring), copy.deepcopy(ring), pickle.loads(pickle.dumps(ring)),
                  copy.deepcopy({"ring": [ring]})["ring"][0]):
        assert clone == ring and clone.sign(1) == ring.sign(1) and clone.name == ring.name
    for name in ("kind", "p", "_signs", "other"):
        with pytest.raises(AttributeError):
            setattr(ring, name, 5)
        with pytest.raises(AttributeError):
            delattr(ring, name)
    assert ring == twin


@pytest.mark.parametrize("kind, p", [("R", 0), ("Fp", 0), ("Fp", 1), ("Fp", 6), ("Fp", -7)])
def test_a_ring_refuses_a_kind_or_a_p(kind, p):
    with pytest.raises(ExactLinalgError, match="unknown ring kind|prime p"):
        Ring(kind, p)


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


def test_sparse_storage_above_threshold():
    n = 600
    m = ExactMatrix.zeros(Z, n, n)
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


# _rediagonalize_pair as it was before its second loop became one column step:
# a Euclid loop on row t that could also swap columns t and t + 1.  Each
# matrix below reaches the chain fix d_i | d_{i+1}; U, D and V must not move.


def _rediagonalize_pair_reference(a, u, vt, t, seen):
    from mctwist.exactlinalg import _Z, _add_col, _negate_row, _swap_cols, _swap_rows
    seen["calls"] += 1
    while True:
        x, y = a[t].get(t, 0), a[t + 1].get(t, 0)
        if y == 0:
            break
        if x != 0 and abs(x) <= abs(y):
            q = y // x
            _Z.axpy(a[t + 1], -q, a[t])
            _Z.axpy(u[t + 1], -q, u[t])
        else:
            _swap_rows(a, t, t + 1)
            _swap_rows(u, t, t + 1)
    x, y = a[t].get(t, 0), a[t].get(t + 1, 0)
    while y != 0:
        seen["column steps"] += 1
        if x != 0 and abs(x) <= abs(y):
            q = y // x
            seen["inexact"] += q * x != y
            _add_col(a, t + 1, t, -q)
            _Z.axpy(vt[t + 1], -q, vt[t])
        else:
            seen["column swaps"] += 1
            _swap_cols(a, t, t + 1)
            _swap_rows(vt, t, t + 1)
        x, y = a[t].get(t, 0), a[t].get(t + 1, 0)
    for i in (t, t + 1):
        if a[i].get(i, 0) < 0:
            _negate_row(a, i)
            _negate_row(u, i)


def _chain_fix_matrices():
    """diag(2, 3), diag(4, 6) and diag(6, 10, 15) inside larger matrices, with
    their rows and columns shuffled and, half the time, mixed by unimodular
    pairs; and seeded small matrices of such entries."""
    rng = random.Random(39)
    for chain in ((2, 3), (4, 6), (6, 10, 15), (3, 2), (15, 10, 6)):
        for trial in range(12):
            rows, cols = len(chain) + rng.randint(0, 3), len(chain) + rng.randint(0, 3)
            m = [[0] * cols for _ in range(rows)]
            for i, c in enumerate(chain):
                m[i][i] = c
            for i in range(len(chain), rows):  # a block beside the chain
                for j in range(len(chain), cols):
                    m[i][j] = rng.choice((0, 0, 1, 2, 5, -7))
            rng.shuffle(m)
            order = rng.sample(range(cols), cols)
            m = [[row[j] for j in order] for row in m]
            if trial % 2:
                p, _ = _unimodular_pair(rows, rng.randrange(2 ** 32))
                _, q = _unimodular_pair(cols, rng.randrange(2 ** 32))
                m = _matmul(_matmul(p, m, rows, rows, cols), q, rows, cols, cols)
            yield ExactMatrix.from_rows(Z, m)
    for _ in range(300):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        yield ExactMatrix.from_rows(Z, [[rng.choice((0, 0, 0, 2, 3, -4, 6, 10, -15))
                                         for _ in range(cols)] for _ in range(rows)])


def test_the_chain_fix_is_the_reference_pair_rediagonalization(monkeypatch):
    from mctwist import exactlinalg
    seen = dict.fromkeys(("calls", "column steps", "column swaps", "inexact"), 0)
    fixes = 0
    for m in _chain_fix_matrices():
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        before = seen["calls"]
        with monkeypatch.context() as patch:
            patch.setattr(exactlinalg, "_rediagonalize_pair",
                          lambda a, u, vt, t: _rediagonalize_pair_reference(a, u, vt, t, seen))
            assert smith_normal_form(m) == (u, d, v)
        fixes += seen["calls"] > before
    # the second loop took exactly one exact step a call, and never swapped
    assert seen["column steps"] == seen["calls"] >= 200
    assert seen["column swaps"] == seen["inexact"] == 0
    assert fixes >= 100, fixes


def test_cohomology_of_torus_6x6_over_z():
    from mctwist.simplicial import circle, cochain_algebra, product
    t = product(circle(6), circle(6))
    assert cochain_algebra(t, Z).cohomology() == CohomologyReport(
        Z, [(0, 1, ()), (1, 2, ()), (2, 1, ())])


# -- the row-sparse storage against list-of-lists arithmetic -----------------
#
# Shapes sit on both sides of 512, where the storage used to switch from
# dense lists to a triplet dict: one of the three sides of a product may be
# that long.  Most rows and columns of a drawn matrix are all zero.  The
# reference below is plain arithmetic on lists of lists.


def _sparse_lists(rng, ring, rows, cols):
    values = {"Z": [-9, -2, -1, 1, 2, 3, 7], "Fp": [1, 2, 3, 4],
              "Q": [Fraction(-9, 4), Fraction(-1), Fraction(1, 3), Fraction(2), Fraction(5, 2)]}
    m = [[0] * cols for _ in range(rows)]
    if rows and cols:
        for _ in range(rng.randint(0, 12)):
            m[rng.randrange(rows)][rng.randrange(cols)] = rng.choice(values[ring.kind])
    return m


def _ref_reduce(ring, m):
    return [[x % ring.p if ring.kind == "Fp" else x for x in row] for row in m]


def _ref_product(a, b, inner, cols):
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for k in range(inner):
            if row[k]:
                for j in range(cols):
                    out[i][j] += row[k] * b[k][j]
    return out


def _agrees(m, ref):
    # entries and nonzero_items(), row-major with ascending columns
    return [m.row_list(i) for i in range(m.rows)] == ref and list(m.nonzero_items()) == [
        ((i, j), x) for i, row in enumerate(ref) for j, x in enumerate(row) if x != 0]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Z, Q, F5]), st.lists(st.sampled_from([0, 1, 3]), min_size=3, max_size=3),
       st.integers(0, 2), st.sampled_from([0, 1, 3, 511, 512, 513]), st.integers(0, 2 ** 32))
def test_storage_agrees_with_list_arithmetic(ring, sides, long_side, length, seed):
    sides[long_side] = length
    rows, inner, cols = sides
    rng = random.Random(seed)
    a = _sparse_lists(rng, ring, rows, inner)
    a2 = [row[:] for row in a] if rng.random() < 0.2 else _sparse_lists(rng, ring, rows, inner)
    b = _sparse_lists(rng, ring, inner, cols)
    c = rng.randint(-3, 3)
    ma, ma2, mb = (ExactMatrix(ring, len(m), n, m)
                   for m, n in ((a, inner), (a2, inner), (b, cols)))

    assert _agrees(ma, a)
    assert _agrees(ma + ma2, _ref_reduce(ring, [[x + y for x, y in zip(r, r2)]
                                                for r, r2 in zip(a, a2)]))
    assert _agrees(ma - ma2, _ref_reduce(ring, [[x - y for x, y in zip(r, r2)]
                                                for r, r2 in zip(a, a2)]))
    assert _agrees(-ma, _ref_reduce(ring, [[-x for x in r] for r in a]))
    assert _agrees(ma.scale(c), _ref_reduce(ring, [[c * x for x in r] for r in a]))
    assert _agrees(ma * mb, _ref_reduce(ring, _ref_product(a, b, inner, cols)))
    cancelling = ExactMatrix(ring, rows, 2 * inner, [r + [-x for x in r] for r in a])
    assert _agrees(cancelling * ExactMatrix(ring, 2 * inner, cols, b + b),
                   [[0] * cols for _ in range(rows)])
    assert _agrees(ma.transpose(), [[a[i][j] for i in range(rows)] for j in range(inner)])
    assert (ma == ma2) == (a == a2)
    assert ma == ma.copy() and ma.is_zero() == (not any(map(any, a)))


# -- Ring.axpy, the one sparse linear-combination primitive ---------------------


def _canonical(q):
    # a rational as Ring stores it over Q: an int when integral
    return q.numerator if q.denominator == 1 else q


def _is_canonical(v):
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _axpy_scalars(ring):
    # small values, so that a sum cancels often; over F_p, -3..3 reduced
    if ring.kind == "Q":
        return st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2])).map(_canonical)
    return st.integers(-3, 3).map(ring.coerce)


@st.composite
def _axpy_cases(draw):
    ring = draw(st.sampled_from([Z, Q, F5, Ring.GF(2 ** 61 - 1)]))
    keys = draw(st.lists(st.sampled_from("abcdefghijkl"), max_size=12, unique=True))
    values = _axpy_scalars(ring)
    y = {k: v for k, v in ((k, draw(values)) for k in keys if draw(st.booleans())) if v != 0}
    x = {k: draw(values) for k in draw(st.permutations(keys)) if draw(st.booleans())}
    # the callers pass ring elements and the literals 1 and -1
    c = draw(st.one_of(values, st.sampled_from([1, -1])))
    return ring, y, c, x


@settings(max_examples=300, deadline=None)
@given(_axpy_cases())
def test_axpy_agrees_with_plain_arithmetic(case):
    ring, y, c, x = case
    p = ring.p
    plain = dict(y)
    for k, v in x.items():
        plain[k] = plain.get(k, 0) + c * v
    plain = {k: v % p if p else v for k, v in plain.items()}
    plain = {k: v for k, v in plain.items() if v != 0}
    y0 = dict(y)

    out = ring.axpy(y, c, x)
    assert out is y
    assert y == plain
    assert 0 not in y.values()
    if ring.kind == "Q":
        assert all(_is_canonical(v) for v in y.values())
    elif ring.kind == "Fp":
        assert all(type(v) is int and 0 < v < p for v in y.values())
    # the kept keys of y stay in place and the new ones follow in the order of x
    assert list(y) == [k for k in y0 if k in y] + [k for k in x if k in y and k not in y0]
    # a cancelled key that is added again comes last
    cancelled = [k for k in y0 if k not in y]
    kept = list(y)
    ring.axpy(y, 1, {k: ring.one() for k in cancelled})
    assert list(y) == kept + cancelled


# -- canonical Q scalars: an int exactly when integral ---------------------------


_rationals = st.one_of(st.integers(-6, 6),
                       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def test_coerce_gives_the_canonical_form():
    cases = [(3, 3), (-4, -4), (0, 0), (Fraction(6, 2), 3), (Fraction(-3, 4), Fraction(-3, 4)),
             ("6/3", 2), ("-3/4", Fraction(-3, 4)), ("5", 5), ("0/7", 0), ("10/4", Fraction(5, 2))]
    for x, want in cases:
        v = Q.coerce(x)
        assert v == want and _is_canonical(v), x
    assert type(Q.zero()) is int and type(Q.one()) is int


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals)
def test_q_arithmetic_is_canonical(a, b):
    fa, fb = Fraction(a), Fraction(b)
    results = [(Q.add(a, b), fa + fb), (Q.sub(a, b), fa - fb), (Q.mul(a, b), fa * fb),
               (Q.neg(a), -fa), (Q.coerce(a), fa), (Q.coerce(str(a)), fa)]
    if b != 0:
        results += [(Q.inv(b), 1 / fb), (Q.div(a, b), fa / fb)]
    for got, want in results:
        assert got == want and _is_canonical(got), (a, b, got)


def _fraction_path(s):
    """The README grammar, ASCII -?digits or -?digits/digits, read by Fraction.

    Fraction(str) alone is more lenient ("0.5", "1_0", " 7", "+3", "1e5"
    and non-ASCII digits); those strings are refused at the input boundary.
    """
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
        return None
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


def _assert_string_scalar_parses_like_fraction(s):
    from mctwist.exactlinalg import _exact_scalar
    want = _fraction_path(s)
    if want is None:
        with pytest.raises(ExactLinalgError, match="not an exact scalar"):
            _exact_scalar(s)
        return
    got = _exact_scalar(s)
    assert got == want and type(got) in (int, Fraction), s
    for ring, defined in ((Q, True), (Z, want.denominator == 1),
                          (F5, want.denominator % 5 != 0)):
        if defined:
            a, b = ring.coerce(s), ring.coerce(want)
            assert a == b and type(a) is type(b), (ring.name, s)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10 ** 30, 10 ** 30).map(str),
                 st.from_regex(r"\A-?[0-9]{1,6}\Z"),
                 st.from_regex(r"\A[-+ ]?[0-9]{0,4}([/._][0-9]{0,3})?[ ]?\Z"),
                 st.text(max_size=6)))
def test_string_scalars_parse_like_fraction(s):
    _assert_string_scalar_parses_like_fraction(s)


@pytest.mark.parametrize("s", ["1_0", " 7", "+3", "\u0663", "\u00b2", "1e5", "", "-",
                               "0x10", "--1", "-0", "007", "1" * 5000, "3/0", "0.5",
                               "3/-4", "3/+4", "-3/4", "7\n", "1/2/3", "/2", "2/"])
def test_edge_case_string_scalars_behave_as_before(s):
    """Only the README grammar is accepted; "0.5", "1_0", " 7", "+3" and
    non-ASCII digits, which Fraction(str) takes, are refused."""
    _assert_string_scalar_parses_like_fraction(s)


def test_integral_products_of_fractions_are_ints():
    half = Fraction(1, 2)
    for got, want in ((Q.mul(half, 2), 1), (Q.mul(2, half), 1), (Q.add(half, half), 1),
                      (Q.sub(Fraction(5, 2), half), 2), (Q.inv(half), 2),
                      (Q.div(3, Fraction(3, 2)), 2), (Q.neg(Fraction(4, 2)), -2),
                      (Q.axpy({"a": half}, 2, {"a": half})["a"], Fraction(3, 2)),
                      (Q.axpy({"a": half}, half, {"a": 3})["a"], 2)):
        assert got == want and type(got) is type(want)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32))
def test_q_kernels_store_canonical_values(rows, cols, seed):
    from mctwist.simplicial import solve_invertibility
    rng = random.Random(seed)
    values = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2), Fraction(3, 2)]
    m = ExactMatrix(Q, rows, cols, [[rng.choice(values) for _ in range(cols)]
                                    for _ in range(rows)])
    sq = ExactMatrix(Q, cols, cols, [[rng.choice(values) for _ in range(cols)]
                                     for _ in range(cols)])
    stored = [v for _, v in m.nonzero_items()]
    stored += [v for _, v in rref(m)[0].nonzero_items()]
    stored += [v for vec in kernel_basis(m) for v in vec]
    sol = solve_linear(m, [rng.choice(values) for _ in range(rows)])
    if sol is not None:
        stored += sol[0] + [v for vec in sol[1] for v in vec]
    inv = solve_invertibility(sq)
    if inv is not None:
        stored += [v for _, v in inv.nonzero_items()]
    for prod in (m * sq, sq * sq, sq - sq.scale(Fraction(1, 2)), -sq):
        stored += [v for _, v in prod.nonzero_items()]
    assert all(_is_canonical(v) for v in stored)


@pytest.mark.parametrize("ring", [Z, Q, F5, Ring.GF(2 ** 61 - 1), Ring.GF(2)],
                         ids=lambda r: r.name)
def test_sign_is_minus_one_to_the_k(ring):
    for k in range(-7, 8):
        s = ring.sign(k)
        assert s == ring.coerce(Fraction(-1) ** k) and type(s) is int, k


def _source_hits(pattern, skip=()):
    """(file:line, file name, text, match) for each hit of ``pattern`` in the
    package sources, the files named in ``skip`` left out."""
    sources = sorted((Path(__file__).resolve().parent.parent / "src" / "mctwist").glob("*.py"))
    assert sources
    for path in sources:
        if path.name in skip:
            continue
        text = path.read_text()
        for hit in pattern.finditer(text):
            where = "%s:%d" % (path.name, text.count("\n", 0, hit.start()) + 1)
            yield where, path.name, text, hit


def test_no_hand_written_accumulation_outside_ring_axpy():
    """``ring.add(d.get(k, ...), ...)`` is the loop that Ring.axpy replaces."""
    pattern = re.compile(r"ring\.(add|sub)\(\s*[a-z_]+\.get\(")
    assert pattern.search("out[k] = ring.add(out.get(k, ring.zero()), v)")
    assert pattern.search("m.set_entry(i, j, ring.add(m.get(i, j), c))")
    bad = [where for where, *_ in _source_hits(pattern)]
    assert not bad, "accumulate through Ring.axpy: %s" % ", ".join(bad)


def test_no_bare_rank_call_outside_exactlinalg():
    """Independence is read off the pivot columns of one rref, not decided by
    a rank per candidate; ``rep.rank(d)`` and the like are other methods."""
    pattern = re.compile(r"(?<![\w.])rank\(")
    assert pattern.search("if rank(ExactMatrix(ring, 2, 2, span)) > 1:")
    assert not pattern.search("entry = {'rank': rep.rank(d)}")
    assert not pattern.search("def minimal_rank(x):")
    bad = [where for where, *_ in _source_hits(pattern, skip=("exactlinalg.py",))]
    assert not bad, "choose independent vectors by one rref: %s" % ", ".join(bad)


def test_matrices_are_built_from_columns_outside_exactlinalg():
    """Outside exactlinalg (and io's dense JSON format) a matrix is built by
    ExactMatrix.from_columns: no zero matrix filled by set_entry and no
    dense list of lists through the constructor."""
    pattern = re.compile(r"\.set_entry\(|(?<![\w.])ExactMatrix\(")
    assert pattern.search("        aug.set_entry(i, n + i, ring.one())")
    assert pattern.search("    mat = ExactMatrix(ring, len(rows), n, rows)")
    assert not pattern.search("    mat = ExactMatrix.from_columns(ring, cols, dst)")
    assert not pattern.search("def solve_invertibility(m: ExactMatrix):")
    bad = [where for where, *_ in _source_hits(pattern, skip=("exactlinalg.py", "io.py"))]
    assert not bad, "build the matrix with ExactMatrix.from_columns: %s" % ", ".join(bad)


def _bound(func):
    """The names a function binds itself: its arguments and what it assigns."""
    args = func.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    out.update(a.arg for a in (args.vararg, args.kwarg) if a)
    out.update(n.id for n in ast.walk(func)
               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return out


def _names_read(tree):
    """Every name a module reads: bare names, attributes, imported names and the
    parts of dotted identifier strings such as ``"mc.hom_twist"``.  A function
    calling itself (by name, or a method through ``self``) does not count, nor
    does a name that the reading function binds itself."""
    out = set()

    def visit(node, own, bound):
        if isinstance(node, ast.Name) and node.id != own and node.id not in bound:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "self" and node.attr == own):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "." in node.value \
                and all(part.isidentifier() for part in node.value.split(".")):
            out.update(node.value.split("."))
        if isinstance(node, ast.FunctionDef):
            own, bound = node.name, _bound(node)
        for child in ast.iter_child_nodes(node):
            visit(child, own, bound)

    visit(tree, None, set())
    return out


def _unreached(sources, readers, exported=()):
    """``module.function`` and ``module.Class.method`` for each top-level
    function and public method of ``sources`` that no module of ``readers``
    reads and ``exported`` does not name."""
    read = set(exported).union(*(_names_read(ast.parse(p.read_text())) for p in readers))
    out = []
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                out += ["%s.%s" % (path.stem, node.name)] if node.name not in read else []
            elif isinstance(node, ast.ClassDef):
                out += ["%s.%s.%s" % (path.stem, node.name, m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                        and m.name not in read]
    return out


# what nothing in the package or the benchmark calls, kept for a stated reason
KEPT_UNREACHED = {
    "dgcore.HomComplex.as_dgmodule": "Hom(M, N) as a complex: the only route to H(Hom)",
    "exactlinalg.ExactMatrix.set_entry": "ExactMatrix's entry writer, beside the dense constructor",
    "holonomy.pexp": "P exp of a callable y on [0, z]: the holonomy acceptance tests use it",
    "interval.IntervalAlgebra.ev0": "the evaluation K_n* -> k at the pinned vertex e",
    "interval.IntervalAlgebra.ev1": "the evaluation K_n* -> k at the pinned vertex f",
    "mc.H0Category.table": "every composition structure constant of H^0 at once",
    "perturbation.truncate_above": "tau_{>=i}, the cone of tau_{<=i-1} M -> M",
    "polyderham.polynomial_de_rham_dga": "the polynomial de Rham side of Riemann-Hilbert",
    "polyderham.one_form": "the polynomial de Rham side of Riemann-Hilbert",
    "polyderham.polynomial_mc_category": "the polynomial de Rham side of Riemann-Hilbert",
    "simplicial.FiniteSimplicialSet.add_simplex": "the checked way to enter a simplex (README)",
    "simplicial.FiniteSimplicialSet.face": "the face map d_i (the simplicial identity tests)",
    "simplicial.boundary_simplex": "the boundary of Delta^n, which the acceptance tests use",
    "simplicial.is_dga_map": "README names it: checks a map of dg algebras",
    "simplicial.pullback_local_system": "pullback along a simplicial map (acceptance tests)",
}


def test_every_function_in_src_is_run_by_the_package_or_the_benchmark(tmp_path):
    """A top-level function or public method that neither the package, the
    benchmark nor ``mctwist.__all__`` reaches is an alias of a route the
    library has, a test oracle (which lives in its test file), or kept for
    the reason stated in KEPT_UNREACHED."""
    import mctwist
    demo = tmp_path / "demo.py"
    demo.write_text('''"""Docstring words such as dead or alias reach nothing."""
def dead(n):
    return dead(n - 1)
def unread():
    return "mc.alias"
def alias():
    pass
def mode():
    return "argument"
def argument(mode):
    return mode
def local():
    argument = mode
    return argument
class C:
    def own(self):
        return self.own() + self.other.own()
    def _private(self):
        pass
def __getattr__(name):
    pass
''')
    # an undotted string, an argument and an assigned local read nothing,
    # but the right-hand side of ``argument = mode`` reads mode
    assert _unreached([demo], [demo]) == ["demo.dead", "demo.unread", "demo.argument",
                                          "demo.local"]
    assert _unreached([demo], [demo], exported=["unread", "local"]) == ["demo.dead",
                                                                       "demo.argument"]
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src" / "mctwist").glob("*.py"))
    readers = sources + sorted((root / "perfbench").glob("*.py"))
    assert len(sources) > 10 and len(readers) > len(sources)
    unreached = _unreached(sources, readers, mctwist.__all__)
    assert sorted(unreached) == sorted(KEPT_UNREACHED), \
        sorted(set(unreached) ^ set(KEPT_UNREACHED))


def test_numpy_is_imported_only_by_holonomy():
    """The exact layers never touch floats: numpy stays out of every import
    but holonomy's, so the exact subcommands do not load it."""
    pattern = re.compile(r"^[ \t]*(?:import|from)[ \t]+numpy\b", re.M)
    assert pattern.search("import numpy as np")
    assert pattern.search("    from numpy import linalg")
    assert not pattern.search("import numpydoc")
    assert not pattern.search("# numpy is imported only here")
    where = {name: w for w, name, *_ in _source_hits(pattern)}
    assert list(where) == ["holonomy.py"], "numpy imported outside holonomy: %s" % where


# -- invariant factors by unit-pivot contraction -----------------------------------
#
# invariant_factors contracts the +-1 pivots and sends only the rest through
# smith_normal_form; the reference is the nonzero diagonal of the Smith form
# of the whole matrix.


def _snf_diagonal(m):
    _, d, _ = smith_normal_form(m)
    return [v for i in range(min(d.rows, d.cols)) if (v := d.get(i, i)) != 0]


@st.composite
def _sparse_int_matrices(draw):
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    seed = draw(st.integers(0, 2 ** 32))
    rng = random.Random(seed)
    if draw(st.booleans()) and rows == cols:
        # P * D * Q with a chain of units and torsion on the diagonal
        diag = [[0] * cols for _ in range(rows)]
        e = 1
        for i in range(rng.randint(0, rows)):
            e *= rng.choice((1, 1, 1, 2, 3))
            diag[i][i] = e
        p, _ = _unimodular_pair(rows, seed)
        _, q = _unimodular_pair(cols, seed + 1)
        m = _matmul(_matmul(p, diag, rows, rows, cols), q, rows, cols, cols)
    else:
        values = (1, -1, 1, -1, 2, -2, 3, 4, -6, 12)
        density = draw(st.sampled_from((0.1, 0.3, 0.6)))
        m = [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
    for i in range(rows):  # zero rows
        if rng.random() < 0.15:
            m[i] = [0] * cols
    for j in range(cols):  # zero columns
        if rng.random() < 0.15:
            for row in m:
                row[j] = 0
    return ExactMatrix(Z, rows, cols, m)


@settings(max_examples=300, deadline=None)
@given(_sparse_int_matrices())
def test_invariant_factors_match_the_smith_diagonal(m):
    facs = invariant_factors(m)
    assert facs == _snf_diagonal(m)
    assert all(type(f) is int for f in facs)
    assert rank(m) == len(facs) == rank(m.change_ring(Q))



_FIELDS = (Q, Ring.GF(2), Ring.GF(3), F5, Ring.GF(7))


@settings(max_examples=300, deadline=None)
@given(_sparse_int_matrices(), st.sampled_from(_FIELDS), st.integers(0, 2 ** 32))
def test_field_invariant_factors_are_the_rref_rank(m, ring, seed):
    # over Q the rows are scaled by fractions first, which keeps the rank
    rng = random.Random(seed)
    scale = [Fraction(rng.choice((-7, -2, 1, 3, 5)), rng.choice((1, 2, 9)))
             for _ in range(m.rows)]
    if ring == Q:
        m = ExactMatrix.from_rows(Q, [[c * x for x in m.row_list(i)]
                                      for i, c in enumerate(scale)])
    else:
        m = m.change_ring(ring)
    facs = invariant_factors(m)
    assert facs == [1] * len(_probe_rref(m)[1])
    assert all(type(f) is int for f in facs)
    assert rank(m) == len(facs)


def test_invariant_factors_send_only_the_non_unit_core_to_the_smith_form(monkeypatch):
    from mctwist import exactlinalg
    seen = []
    snf = exactlinalg.smith_normal_form
    monkeypatch.setattr(exactlinalg, "smith_normal_form",
                        lambda m: seen.append((m.rows, m.cols)) or snf(m))
    # a unimodular matrix contracts completely
    assert invariant_factors(ExactMatrix.from_rows(Z, [[2, 1], [1, 1]])) == [1, 1]
    assert seen == []
    # (0, 0) is a unit pivot; what is left is [[2, 4], [6, 8]]
    m = ExactMatrix.from_rows(Z, [[1, 5, 7], [0, 2, 4], [0, 6, 8], [3, 15, 21]])
    assert invariant_factors(m) == [1, 2, 4]
    assert seen == [(2, 2)]
    assert _snf_diagonal(m) == [1, 2, 4]
    # over a field every nonzero entry is a unit and no core is left: the
    # rank is the number of factors [1, 2, 4] that are units there
    seen.clear()
    assert invariant_factors(m.change_ring(Q)) == [1, 1, 1]
    assert invariant_factors(m.change_ring(Ring.GF(2))) == [1]
    assert seen == []


def _rp2():
    # the six-vertex real projective plane
    return [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
            (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def _klein(n, m):
    # n x m squares, each cut into four triangles around its centre, with
    # (0, y) ~ (n, y) and (x, 0) ~ (n - x, m)
    def corner(x, y):
        if y == m:
            x, y = n - x, 0
        return (x % n, y)
    names, tris = {}, []
    for i in range(n):
        for j in range(m):
            a, b, c, d = corner(i, j), corner(i + 1, j), corner(i + 1, j + 1), corner(i, j + 1)
            z = ("c", i, j)
            tris += [(a, b, z), (b, c, z), (c, d, z), (d, a, z)]
    for t in tris:
        for v in t:
            names.setdefault(v, len(names))
    return [tuple(sorted(names[v] for v in t)) for t in tris]


def _differentials(spec):
    return [spec.d(k) for k in sorted(spec.dims)]


def _local_system_differentials(base, rank_, edges):
    from mctwist.dgcore import GradedModule
    from mctwist.simplicial import LocalSystem, twisted_system
    v = GradedModule(Z, [(("v", i), 0) for i in range(rank_)])
    return _differentials(twisted_system(LocalSystem(base, v, edges)).module().complex())


def _spaces_with_torsion():
    from mctwist.simplicial import circle, cochain_algebra, from_ordered_complex, product
    rot = ExactMatrix.from_rows(Z, [[0, -1], [1, 0]])
    sign = ExactMatrix.from_rows(Z, [[-1]])
    out = {}
    for name, base in (("circle5", circle(5)), ("torus3x4", product(circle(3), circle(4))),
                       ("rp2", from_ordered_complex(range(6), _rp2())),
                       ("klein3x3", from_ordered_complex(range(18), _klein(3, 3)))):
        out[name] = _differentials(cochain_algebra(base, Z).complex())
    c4 = circle(4)
    out["circle4-rot"] = _local_system_differentials(c4, 2, {c4.nondegenerate(1)[0]: rot})
    x = circle(3)
    t = product(x, circle(3))
    seam = x.nondegenerate(1)[0]
    for name, mono in (("torus3x3-rot", rot), ("torus3x3-sign", sign)):
        # pulled back along the projection to the first circle
        edges = {e: mono for e in t.nondegenerate(1) if e[0] == seam and e[1] == (0, 1)}
        out[name] = _local_system_differentials(t, mono.rows, edges)
    return out


def test_invariant_factors_of_differentials_match_the_smith_diagonal():
    for name, differentials in _spaces_with_torsion().items():
        for d in differentials:
            assert invariant_factors(d) == _snf_diagonal(d), name


def test_torsion_of_rp2_and_klein_bottle():
    from mctwist.simplicial import cochain_algebra, from_ordered_complex
    for tris, h1 in ((_rp2(), 0), (_klein(3, 3), 1)):
        vertices = range(max(v for t in tris for v in t) + 1)
        rep = cochain_algebra(from_ordered_complex(vertices, tris), Z).cohomology()
        assert rep == CohomologyReport(Z, [(0, 1, ()), (1, h1, ()), (2, 0, (2,))])


def test_invariant_factors_of_the_three_torus_4x4x3():
    from mctwist.simplicial import circle, cochain_algebra, product
    spec = cochain_algebra(product(product(circle(4), circle(4)), circle(3)), Z).complex()
    assert sum(spec.dims.values()) == 1248
    for d in _differentials(spec):
        assert invariant_factors(d) == _snf_diagonal(d)


def test_smith_normal_form_only_where_its_transforms_are_read():
    """U and V are what a full Smith form costs over invariant factors:
    kernels, solves and inverses read them; invariant_factors calls it once,
    on its non-unit core."""
    call = re.compile(r"(?<![\w.])smith_normal_form\(")
    unpack = re.compile(r"(\w+), \w+, (\w+) = $")
    assert call.search("    u, d, v = smith_normal_form(a)")
    assert not call.search("x = exactlinalg.smith_normal_form(m)")
    assert unpack.search("    _, d, v = ").groups() == ("_", "v")
    core, bad = [], []
    for where, name, text, hit in _source_hits(call):
        head = text[text.rfind("\n", 0, hit.start()) + 1:hit.start()]
        if head.lstrip().startswith("def "):
            continue
        function = re.findall(r"^def (\w+)", text[:hit.start()], re.M)[-1]
        targets = unpack.search(head)
        if (name, function) == ("exactlinalg.py", "invariant_factors"):
            core.append(where)
        elif targets is None or targets.groups() == ("_", "_"):
            bad.append(where)
    assert not bad, "U or V unread: %s" % ", ".join(bad)
    assert len(core) == 1



def test_rank_kernel_and_cohomology_name_no_factorization():
    """Which factorization a question takes (one elimination, or the Smith
    form for a dependent Z system) is decided in solve_many alone; rank and
    cohomology go through the contraction of invariant_factors, kernels and
    inverses through solve_many."""
    import inspect
    from mctwist import simplicial
    pattern = re.compile(r"\b(is_field|rref|smith_normal_form)\b")
    assert pattern.search("    if m.ring.is_field:") and not pattern.search("_rref_kernel(")
    for f in (rank, kernel_basis, cohomology, simplicial.solve_invertibility):
        hits = pattern.findall(inspect.getsource(f))
        assert not hits, "%s names %s" % (f.__name__, hits)


@pytest.mark.parametrize("ring", [Q, F5], ids=lambda r: r.name)
def test_field_cohomology_makes_no_rref_call(ring, monkeypatch):
    from mctwist import exactlinalg
    from mctwist.simplicial import circle, cochain_algebra
    spec = cochain_algebra(circle(8), ring).complex()
    calls = []
    for name in ("rref", "solve_many"):
        inner = getattr(exactlinalg, name)
        monkeypatch.setattr(exactlinalg, name, (lambda name, inner: lambda *args: (
            calls.append(name) or inner(*args)))(name, inner))
    assert cohomology(spec) == CohomologyReport(ring, [(0, 1, ()), (1, 1, ())])
    assert calls == []
    kernel_basis(spec.d(0))  # the wrappers do see the solve that remains
    assert calls == ["solve_many"]


# -- building matrices from labelled columns ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Z, Q, F5]), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 2 ** 32))
def test_from_columns_matches_the_dense_constructor(ring, nrows, ncols, seed):
    rng = random.Random(seed)
    # most rows and columns all zero, zero scalars stored in the columns at
    # random, the column keys and the row labels in shuffled orders
    dense = [[ring.coerce(x) for x in row] for row in _sparse_lists(rng, ring, nrows, ncols)]
    labels = [("r", i) for i in range(nrows)]
    columns = []
    for j in range(ncols):
        keys = [l for l in labels if dense[l[1]][j] != 0 or rng.random() < 0.3]
        rng.shuffle(keys)
        columns.append({l: dense[l[1]][j] for l in keys})
    dst = list(labels)
    rng.shuffle(dst)
    m = ExactMatrix.from_columns(ring, columns, dst)
    ref = ExactMatrix(ring, nrows, ncols, [dense[l[1]] for l in dst])
    assert (m.ring, m.rows, m.cols) == (ring, nrows, ncols)
    assert m == ref
    assert [(k, v, type(v)) for k, v in m.nonzero_items()] == \
        [(k, v, type(v)) for k, v in ref.nonzero_items()]
    assert m.transpose() == ExactMatrix.from_columns(
        ring, [dict(zip(range(ncols), dense[l[1]])) for l in dst], range(ncols))


def test_from_columns_refuses_a_label_outside_the_rows():
    assert ExactMatrix.from_columns(Z, [{}, {}], []) == ExactMatrix(Z, 0, 2)
    for columns in ([{"a": 1}, {"b": 2}], [{"a": 1}, {"b": 0}]):
        with pytest.raises(ExactLinalgError, match="column 1 .*'b'"):
            ExactMatrix.from_columns(Z, columns, ["a"])


def _inline_keyed_solve(ring, ncols, rows, rhs):
    # the keyed-equation block that solve_equations replaced, kept as its reference
    eqkeys = sorted(set(rows) | set(rhs), key=str)
    mat = ExactMatrix.zeros(ring, len(eqkeys), ncols)
    for i, k in enumerate(eqkeys):
        for j, c in rows.get(k, {}).items():
            mat.set_entry(i, j, c)
    target = [rhs.get(k, ring.zero()) for k in eqkeys]
    sol = solve_linear(mat, target)
    return None if sol is None else sol[0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Z, Q, F5]), st.integers(1, 6), st.integers(0, 8),
       st.integers(0, 2 ** 32))
def test_solve_equations_matches_the_inline_keyed_solve(ring, ncols, nkeys, seed):
    rng = random.Random(seed)
    # keys of mixed shapes, as the callers use; some only in rows, some only in rhs
    keys = [rng.choice([("c3", k), ("c4", ("v", k)), ("fg", (k, "w", "a"))]) for k in range(nkeys)]
    a = [[ring.coerce(c) for c in row] for row in _sparse_lists(rng, ring, nkeys, ncols)]
    x0 = [ring.coerce(rng.randint(-3, 3)) for _ in range(ncols)]
    consistent = rng.random() < 0.7
    items = []
    for k, coeffs in zip(keys, a):
        row = {j: c for j, c in enumerate(coeffs) if c}
        if row or rng.random() < 0.3:
            items.append(("row", k, row))
        # row . x0, so that x0 solves a consistent system
        b = ring.coerce(sum(c * x0[j] for j, c in row.items())) if consistent else \
            ring.coerce(rng.randint(-3, 3))
        if b or not row:
            items.append(("rhs", k, b))
    ref = None
    for _ in range(3):
        rng.shuffle(items)
        # the system as columns, keys in shuffled order; an empty row is a
        # zero entry of some column
        columns, rhs = {j: {} for j in range(ncols)}, {}
        for kind, k, val in items:
            if kind == "rhs":
                rhs[k] = val
            for j, c in val.items() if kind == "row" else ():
                columns[j][k] = c
            if kind == "row" and not val:
                columns[rng.randrange(ncols)][k] = ring.zero()
        rows = {}
        for j, col in columns.items():
            for k, c in col.items():
                rows.setdefault(k, {})[j] = c
        sol = solve_equations(ring, columns, rhs)
        if ref is None:
            ref = _inline_keyed_solve(ring, ncols, rows, rhs)
            if consistent:
                assert ref is not None
        assert (sol is None) == (ref is None)
        if sol is not None:
            assert [(j, c, type(c)) for j, c in sol.items()] == \
                [(j, c, type(c)) for j, c in enumerate(ref) if c != 0]


def test_solve_equations_orders_the_equations_by_str_of_key():
    # over Z the particular solution depends on the order of the equations:
    # in the order inserted here, e2 e1 e0, these give [9, 70, 48, -82]
    a = {"e0": [-3, 3, -2, 1], "e1": [3, 1, -2, 0], "e2": [1, -1, 3, 1]}
    order = ("e2", "e1", "e0")
    columns = {j: {k: a[k][j] for k in order if a[k][j]} for j in range(4)}
    rhs = {"e2": 1, "e1": 1, "e0": 5}
    assert solve_linear(ExactMatrix.from_rows(Z, [a[k] for k in order]),
                        list(rhs.values()))[0] == [9, 70, 48, -82]
    assert list(solve_equations(Z, columns, rhs).items()) == [(1, 1), (3, 2)]
    assert solve_equations(Z, columns, {**rhs, "e3": 1}) is None


def _solve_one(a, b):
    # solve_linear's body for one right-hand side before solve_many, kept as its reference
    ring = a.ring
    b = [ring.coerce(x) for x in b]
    if ring.is_field:
        r, pivots = rref(ExactMatrix(ring, a.rows, a.cols + 1,
                                     [a.row_list(i) + [b[i]] for i in range(a.rows)]))
        if a.cols in pivots:
            return None
        x = [ring.zero()] * a.cols
        for ri, pc in enumerate(pivots):
            x[pc] = r.get(ri, a.cols)
        return x
    u, d, v = smith_normal_form(a)
    ub = [sum(u.get(i, k) * b[k] for k in range(a.rows)) for i in range(a.rows)]
    y = [0] * a.cols
    for i in range(a.rows):
        di = d.get(i, i) if i < min(d.rows, d.cols) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            q, rem = divmod(ub[i], di)
            if rem != 0:
                return None
            y[i] = q
    return [sum(v.get(i, k) * y[k] for k in range(a.cols)) for i in range(a.cols)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Z, Q, F5]), st.integers(0, 5), st.integers(0, 5), st.integers(0, 6),
       st.integers(0, 2 ** 32))
def test_solve_many_matches_one_solve_per_right_hand_side(ring, nrows, ncols, nb, seed):
    rng = random.Random(seed)
    a = ExactMatrix(ring, nrows, ncols, _sparse_lists(rng, ring, nrows, ncols))
    bs = []
    for _ in range(nb):
        kind = rng.choice(["image", "random", "repeat", "sum"])
        if kind == "image" or not bs and kind != "random":
            x0 = [rng.randint(-3, 3) for _ in range(ncols)]
            bs.append([sum(a.get(i, j) * x0[j] for j in range(ncols)) for i in range(nrows)])
        elif kind == "random":
            bs.append([rng.choice([0, 0, 1, -2, 3]) for _ in range(nrows)])
        elif kind == "repeat":  # an earlier b again: after a pivot b-column, not a pivot
            bs.append(list(rng.choice(bs)))
        else:
            bs.append([x + y for x, y in zip(rng.choice(bs), rng.choice(bs))])
    sols, kernel = solve_many(a, bs)
    assert kernel == kernel_basis(a)
    assert len(sols) == len(bs)
    for b, sol in zip(bs, sols):
        ref = _solve_one(a, b)
        assert (sol is None) == (ref is None)
        if sol is not None:
            assert [(c, type(c)) for c in sol] == [(c, type(c)) for c in ref]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Z, Q, F5]), st.integers(0, 5), st.integers(0, 5), st.integers(0, 4),
       st.integers(0, 2 ** 32))
def test_solve_columns_is_solve_many_keyed_by_label(ring, nrows, ncols, nb, seed):
    rng = random.Random(seed)
    a = ExactMatrix(ring, nrows, ncols, _sparse_lists(rng, ring, nrows, ncols))
    # labels of mixed, non-integer shapes, assigned to the positions in shuffled order
    rows = [rng.choice([("r", i), "r%d" % i, (("v", i), "a")]) for i in range(nrows)]
    cols = [rng.choice([("c", j), "c%d" % j, (("w", j), "b")]) for j in range(ncols)]
    rng.shuffle(rows)
    rng.shuffle(cols)
    bs = []
    for _ in range(nb):
        x0 = [rng.randint(-3, 3) for _ in range(ncols)]
        bs.append([ring.coerce(sum(a.get(i, j) * x0[j] for j in range(ncols)))
                   if rng.random() < 0.6 else ring.coerce(rng.choice([0, 0, 1, -2, 3]))
                   for i in range(nrows)])

    def by_label(dense, labels):
        # the nonzero entries keyed by label, inserted in shuffled order
        order = list(range(len(labels)))
        rng.shuffle(order)
        return {labels[i]: dense[i] for i in order if dense[i] != 0}

    columns = {cols[j]: by_label([a.get(i, j) for i in range(nrows)], rows)
               for j in range(ncols)}
    keyed_bs = [by_label(b, rows) for b in bs]
    sols, kernel = solve_columns(ring, columns, rows, keyed_bs)

    def ref(vec):  # solve_many's vector re-keyed through the column labels
        return [(cols[j], c, type(c)) for j, c in enumerate(vec) if c != 0]

    ref_sols, ref_kernel = solve_many(a, bs)
    assert [[(l, c, type(c)) for l, c in v.items()] for v in kernel] == \
        [ref(v) for v in ref_kernel]
    assert len(sols) == len(bs)
    for sol, rsol in zip(sols, ref_sols):
        assert (sol is None) == (rsol is None)
        if sol is not None:
            assert [(l, c, type(c)) for l, c in sol.items()] == ref(rsol)
    # a label outside the rows is refused, whatever its scalar
    off = ("off", rng.randrange(10))
    if ncols:
        j = rng.choice(cols)
        with pytest.raises(ExactLinalgError, match="off the rows"):
            solve_columns(ring, {**columns, j: {**columns[j], off: rng.choice([0, 1])}},
                          rows, keyed_bs)
    with pytest.raises(ExactLinalgError, match="off the rows"):
        solve_columns(ring, columns, rows, keyed_bs + [{off: rng.choice([0, 1])}])


@pytest.mark.parametrize("ring", [Z, Q, Ring.GF(5)], ids=lambda r: r.name)
def test_is_invertible_agrees_with_solving_for_the_inverse(ring):
    from mctwist.simplicial import solve_invertibility
    rng = random.Random(20261019)
    found = {True: 0, False: 0}
    for trial in range(200):
        n = rng.randint(0, 4)
        # unit lower times unit upper triangular: invertible over every ring
        lo = [[int(i == j) or (rng.randint(-3, 3) if j < i else 0) for j in range(n)]
              for i in range(n)]
        up = [[int(i == j) or (rng.randint(-3, 3) if j > i else 0) for j in range(n)]
              for i in range(n)]
        rows = [[sum(lo[i][k] * up[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        kind = trial % 4
        if n and kind == 1:  # det +-2: invertible over Q and F5, not over Z
            rows[0] = [rng.choice((2, -2)) * x for x in rows[0]]
        elif n > 1 and kind == 2:  # a repeated row: singular over every ring
            rows[rng.randrange(n - 1)] = list(rows[-1])
        elif kind == 3:  # small entries, singular ones included
            rows = [[rng.choice((0, 0, 1, -1, 2, 5)) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix.from_rows(ring, rows)
        assert is_invertible(m) == (solve_invertibility(m) is not None), rows
        found[is_invertible(m)] += 1
    assert min(found.values()) > 30, found
    assert not is_invertible(ExactMatrix.zeros(ring, 2, 3))
    assert is_invertible(ExactMatrix.from_rows(ring, [[2]])) == ring.is_field


# -- the fraction-free elimination: Z solves with independent columns, Q ranks --------


def _smith_solve_many(a, bs):
    # solve_many over Z when every system took one Smith form, kept as its oracle
    u, d, v = smith_normal_form(a)
    n = min(d.rows, d.cols)
    diag = [d.get(i, i) for i in range(n)] + [0] * (a.rows - n)
    sols = []
    for b in bs:
        ub = [sum(c * b[k] for k, c in row.items()) for row in u._data]
        y = [x // di if di else 0 for x, di in zip(ub, diag)] + [0] * (a.cols - n)
        sols.append(None if any(x % di if di else x for x, di in zip(ub, diag)) else
                    [sum(c * y[k] for k, c in row.items()) for row in v._data])
    kernel = [[v.get(i, j) for i in range(v.rows)]
              for j in range(d.cols) if j >= n or d.get(j, j) == 0]
    return sols, kernel


_Z_ENTRY_SETS = [(0, 1, -1), (0, 1, 2, -3), (0, 4, 6, -2), (0, 1, -1, 2, 3, -5, 7)]


@pytest.mark.parametrize("entries", _Z_ENTRY_SETS, ids=str)
def test_z_solve_many_equals_the_smith_form_solve(entries):
    """With independent columns a * x = b has at most one solution, so the
    elimination's back-substitution must give the Smith form's integers;
    dependent columns still read V.  750 systems per entry set."""
    rng = random.Random("z-solve/%s" % (entries,))
    seen = {"independent": 0, "solved": 0, "unsolved": 0}
    for _ in range(750):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        if nrows and rng.random() < 0.2:  # a zero row
            rows[rng.randrange(nrows)] = [0] * ncols
        if ncols and rng.random() < 0.2:  # a zero column
            j = rng.randrange(ncols)
            for row in rows:
                row[j] = 0
        a = ExactMatrix(Z, nrows, ncols, rows)
        bs = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:  # in the image of a
                x0 = [rng.randint(-3, 3) for _ in range(ncols)]
                bs.append([sum(r[j] * x0[j] for j in range(ncols)) for r in rows])
            else:
                bs.append([rng.choice(entries) for _ in range(nrows)])
        sols, kernel = solve_many(a, bs)
        assert (sols, kernel) == _smith_solve_many(a, bs), (rows, bs)
        if not kernel:
            seen["independent"] += 1
            for x in sols:
                seen["solved" if x is not None else "unsolved"] += 1
    assert seen["independent"] > 250 and min(seen.values()) > 100, seen


def test_z_solve_of_a_dense_system_stays_within_the_hadamard_bound():
    # 24 x 24 with entries up to 10^6: every entry the elimination makes is,
    # up to a factor, a minor of [a | b], so none passes Hadamard's bound
    from mctwist.exactlinalg import _echelon
    rng = random.Random(24)
    rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(24)] for _ in range(24)]
    x0 = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(24)]
    b = [sum(r[j] * x0[j] for j in range(24)) for r in rows]
    a = ExactMatrix.from_rows(Z, rows)
    sols, kernel = solve_many(a, [b, [1] + [0] * 23])
    assert (sols, kernel) == _smith_solve_many(a, [b, [1] + [0] * 23])
    assert sols[0] == x0 and kernel == []
    bound = 1
    for r, c in zip(rows, b):
        bound *= sum(v * v for v in r) + c * c
    pivots = _echelon([dict(enumerate(r + [c])) for r, c in zip(rows, b)], 24, True, 0)
    assert list(pivots) == list(range(24))
    assert max(v * v for p in pivots.values() for v in p.values()) <= bound


# -- rref and field solves by the same elimination ------------------------------------
#
# rref and every field solve run on _echelon; the probe loop that rref was,
# and solve_many's field branch built on it, are kept here as references.


def _probe_rref(m, swaps=None):
    # rref as a loop that probes every row below the pivot row for each
    # column and clears the column from every row; ``swaps`` counts the
    # pivots found below the pivot row
    ring = m.ring
    a = m.copy()._data
    pivots = []
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if c in a[i]), None)
        if piv is None:
            continue
        if swaps is not None and piv != r:
            swaps.append(c)
        a[r], a[piv] = a[piv], a[r]
        inv = ring.inv(a[r][c])
        prow = a[r] = {j: ring.mul(inv, x) for j, x in a[r].items()}
        for i, row in enumerate(a):
            f = row.get(c)
            if f is not None and i != r:
                ring.axpy(row, -f, prow)
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return ExactMatrix._of_rows(ring, m.cols, a), pivots


def _probe_solve_many(a, bs):
    # solve_many over a field as one probe-loop rref of [a | b ...]: b is
    # solvable when its column vanishes below the pivot rows of a, and each
    # kernel vector sets one free column to 1 and reads the pivot entries
    ring = a.ring
    r, pivots = _probe_rref(ExactMatrix(ring, a.rows, a.cols + len(bs), [
        a.row_list(i) + [ring.coerce(b[i]) for b in bs] for i in range(a.rows)]))
    pivots = [c for c in pivots if c < a.cols]
    sols = []
    for col in range(a.cols, a.cols + len(bs)):
        x = [ring.zero()] * a.cols
        for ri, pc in enumerate(pivots):
            x[pc] = r.get(ri, col)
        sols.append(None if any(r.get(ri, col) for ri in range(len(pivots), r.rows)) else x)
    kernel = []
    for fc in range(a.cols):
        if fc not in pivots:
            vec = [ring.zero()] * a.cols
            vec[fc] = ring.one()
            for ri, pc in enumerate(pivots):
                vec[pc] = ring.neg(r.get(ri, fc))
            kernel.append(vec)
    return sols, kernel


def _field_system(rng, ring, kind):
    """(a, bs): a seeded random system over a field, of one of four kinds."""
    values = {"Q": [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)],
              "Fp": [1, -1, 2, 3, -5, 7, 11]}[ring.kind]
    nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
    if kind == "sparse":
        density = rng.choice((0.15, 0.3, 0.5))
        rows = [[rng.choice(values) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]
    elif kind == "dense":
        rows = [[rng.choice(values + [0]) for _ in range(ncols)] for _ in range(nrows)]
    elif kind == "low_rank":  # combinations of fewer rows than there are
        base = [[rng.choice(values + [0, 0]) for _ in range(ncols)]
                for _ in range(rng.randint(0, max(0, min(nrows, ncols) - 1)))]
        rows = [[sum(c * r[j] for c, r in zip(cs, base)) for j in range(ncols)]
                for cs in ([rng.choice([0, 1, -1, 2]) for _ in base] for _ in range(nrows))]
    else:  # "shared": a few columns held by most rows, so that pivots move
        hubs = rng.sample(range(ncols), min(ncols, 2))
        rows = [[rng.choice(values) if j in hubs and rng.random() < 0.7
                 or rng.random() < 0.15 else 0 for j in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:  # a zero row
        rows[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.3:  # a zero column
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    a = ExactMatrix(ring, nrows, ncols, rows)
    bs = []
    for _ in range(rng.randint(0, 4)):
        pick = rng.choice(["image", "image", "random", "zero", "repeat"])
        if pick == "image":
            x0 = [rng.choice(values[:4] + [0]) for _ in range(ncols)]
            bs.append([sum(r[j] * x0[j] for j in range(ncols)) for r in rows])
        elif pick == "random":
            bs.append([rng.choice(values + [0]) for _ in range(nrows)])
        elif pick == "zero" or not bs:
            bs.append([0] * nrows)
        else:
            bs.append(list(rng.choice(bs)))
    return a, [[ring.coerce(x) for x in b] for b in bs]


def _typed(vec):
    # the entries with their types: an integral rational must be an int
    return [(c, type(c)) for c in vec]


@pytest.mark.parametrize("ring", [Q, Ring.GF(2), Ring.GF(3), F5, Ring.GF(7)],
                         ids=lambda r: r.name)
def test_rref_and_field_solves_equal_the_probe_loop(ring):
    """The elimination gives the probe loop's R, pivots, solutions and
    kernels, values and types alike, on 400 seeded systems per field."""
    rng = random.Random("field-solve/" + ring.name)
    seen = {"kernel": 0, "solved": 0, "unsolved": 0, "moved": 0, "rank-deficient": 0}
    for trial in range(400):
        a, bs = _field_system(rng, ring, ("sparse", "dense", "low_rank", "shared")[trial % 4])
        before, swaps = a.copy(), []
        r, pivots = _probe_rref(a, swaps)
        got_r, got_pivots = rref(a)
        assert (got_r, got_pivots) == (r, pivots), ([before.row_list(i) for i in
                                                     range(before.rows)], bs)
        assert [[(j, v, type(v)) for j, v in sorted(row.items())] for row in got_r._data] == \
            [[(j, v, type(v)) for j, v in sorted(row.items())] for row in r._data]
        sols, kernel = solve_many(a, bs)
        ref_sols, ref_kernel = _probe_solve_many(a, bs)
        assert [None if x is None else _typed(x) for x in sols] == \
            [None if x is None else _typed(x) for x in ref_sols]
        assert [_typed(v) for v in kernel] == [_typed(v) for v in ref_kernel]
        assert a == before
        seen["kernel"] += bool(kernel)
        seen["moved"] += bool(swaps)
        seen["rank-deficient"] += len(pivots) < min(a.rows, a.cols)
        for x in sols:
            seen["solved" if x is not None else "unsolved"] += 1
    assert min(seen.values()) > 60, seen


def _fraction_rank(rows):
    # Gaussian elimination on plain Fractions: the rank oracle, sharing no
    # code with exactlinalg
    work = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rk, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        for i in range(rk + 1, len(work)):
            f = work[i][c] / work[rk][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rk])]
        rk += 1
    return rk


@pytest.mark.parametrize("kind", ["fractions", "no_units", "large"])
def test_q_rank_is_fraction_elimination_in_integers(kind):
    rng = random.Random("q-rank/" + kind)
    pick = {"fractions": lambda: rng.choice([0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 4),
                                             Fraction(5, 6), 2]),
            "no_units": lambda: rng.choice([0, 0, 2, -3, 4, 6, Fraction(2, 3), -9]),
            "large": lambda: rng.choice([0, 0, 1, rng.randint(-10 ** 12, 10 ** 12),
                                         Fraction(rng.randint(1, 10 ** 12), 7)])}[kind]
    for _ in range(1000):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        rows = [[pick() for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:  # a dependent row
            i, k = rng.sample(range(nrows), 2)
            c = pick()
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
        facs = invariant_factors(ExactMatrix(Q, nrows, ncols, rows))
        assert [(f, type(f)) for f in facs] == [(1, int)] * _fraction_rank(rows), rows

