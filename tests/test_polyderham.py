from fractions import Fraction

import pytest

from mctwist.dgcore import DgError, check_dga
from mctwist.exactlinalg import ExactMatrix, Ring
from mctwist.mc import is_mc
from mctwist.polyderham import (
    MatrixPoly,
    hom_solutions,
    one_form,
    polynomial_de_rham_dga,
    polynomial_mc_category,
)

Q = Ring.Q()


def test_quotient_dga_passes_axioms():
    pd = polynomial_de_rham_dga(Q, 8)
    assert check_dga(pd)["ok"]
    assert len(pd.gm.labels_of_degree(0)) == 9
    assert len(pd.gm.labels_of_degree(1)) == 8
    with pytest.raises(DgError, match="characteristic zero"):
        polynomial_de_rham_dga(Ring.GF(5), 4)


def test_every_one_form_is_mc():
    pd = polynomial_de_rham_dga(Q, 6)
    for coeffs in ([1], [0, 1], [2, 0, 0, 5], [Fraction(1, 2), 3]):
        ok, _ = is_mc(pd, pd.element(one_form(pd, coeffs)))
        assert ok
    # degree-0 elements are not MC candidates
    from mctwist.mc import MCError
    with pytest.raises(MCError):
        is_mc(pd, pd.element(("z", 1)))


def test_no_polynomial_solutions_between_zero_and_dz():
    zero = MatrixPoly.scalar(Q, [])
    dz = MatrixPoly.scalar(Q, [1])
    basis, certified = hom_solutions(zero, dz, 8)
    assert basis == [] and certified
    # the reversed pair too: f' - f = 0 has no polynomial solutions
    basis, certified = hom_solutions(dz, zero, 8)
    assert basis == [] and certified


def test_quotient_artifact_is_avoided():
    # inside the naive (z^9)-quotient the closedness system loses its top
    # equation and acquires a rank-one kernel (the truncated exponential);
    # the degreewise solve keeps every equation and reports zero
    pd = polynomial_de_rham_dga(Q, 8)
    from mctwist.mc import hom_twist, zero_mc, MCElement
    dz_el = MCElement(pd, pd.element(one_form(pd, [1])))
    tw = hom_twist(pd, zero_mc(pd), dz_el)
    rep = tw.cohomology()
    assert rep.rank(0) == 1  # the truncation artifact, visible and documented
    assert hom_solutions(MatrixPoly.scalar(Q, []), MatrixPoly.scalar(Q, [1]), 8) == ([], True)


def test_constants_are_the_diagonal_homs():
    zero = MatrixPoly.scalar(Q, [])
    basis, certified = hom_solutions(zero, zero, 8)
    assert certified and len(basis) == 1
    assert basis[0][0] == ExactMatrix.from_rows(Q, [[1]]) or basis[0][0].get(0, 0) != 0
    assert all(m.is_zero() for m in basis[0][1:])


def test_pairwise_table_for_three_forms():
    zero = MatrixPoly.scalar(Q, [])
    zdz = MatrixPoly.scalar(Q, [0, 1])
    two_zdz = MatrixPoly.scalar(Q, [0, 2])
    cat = polynomial_mc_category([zero, zdz, two_zdz], 8)
    assert sorted(cat["dims"]) == sorted(cat["certified"]) == [(i, j) for i in range(3)
                                                               for j in range(3)]
    for (i, j), dim in cat["dims"].items():
        if i != j:
            assert dim == 0 and cat["certified"][(i, j)], (i, j)
        else:
            assert dim == 1


def test_matrix_valued_case():
    # x = 0, y = N dz with N nilpotent: f' + N f = 0 still has only f = 0
    # among polynomials? no: f constant with N f = 0 works; check exactness
    n2 = ExactMatrix.from_rows(Q, [[0, 1], [0, 0]])
    y = MatrixPoly(Q, 2, {0: n2})
    x = MatrixPoly(Q, 2, {})
    basis, certified = hom_solutions(x, y, 6)
    assert not certified  # the Sylvester leading map has a kernel
    for sol in basis:
        # verify the ODE residual exactly
        for m in range(8):
            acc = ExactMatrix.zeros(Q, 2, 2)
            if m + 1 <= 6:
                acc = acc + sol[m + 1].scale(m + 1)
            for k, ym in y.coeffs.items():
                if 0 <= m - k <= 6:
                    acc = acc + ym * sol[m - k]
            assert acc.is_zero()


def test_polynomial_mc_category_summary():
    zero = MatrixPoly.scalar(Q, [])
    zdz = MatrixPoly.scalar(Q, [0, 1])
    two_zdz = MatrixPoly.scalar(Q, [0, 2])
    cat = polynomial_mc_category([zero, zdz, two_zdz], 8)
    for i in range(3):
        for j in range(3):
            want = 1 if i == j else 0
            assert cat["dims"][(i, j)] == want
            if i != j:
                # off-diagonal answers are certified complete; the diagonal
                # leading map has the scalars in its kernel, so those stay
                # honestly cap-bounded
                assert cat["certified"][(i, j)]
            else:
                assert cat["certified"][(i, j)] == (i == 0)
    assert cat["isomorphic"] == []


def test_zero_forms_are_certified_only_in_characteristic_zero():
    # over F5, w F_w = 0 does not force F_w = 0 at w = 5, 10, ...: z^10 solves
    # f' = 0 above the cap, so the answer up to weight 8 is not complete
    f5 = Ring.GF(5)
    basis, certified = hom_solutions(MatrixPoly.scalar(f5, []), MatrixPoly.scalar(f5, []), 8)
    assert not certified
    assert len(basis) == 2  # 1 and z^5
    for ring in (Q, Ring.Z()):
        zero = MatrixPoly.scalar(ring, [])
        basis, certified = hom_solutions(zero, zero, 8)
        assert certified and len(basis) == 1


def test_equal_forms_are_found_isomorphic_at_the_first_invertible_product(monkeypatch):
    from mctwist import polyderham
    from mctwist.exactlinalg import is_invertible
    # the constant nilpotent form N dz twice, and dz: Hom(N dz, N dz) holds
    # the constants commuting with N, listed as N, 1, ... up to weight 2
    n = MatrixPoly(Q, 2, {0: [[0, 1], [0, 0]]})
    dz = MatrixPoly(Q, 2, {0: [[1, 0], [0, 1]]})
    forms = [n, dz, n]
    products = []
    monkeypatch.setattr(polyderham, "is_invertible",
                        lambda m: products.append(m) or is_invertible(m))
    cat = polynomial_mc_category(forms, 2)
    assert cat["isomorphic"] == [(0, 2), (2, 0)]
    assert cat["dims"] == {(i, j): 4 if i % 2 == j % 2 else 0 for i in range(3) for j in range(3)}
    # the search of a pair ends at its first invertible weight-0 product g[0] f[0]
    want = []
    for i, j in ((0, 2), (2, 0)):
        basis_ij = hom_solutions(forms[i], forms[j], 2)[0]
        basis_ji = hom_solutions(forms[j], forms[i], 2)[0]
        pairs = [g[0] * f[0] for f in basis_ij for g in basis_ji]
        first = next(k for k, m in enumerate(pairs) if is_invertible(m))
        assert 0 < first < len(pairs) - 1
        want += pairs[:first + 1]
    assert products == want


def test_equal_forms_are_isomorphic_when_no_basis_product_is_a_unit():
    # Hom(0, 0) of the 2x2 zero form is the constants, listed as the four
    # elementary matrices: every product of two has rank at most one, yet
    # the identity is a solution both ways, since the two forms are equal
    from mctwist.exactlinalg import is_invertible
    zero = MatrixPoly(Q, 2)
    cat = polynomial_mc_category([zero, zero], 2)
    assert cat["dims"] == {(i, j): 4 for i in range(2) for j in range(2)}
    assert all(not is_invertible(g[0] * f[0])
               for f in hom_solutions(zero, zero, 2)[0] for g in hom_solutions(zero, zero, 2)[0])
    assert cat["isomorphic"] == [(0, 1), (1, 0)]
    # an equal form written out again, beside one that is not isomorphic
    zdz = MatrixPoly.scalar(Q, [0, 1])
    cat = polynomial_mc_category([zdz, MatrixPoly.scalar(Q, []), MatrixPoly.scalar(Q, [0, 1])], 4)
    assert cat["isomorphic"] == [(0, 2), (2, 0)]
