"""The polynomial de Rham algebra of the line and exact degreewise solves.

Every degree-1 element of k[z, dz] is a polynomial 1-form x = p(z) dz and
is Maurer-Cartan (dz^2 = 0 kills both d(x) and x^2).  A degree-0 morphism
between the twisted modules of two such elements x, y is a (matrix)
polynomial f with

    f'(z) + y(z) f(z) - f(z) x(z) = 0.

No finite-dimensional dg quotient of k[z, dz] can decide solvability: the
quotient by the d-stable ideal (z^{N+1}) loses the top-weight equation and
manufactures a spurious rank-one kernel (a truncated exponential).  The
honest computation is the banded linear system below, solved exactly for
polynomial f of weight <= cap with *all* equations retained; when the
leading band is injective the answer is certified complete for all weights,
which covers the classical "df + fx + yf = 0 has no polynomial solutions"
computations exactly.

The quotient dg algebra itself is still provided (it passes the axiom
checker and houses MC elements); only Hom-solvability questions must go
through the degreewise solver.
"""

from __future__ import annotations

from .dgcore import DgAlgebra, DgError, GradedModule
from .exactlinalg import ExactMatrix, Ring, is_invertible, kernel_basis, solve_columns


def polynomial_de_rham_dga(ring: Ring, max_z: int, name: str = "") -> DgAlgebra:
    """k[z, dz]/(z^{max_z+1}) as a dg algebra (char 0 coefficients).

    Basis z^0..z^max_z in degree 0 and dz, z dz, ..., z^{max_z-1} dz in
    degree 1 (the d-closure of the ideal eats z^{max_z} dz).
    """
    if ring.kind == "Fp":
        raise DgError("the polynomial de Rham fixture needs characteristic zero")
    basis = [(("z", k), 0) for k in range(max_z + 1)]
    basis += [(("zdz", k), 1) for k in range(max_z)]
    gm = GradedModule(ring, basis)
    unit = {("z", 0): 1}
    mult = {}
    for i in range(max_z + 1):
        for j in range(max_z + 1):
            if i + j <= max_z:
                mult[(("z", i), ("z", j))] = {("z", i + j): 1}
    for i in range(max_z + 1):
        for j in range(max_z):
            if i + j < max_z:
                mult[(("z", i), ("zdz", j))] = {("zdz", i + j): 1}
                mult[(("zdz", j), ("z", i))] = {("zdz", i + j): 1}
    diff = {("z", k): {("zdz", k - 1): k} for k in range(1, max_z + 1)}
    return DgAlgebra(gm, unit, mult, diff, name=name or "Q[z,dz]/(z^%d)" % (max_z + 1))


def one_form(a: DgAlgebra, coeffs) -> dict:
    """The element sum_k c_k z^k dz of the quotient dg algebra."""
    out = {}
    for k, c in enumerate(coeffs):
        if c:
            out[("zdz", k)] = c
    return out


class MatrixPoly:
    """A matrix-valued polynomial sum_k M_k z^k over an exact ring."""

    def __init__(self, ring: Ring, n: int, coeffs=None):
        self.ring = ring
        self.n = n
        self.coeffs = {}
        for k, m in (coeffs or {}).items():
            if isinstance(m, list):
                m = ExactMatrix.from_rows(ring, m)
            if not m.is_zero():
                self.coeffs[k] = m

    @staticmethod
    def scalar(ring: Ring, poly_coeffs) -> "MatrixPoly":
        return MatrixPoly(ring, 1, {k: ExactMatrix.from_rows(ring, [[c]])
                                    for k, c in enumerate(poly_coeffs) if c})

    def degree(self):
        return max(self.coeffs, default=-1)

    def coeff(self, k) -> ExactMatrix:
        return self.coeffs.get(k, ExactMatrix.zeros(self.ring, self.n, self.n))


def hom_solutions(x: MatrixPoly, y: MatrixPoly, cap: int):
    """Exact polynomial solutions of f' + y f - f x = 0 with weight <= cap.

    x and y are the dz-coefficients of two MC 1-forms (matrix polynomials
    of matching size).  Returns (basis, certified) where basis is a list of
    solutions (each a list of cap+1 matrices) and ``certified`` is True
    when the leading-band analysis proves there are no further polynomial
    solutions of any weight, making the answer complete, not just
    cap-bounded.
    """
    if x.n != y.n or x.ring != y.ring:
        raise DgError("mismatched sizes or rings")
    ring = x.ring
    n = x.n
    d = max(x.degree(), y.degree(), 0)
    # one unknown (w, i, j) per entry of each F_w, one equation per output
    # weight m and entry (i, j), all weights up to cap + d retained: f'
    # gives (m + 1) F_{m+1}, y f gives sum_l Y_k[i, l] F_{m-k}[l, j], and
    # f x gives sum_l F_{m-k}[i, l] X_k[l, j]
    columns = {(w, i, j): {} for w in range(cap + 1) for i in range(n) for j in range(n)}
    xt = {k: xm.transpose() for k, xm in x.coeffs.items()}
    neqs = 0
    for m in range(cap + d + 2):
        for i in range(n):
            for j in range(n):
                row = {}
                if m < cap:
                    ring.axpy(row, ring.coerce(m + 1), {(m + 1, i, j): 1})
                for k, ym in y.coeffs.items():
                    if 0 <= m - k <= cap:
                        ring.axpy(row, 1, {(m - k, l, j): c
                                           for l, c in enumerate(ym.row_list(i)) if c})
                for k, xtm in xt.items():
                    if 0 <= m - k <= cap:
                        ring.axpy(row, -1, {(m - k, i, l): c
                                            for l, c in enumerate(xtm.row_list(j)) if c})
                for u, c in row.items():
                    columns[u][neqs] = c
                neqs += 1
    basis = [[ExactMatrix.from_columns(ring, [{i: vec.get((w, i, j), 0) for i in range(n)}
                                              for j in range(n)], range(n))
              for w in range(cap + 1)] for vec in solve_columns(ring, columns, range(neqs))[1]]
    return basis, _leading_band_certificate(x, y, cap)


def _leading_band_certificate(x: MatrixPoly, y: MatrixPoly, cap: int) -> bool:
    """True when no polynomial solution can have weight above ``cap``.

    If x = y = 0 the leading band of the equation is w . F_w from f', which
    is injective for every w >= 1 in characteristic zero; over F_p it
    vanishes at w = p, where z^p is a solution, so nothing is certified.
    Otherwise the band at the top shift s = max(deg x, deg y) is the
    Sylvester map F -> Y_s F - F X_s, a w-independent linear map; its
    injectivity forces the top coefficient of any solution to vanish, hence
    there are no nonzero solutions at all.
    """
    ring = x.ring
    n = x.n
    if x.degree() < 0 and y.degree() < 0:
        return ring.kind != "Fp"  # only the f' band: w F_w = 0 forces F_w = 0
    s = max(x.degree(), y.degree())
    ys = y.coeff(s)
    xs = x.coeff(s)
    # row a * n + b of the map on row-major F: (Y F)[a, b] - (F X)[a, b]
    xst = xs.transpose()
    rows = []
    for a in range(n):
        for b in range(n):
            row = ring.axpy({i * n + b: c for i, c in enumerate(ys.row_list(a)) if c},
                            -1, {a * n + r: c for r, c in enumerate(xst.row_list(b)) if c})
            rows.append(row)
    return not kernel_basis(ExactMatrix.from_columns(ring, rows, range(n * n)).transpose())


def polynomial_mc_category(forms, cap: int):
    """H^0 summary for a list of MC 1-forms of matching size.

    Returns {"dims", "certified", "identity", "isomorphic"}: solution-space
    dimensions and completeness certificates per ordered pair, the identity
    class (the constant 1 is always a solution on the diagonal), and the
    pairs detected isomorphic: by two basis solutions that compose to a unit,
    or as equal forms, since the constant 1 solves f' + y f - f x = 0 both
    ways exactly when x = y.  A pair left off the list is not shown to be
    non-isomorphic: other combinations of the solutions are not tried.
    """
    dims = {}
    certified = {}
    sols = {}
    for i, x in enumerate(forms):
        for j, y in enumerate(forms):
            basis, cert = hom_solutions(x, y, cap)
            sols[(i, j)] = basis
            dims[(i, j)] = len(basis)
            certified[(i, j)] = cert
    # (i, j) is isomorphic once some f in Hom(i, j) and g in Hom(j, i) have an
    # invertible g[0] f[0] (the search stops there), or when the forms are equal
    isomorphic = [(i, j) for i, x in enumerate(forms) for j, y in enumerate(forms) if i != j and (
        any(is_invertible(g[0] * f[0]) for f in sols[(i, j)] for g in sols[(j, i)])
        or x.coeffs == y.coeffs)]
    return {"dims": dims, "certified": certified,
            "identity": "constants on the diagonal", "isomorphic": isomorphic}
