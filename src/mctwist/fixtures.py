"""Built-in algebra and complex fixtures used across the package.

Two universal dg algebras appear here.

* ``universal_mc_dga``: k[x] with |x| = 1 and d(x) = -x^2, truncated by the
  d-stable ideal (x^{N+1}).  Its unique nonzero MC element is x.

* ``homotopy_gauge_universal_dga``: the free dg algebra on x, y (degree 1),
  g, h (degree 0) and s, t (degree -1) whose differential makes (g, h, s, t)
  a homotopy gauge certificate between x and y.  This algebra admits *no*
  finite-dimensional dg quotient: the unit constants in d(s), d(t) drag any
  word-length ideal down to the whole algebra.  It is therefore realized
  lazily: elements are finite word combinations and all arithmetic is exact
  in the honest infinite-dimensional algebra.  d^2 = 0 and the Leibniz rule
  can then be verified on the full word basis up to any length, as the
  tests do (``tests/test_mc.py``).
"""

from __future__ import annotations

from .dgcore import DgAlgebra, DgError, Element, GradedModule
from .exactlinalg import Ring


def universal_mc_dga(ring: Ring, max_words: int = 4) -> DgAlgebra:
    """k[x]/(x^{N+1}) with d(x) = -x^2; the MC elements are 0 and x.

    The ideal (x^{N+1}) is d-stable (d(x^k) is 0 for even k and -x^{k+1}
    for odd k), so the truncation is a genuine dg algebra.
    """
    n = max_words
    basis = [(("x", k), k) for k in range(n + 1)]
    gm = GradedModule(ring, basis)
    unit = {("x", 0): 1}
    mult = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i + j <= n:
                mult[(("x", i), ("x", j))] = {("x", i + j): 1}
    diff = {}
    for k in range(1, n + 1, 2):
        if k + 1 <= n:
            diff[("x", k)] = {("x", k + 1): -1}
    return DgAlgebra(gm, unit, mult, diff, name="k[x]/(x^%d)" % (n + 1))


# ---------------------------------------------------------------------------
# lazy free dg algebras
# ---------------------------------------------------------------------------


class _WordDegrees:
    def __init__(self, generator_degrees: dict):
        self._gen = dict(generator_degrees)

    def __getitem__(self, word):
        return sum(self._gen[g] for g in word)

    def __contains__(self, word):
        return isinstance(word, tuple) and all(g in self._gen for g in word)


class _FreeGm:
    def __init__(self, generator_degrees: dict):
        self.degree = _WordDegrees(generator_degrees)


class FreeDgAlgebra:
    """The free associative dg algebra on graded generators, computed lazily.

    Elements are finite combinations of words (tuples of generator names);
    products concatenate and the differential extends the generator table
    by the Leibniz rule.  The object quacks like a DgAlgebra for elementwise
    work (``as_element``, ``mul_dicts``, ``d_dict``, ``one``), so the MC
    and certificate machinery runs on it unchanged.
    """

    def __init__(self, ring: Ring, generator_degrees: dict, name: str = ""):
        self.ring = ring
        self.generator_degrees = dict(generator_degrees)
        self.gm = _FreeGm(self.generator_degrees)
        self.unit = {(): ring.one()}
        self.name = name or "free dga"
        self.diff_table = {}

    def set_differential(self, gen: str, expr):
        expr = self.as_element(expr)
        want = self.generator_degrees[gen] + 1
        if not expr.is_homogeneous(want):
            raise DgError("d(%s) must be homogeneous of degree %d" % (gen, want))
        self.diff_table[gen] = expr.coeffs

    def gen(self, name: str) -> Element:
        return Element(self, {(name,): self.ring.one()})

    def one(self) -> Element:
        return Element(self, dict(self.unit))

    def zero(self) -> Element:
        return Element(self, {})

    def as_element(self, x) -> Element:
        if isinstance(x, Element):
            if x.algebra is not self:
                raise DgError("element of a different algebra")
            return x
        if isinstance(x, dict):
            out = {}
            for w, c in x.items():
                if not isinstance(w, tuple):
                    w = (w,)
                if w not in self.gm.degree:
                    raise DgError("unknown word %r" % (w,))
                out[w] = self.ring.coerce(c)
            return Element(self, out)
        if isinstance(x, str):
            return self.gen(x)
        return Element(self, {(): self.ring.coerce(x)})

    def element(self, x) -> Element:
        return self.as_element(x)

    def mul_dicts(self, a: dict, b: dict) -> dict:
        ring = self.ring
        out = {}
        for wa, ca in a.items():
            ring.axpy(out, ca, {wa + wb: cb for wb, cb in b.items()})
        return out

    def d_dict(self, a: dict) -> dict:
        ring = self.ring
        out = {}
        for w, c in a.items():
            prefix_deg = 0
            for i, g in enumerate(w):
                dg = self.diff_table.get(g)
                if dg:
                    ring.axpy(out, ring.mul(ring.sign(prefix_deg), c),
                              {w[:i] + mid + w[i + 1:]: cm for mid, cm in dg.items()})
                prefix_deg += self.generator_degrees[g]
        return out


def homotopy_gauge_universal_dga(ring: Ring, flip_ds_sign: bool = False) -> FreeDgAlgebra:
    """The universal dg algebra with two homotopy gauge equivalent MC elements.

    Generators x, y (degree 1), g, h (degree 0), s, t (degree -1) with

        d(x) = -x^2                 d(y) = -y^2
        d(g) = gx - yg              d(h) = hy - xh
        d(s) = hg - 1 - xs - sx     d(t) = gh - 1 - yt - ty

    so that (g, h, s, t) is literally a homotopy gauge certificate between
    x and y: conditions (1)-(2) are the closedness of g and h, and (3)-(4)
    read hg - 1 = d^x(s), gh - 1 = d^y(t).  ``flip_ds_sign`` negates the
    xs-term of d(s), which breaks d^2 on s; the checker must report it.
    """
    a = FreeDgAlgebra(ring, {"x": 1, "y": 1, "g": 0, "h": 0, "s": -1, "t": -1},
                      name="universal homotopy gauge pair")
    X, Y, G, H, S, T = (a.gen(n) for n in "xyghst")
    a.set_differential("x", -(X * X))
    a.set_differential("y", -(Y * Y))
    a.set_differential("g", G * X - Y * G)
    a.set_differential("h", H * Y - X * H)
    sgn = -1 if flip_ds_sign else 1
    a.set_differential("s", H * G - a.one() - sgn * (X * S) - S * X)
    a.set_differential("t", G * H - a.one() - Y * T - T * Y)
    return a
